// Determinism regression suite. DESIGN.md §6 claims bit-for-bit
// reproducibility for a fixed seed — the property the regression tests and
// the calibrated benches stand on. These tests assert it end to end:
// identical runs produce identical bits, including across repeated parallel
// executions (fixed-order reductions) and for the full pipeline.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "fem/deformation_solver.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "obs/metrics.h"
#include "phantom/brain_phantom.h"
#include "seg/intraop.h"

namespace neuro {
namespace {

/// NDJSON with wall-clock instruments removed: names ending in `.seconds`
/// (and `total_seconds`) are timings by convention and the only sanctioned
/// run-to-run variation in a metrics export (docs/static_analysis.md).
std::string drop_timing_lines(const std::string& ndjson) {
  std::istringstream in(ndjson);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("seconds") == std::string::npos) out << line << '\n';
  }
  return out.str();
}

TEST(DeterminismTest, PhantomBitwiseStable) {
  phantom::PhantomConfig pc;
  pc.dims = {36, 36, 36};
  pc.spacing = {3.2, 3.2, 3.2};
  const auto a = phantom::make_case(pc, phantom::ShiftConfig{});
  const auto b = phantom::make_case(pc, phantom::ShiftConfig{});
  EXPECT_EQ(a.preop.data(), b.preop.data());
  EXPECT_EQ(a.intraop.data(), b.intraop.data());
  EXPECT_EQ(a.intraop_labels.data(), b.intraop_labels.data());
  // Vector fields: compare element-wise exactly.
  for (std::size_t i = 0; i < a.true_backward_shift.size(); ++i) {
    ASSERT_EQ(norm(a.true_backward_shift.data()[i] - b.true_backward_shift.data()[i]),
              0.0);
  }
}

TEST(DeterminismTest, ParallelSolveBitwiseRepeatable) {
  // Two runs at the same rank count must agree to the last bit: collectives
  // reduce in fixed order, so floating-point nondeterminism cannot creep in.
  ImageL labels({7, 7, 7}, 1, {2, 2, 2});
  mesh::MesherConfig mc;
  mc.stride = 2;
  const mesh::TetMesh mesh = mesh::mesh_labeled_volume(labels, mc);
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = mesh.nodes[n];
    bcs.emplace_back(n, Vec3{0.01 * p.y, -0.02 * p.z, 0.005 * p.x});
  }
  fem::DeformationSolveOptions opt;
  opt.nranks = 4;
  const auto r1 = fem::solve_deformation(mesh, fem::MaterialMap::homogeneous_brain(),
                                         bcs, opt);
  const auto r2 = fem::solve_deformation(mesh, fem::MaterialMap::homogeneous_brain(),
                                         bcs, opt);
  ASSERT_EQ(r1.node_displacements.size(), r2.node_displacements.size());
  for (std::size_t n = 0; n < r1.node_displacements.size(); ++n) {
    ASSERT_EQ(r1.node_displacements[n].x, r2.node_displacements[n].x);
    ASSERT_EQ(r1.node_displacements[n].y, r2.node_displacements[n].y);
    ASSERT_EQ(r1.node_displacements[n].z, r2.node_displacements[n].z);
  }
  EXPECT_EQ(r1.stats.iterations, r2.stats.iterations);
  EXPECT_EQ(r1.stats.final_residual, r2.stats.final_residual);
}

TEST(DeterminismTest, WorkRecordsAreRunInvariant) {
  // The scaling figures rest on this: work records are functions of the
  // input, not of scheduling.
  ImageL labels({7, 7, 7}, 1, {2, 2, 2});
  mesh::MesherConfig mc;
  mc.stride = 2;
  const mesh::TetMesh mesh = mesh::mesh_labeled_volume(labels, mc);
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) bcs.emplace_back(n, Vec3{0, 0, 0.1});
  fem::DeformationSolveOptions opt;
  opt.nranks = 3;
  const auto r1 = fem::solve_deformation(mesh, fem::MaterialMap::homogeneous_brain(),
                                         bcs, opt);
  const auto r2 = fem::solve_deformation(mesh, fem::MaterialMap::homogeneous_brain(),
                                         bcs, opt);
  for (const char* phase : {"assemble", "solve"}) {
    const auto& w1 = r1.work.phase(phase);
    const auto& w2 = r2.work.phase(phase);
    ASSERT_EQ(w1.size(), w2.size());
    for (std::size_t r = 0; r < w1.size(); ++r) {
      ASSERT_EQ(w1[r].flops, w2[r].flops) << phase << " rank " << r;
      ASSERT_EQ(w1[r].comm_bytes, w2[r].comm_bytes) << phase << " rank " << r;
      ASSERT_EQ(w1[r].coll_rounds, w2[r].coll_rounds) << phase << " rank " << r;
    }
  }
}

TEST(DeterminismTest, SegmentationBitwiseStable) {
  phantom::PhantomConfig pc;
  pc.dims = {32, 32, 32};
  pc.spacing = {3.5, 3.5, 3.5};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  seg::IntraopSegmentationConfig cfg;
  cfg.classes = {0, 1, 2, 3, 4};
  cfg.exclude_classes = {5, 6};
  const auto a = seg::segment_intraop(cas.intraop, cas.preop_labels, cfg);
  const auto b = seg::segment_intraop(cas.intraop, cas.preop_labels, cfg);
  EXPECT_EQ(a.labels.data(), b.labels.data());
  ASSERT_EQ(a.prototypes.size(), b.prototypes.size());
  for (std::size_t i = 0; i < a.prototypes.size(); ++i) {
    EXPECT_EQ(a.prototypes[i].voxel, b.prototypes[i].voxel);
  }
}

TEST(DeterminismTest, FullPipelineBitwiseStable) {
  phantom::PhantomConfig pc;
  pc.dims = {36, 36, 36};
  pc.spacing = {3.2, 3.2, 3.2};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  core::PipelineConfig config = core::default_pipeline_config();
  config.do_rigid_registration = false;
  config.fem.nranks = 2;
  const auto r1 =
      core::run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  const auto r2 =
      core::run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  EXPECT_EQ(r1.warped_preop.data(), r2.warped_preop.data());
  EXPECT_EQ(r1.segmentation.labels.data(), r2.segmentation.labels.data());
  EXPECT_EQ(r1.fem.stats.iterations, r2.fem.stats.iterations);
}

TEST(DeterminismTest, MultiRankPipelineAndMetricsBitwiseStable) {
  // The full intraop pipeline, run twice with identical inputs and seeds,
  // must reproduce every exported artifact byte for byte — the deformation
  // fields AND the (timing-stripped) metrics NDJSON — at every rank count.
  // This is the runtime side of the contract check_numerics.py enforces
  // statically.
  phantom::PhantomConfig pc;
  pc.dims = {36, 36, 36};
  pc.spacing = {3.2, 3.2, 3.2};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  for (const int nranks : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "nranks=" << nranks);
    core::PipelineConfig config = core::default_pipeline_config();
    config.do_rigid_registration = false;
    config.fem.nranks = nranks;

    const auto run_once = [&](std::string& metrics_ndjson) {
      obs::metrics().reset_values();
      auto result = core::run_intraop_pipeline(cas.preop, cas.preop_labels,
                                               cas.intraop, config);
      std::ostringstream os;
      obs::metrics().write_ndjson(os);
      metrics_ndjson = drop_timing_lines(os.str());
      return result;
    };
    std::string m1;
    std::string m2;
    const auto r1 = run_once(m1);
    const auto r2 = run_once(m2);

    ASSERT_EQ(r1.backward_field.data().size(), r2.backward_field.data().size());
    EXPECT_EQ(std::memcmp(r1.backward_field.data().data(),
                          r2.backward_field.data().data(),
                          r1.backward_field.data().size() * sizeof(Vec3)),
              0);
    ASSERT_EQ(r1.forward_field.data().size(), r2.forward_field.data().size());
    EXPECT_EQ(std::memcmp(r1.forward_field.data().data(),
                          r2.forward_field.data().data(),
                          r1.forward_field.data().size() * sizeof(Vec3)),
              0);
    ASSERT_EQ(r1.warped_preop.data().size(), r2.warped_preop.data().size());
    EXPECT_EQ(std::memcmp(r1.warped_preop.data().data(),
                          r2.warped_preop.data().data(),
                          r1.warped_preop.data().size() * sizeof(float)),
              0);
    EXPECT_FALSE(m1.empty());
    EXPECT_EQ(m1, m2);
  }
}

TEST(DeterminismTest, RigidPipelineRankInvariant) {
  // Registration and classification run on the FEM's ranks; their products
  // must not depend on how many there are.
  phantom::PhantomConfig pc;
  pc.dims = {32, 32, 32};
  pc.spacing = {3.5, 3.5, 3.5};
  RigidTransform offset;
  offset.translation = {3.0, -2.0, 1.0};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{}, offset);
  core::PipelineConfig config = core::default_pipeline_config();
  config.rigid.powell_iterations = 2;
  std::vector<core::PipelineResult> results;
  for (const int nranks : {1, 2, 4}) {
    config.fem.nranks = nranks;
    results.push_back(
        core::run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config));
  }
  const auto& ref = results.front();
  const auto ref_params = ref.rigid.params();
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "run " << i);
    const auto params = results[i].rigid.params();
    EXPECT_EQ(std::memcmp(params.data(), ref_params.data(), sizeof(params)), 0);
    EXPECT_EQ(std::memcmp(&results[i].rigid_mi, &ref.rigid_mi, sizeof(double)), 0);
    EXPECT_EQ(results[i].aligned_preop.data(), ref.aligned_preop.data());
    EXPECT_EQ(results[i].segmentation.labels.data(), ref.segmentation.labels.data());
    EXPECT_EQ(results[i].preop_classified_labels.data(),
              ref.preop_classified_labels.data());
  }
}

}  // namespace
}  // namespace neuro
