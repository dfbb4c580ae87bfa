// Integration tests: the full intraoperative pipeline on phantom cases —
// the system-level claims of the paper on data with known ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "phantom/brain_phantom.h"

namespace neuro::core {
namespace {

/// One shared small case + pipeline run (the pipeline is the expensive part).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig pcfg;
    pcfg.dims = {56, 56, 56};
    pcfg.spacing = {2.5, 2.5, 2.5};
    case_ = new phantom::PhantomCase(phantom::make_case(pcfg, phantom::ShiftConfig{}));

    PipelineConfig config = default_pipeline_config();
    config.do_rigid_registration = false;
    config.fem.nranks = 2;
    result_ = new PipelineResult(run_intraop_pipeline(
        case_->preop, case_->preop_labels, case_->intraop, config));
    report_ = new AccuracyReport(evaluate_against_truth(*result_, *case_));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete result_;
    delete case_;
    report_ = nullptr;
    result_ = nullptr;
    case_ = nullptr;
  }

  static phantom::PhantomCase* case_;
  static PipelineResult* result_;
  static AccuracyReport* report_;
};
phantom::PhantomCase* PipelineTest::case_ = nullptr;
PipelineResult* PipelineTest::result_ = nullptr;
AccuracyReport* PipelineTest::report_ = nullptr;

TEST_F(PipelineTest, FemSolveConverges) {
  EXPECT_TRUE(result_->fem.stats.converged);
  EXPECT_LT(result_->fem.stats.relative_residual(), 1e-6);
  EXPECT_GT(result_->fem.num_equations, 0);
}

TEST_F(PipelineTest, TimelineHasAllFigSixStages) {
  for (const char* stage :
       {"rigid_registration", "tissue_classification", "surface_displacement",
        "biomechanical_simulation", "visualization_resample"}) {
    EXPECT_NO_THROW(static_cast<void>(result_->stage_seconds(stage))) << stage;
  }
  EXPECT_GT(result_->total_seconds, 0.0);
  EXPECT_THROW(static_cast<void>(result_->stage_seconds("no_such_stage")), CheckError);
}

TEST_F(PipelineTest, SegmentationTracksIntraopAnatomy) {
  EXPECT_GT(report_->brain_dice, 0.85);
}

TEST_F(PipelineTest, SurfaceMatchIsSubvoxel) {
  EXPECT_LT(report_->surface_residual_mm, 2.5);  // voxels are 2.5 mm
}

TEST_F(PipelineTest, SimulationReducesDisplacementResidual) {
  // The paper's central claim, quantified: the biomechanically recovered
  // field explains most of the nonrigid residual that rigid registration
  // leaves behind.
  EXPECT_LT(report_->recovered_error.mean_mm,
            0.85 * report_->residual_rigid_only.mean_mm);
  EXPECT_LT(report_->recovered_error.max_mm, report_->residual_rigid_only.max_mm);
}

TEST_F(PipelineTest, SimulationImprovesBoundaryIntensityMatch) {
  // Fig. 4d evidence: "very small intensity differences at the boundary".
  EXPECT_LT(report_->mad_boundary_simulated, report_->mad_boundary_rigid_only);
}

TEST_F(PipelineTest, RecoveredSurfaceSinksUnderCraniotomy) {
  // Direction check: the FEM field near the craniotomy must point down.
  double min_uz = 0;
  for (const auto& u : result_->fem.node_displacements) {
    min_uz = std::min(min_uz, u.z);
  }
  EXPECT_LT(min_uz, -2.0);  // several mm of sinking recovered
}

TEST_F(PipelineTest, ForwardAndBackwardFieldsAreConsistent) {
  // v(y) ≈ -u(y + v(y)) where the forward field has support. The relation is
  // only approximate where y+v lands in the decaying extension ring outside
  // the mesh (large |v| near the brain-shift gap), so assert distribution
  // properties rather than a per-voxel bound.
  const IVec3 d = result_->forward_field.dims();
  std::vector<double> residuals;
  for (int k = 2; k < d.z - 2; k += 4) {
    for (int j = 2; j < d.y - 2; j += 4) {
      for (int i = 2; i < d.x - 2; i += 4) {
        const Vec3 v = result_->backward_field(i, j, k);
        if (norm(v) < 0.5) continue;
        const Vec3 y = result_->forward_field.voxel_to_physical(i, j, k);
        const Vec3 probe = result_->forward_field.physical_to_voxel(y + v);
        const Vec3 u = sample_trilinear_vec(result_->forward_field, probe);
        residuals.push_back(norm(u + v));
      }
    }
  }
  ASSERT_GT(residuals.size(), 10u);
  std::sort(residuals.begin(), residuals.end());
  const double median = residuals[residuals.size() / 2];
  const double p90 = residuals[residuals.size() * 9 / 10];
  EXPECT_LT(median, 1.0);   // well below a voxel where the field is genuine
  EXPECT_LT(p90, 3.0);      // extension-ring voxels stay bounded
  EXPECT_LT(residuals.back(), 6.0);
}

TEST(PipelineVariantsTest, MultiRankMatchesSingleRank) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 40};
  pcfg.spacing = {3.0, 3.0, 3.0};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  PipelineConfig config = default_pipeline_config();
  config.do_rigid_registration = false;

  config.fem.nranks = 1;
  const auto serial =
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  config.fem.nranks = 4;
  const auto parallel =
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);

  ASSERT_EQ(serial.fem.node_displacements.size(),
            parallel.fem.node_displacements.size());
  for (std::size_t n = 0; n < serial.fem.node_displacements.size(); ++n) {
    EXPECT_LT(
        norm(serial.fem.node_displacements[n] - parallel.fem.node_displacements[n]),
        1e-4);
  }
}

TEST(PipelineVariantsTest, RigidStageRecoversImposedOffset) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 40};
  pcfg.spacing = {3.0, 3.0, 3.0};
  RigidTransform offset;
  offset.translation = {5.0, -3.0, 0.0};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{}, offset);

  PipelineConfig config = default_pipeline_config();
  config.do_rigid_registration = true;
  config.rigid.pyramid_levels = 2;
  const auto result =
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  const auto report = evaluate_against_truth(result, cas);
  // With the rigid offset recovered and the shift simulated, the residual
  // must be far below the raw offset magnitude (~6 mm).
  EXPECT_LT(report.recovered_error.mean_mm, 2.5);
}

TEST(PipelineVariantsTest, BoundaryBandIsNonEmptyAtCoarseVoxels) {
  // At 3.5 mm no voxel centre lies within 3 mm of the brain surface, so a
  // fixed 3 mm band would be empty and both boundary MADs would read exactly
  // 0 (the mean over no voxels).
  phantom::PhantomConfig pcfg;
  pcfg.dims = {32, 32, 32};
  pcfg.spacing = {3.5, 3.5, 3.5};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  PipelineConfig config = default_pipeline_config();
  config.do_rigid_registration = false;
  const auto result =
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  const auto report = evaluate_against_truth(result, cas);
  EXPECT_GT(report.mad_boundary_rigid_only, 0.0);
  EXPECT_GT(report.mad_boundary_simulated, 0.0);
}

TEST(PipelineVariantsTest, HeterogeneousMaterialsRun) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 40};
  pcfg.spacing = {3.0, 3.0, 3.0};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  PipelineConfig config = default_pipeline_config();
  config.do_rigid_registration = false;
  config.heterogeneous_materials = true;
  const auto result =
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config);
  EXPECT_TRUE(result.fem.stats.converged);
  // The phantom's analytic field is not the solution of a heterogeneous
  // elasticity problem, so heterogeneity need not help here — it must only
  // stay in the same accuracy class as the homogeneous model.
  const auto report = evaluate_against_truth(result, cas);
  EXPECT_LT(report.recovered_error.mean_mm,
            1.3 * report.residual_rigid_only.mean_mm);
}

TEST(PipelineVariantsTest, MissingBrainLabelsRejected) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {32, 32, 32};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  PipelineConfig config;  // default-constructed: brain_labels empty
  EXPECT_THROW(
      run_intraop_pipeline(cas.preop, cas.preop_labels, cas.intraop, config),
      CheckError);
}

TEST(PipelineVariantsTest, NonFiniteScanRejectedBeforeWork) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {32, 32, 32};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  ImageF scan = cas.intraop;
  scan(3, 2, 1) = std::numeric_limits<float>::quiet_NaN();
  try {
    static_cast<void>(run_intraop_pipeline(cas.preop, cas.preop_labels, scan,
                                           default_pipeline_config()));
    ADD_FAILURE() << "the pipeline accepted a NaN voxel";
  } catch (const base::StatusError& e) {
    EXPECT_EQ(e.status().code(), base::StatusCode::kFailedPrecondition);
    EXPECT_NE(e.status().message().find("intraop"), std::string::npos);
  }
}

}  // namespace
}  // namespace neuro::core
