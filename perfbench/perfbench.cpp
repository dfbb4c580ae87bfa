// Time-to-field benchmark: one scan in, one validated deformation field out.
//
//   perfbench --workload <surgery_sequence|fem_fig7|service_mix> --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Usually launched through run.py, which builds this binary from the
// repository sources first. Workloads (all closed loop, one process, at most
// nproc busy threads):
//
//   surgery_sequence  one OR at the exact Fig. 6 shape (96³ at 2.5 mm, mesher
//                     stride 3, 2 ranks, rigid registration on); scans arrive
//                     as resection advances and the repositioning offset
//                     drifts from (4, -2, 1) mm. Registration and
//                     classification dominate, FEM is under 1%.
//   fem_fig7          fem::solve_deformation on the paper's 77k-equation
//                     system at 2 ranks with the pipeline's default solve
//                     options; the boundary displacement changes per solve.
//                     fem/solver/par are all of the time.
//   service_mix       four ORs (the 32³/40³/48³ tenant catalogue, rigid off)
//                     through SessionServer with its default 2 workers x 2
//                     ranks, one scan outstanding per OR. Small concurrent
//                     requests: queueing and per-request costs weigh more.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// repeats each field with the tracer on (the ratio of the two is the tracing
// overhead) and re-invokes every layer's public entry point on the pipeline's
// own intermediate products, each under a benchmark-side obs::Span and each
// checked bit-equal to what the pipeline produced; the per-layer metrics come
// from those calls and the Chrome trace is written at the end of the run.
//
// Every output is checked: fields converged and undegraded, accuracy against
// the phantom's ground truth, solver residuals, service conservation
// identities, probe equality. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it,
// "perfbench-counts: {...}", lists the per-field work counts that must repeat
// exactly across runs of the same seed (run.py compares them).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "common.h"  // bench::make_brain_problem: the paper's 77k-equation system
#include "core/deformation_field.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/surgery_session.h"
#include "fem/deformation_solver.h"
#include "image/components.h"
#include "image/distance.h"
#include "image/filters.h"
#include "image/transform.h"
#include "mesh/mesher.h"
#include "obs/trace.h"
#include "phantom/brain_phantom.h"
#include "reg/rigid_registration.h"
#include "seg/intraop.h"
#include "service/session_server.h"
#include "surface/active_surface.h"

namespace {

using namespace neuro;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Linear-interpolated quantile (the "inclusive" rule of Python's
/// statistics.quantiles), for samples large enough to have a tail.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A tail percentile needs at least this many samples; below it the
/// percentile is omitted rather than approximated by the maximum.
constexpr std::size_t kMinSamplesForP90 = 100;

// --- bit equality -------------------------------------------------------------

template <class T>
bool same_bytes(const T* a, std::size_t na, const T* b, std::size_t nb) {
  return na == nb && (na == 0 || std::memcmp(a, b, na * sizeof(T)) == 0);
}
template <class T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return same_bytes(a.data(), a.size(), b.data(), b.size());
}
template <class T>
bool same(const Image3D<T>& a, const Image3D<T>& b) {
  return a.dims() == b.dims() && same(a.data(), b.data());
}
template <class Id, class T>
bool same(const base::IdVector<Id, T>& a, const base::IdVector<Id, T>& b) {
  return same_bytes(a.data(), a.size(), b.data(), b.size());
}
bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same(const RigidTransform& a, const RigidTransform& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  return std::memcmp(pa.data(), pb.data(), sizeof pa) == 0 && a.center == b.center;
}
bool same(const std::vector<seg::Prototype>& a, const std::vector<seg::Prototype>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].voxel == b[i].voxel) || a[i].label != b[i].label ||
        !same(a[i].features, b[i].features)) {
      return false;
    }
  }
  return true;
}
bool same(const mesh::TetMesh& a, const mesh::TetMesh& b) {
  return same(a.nodes, b.nodes) && same(a.tets, b.tets) && same(a.tet_labels, b.tet_labels);
}
bool same(const mesh::TriSurface& a, const mesh::TriSurface& b) {
  return same(a.vertices, b.vertices) && same(a.triangles, b.triangles) &&
         same(a.mesh_nodes, b.mesh_nodes);
}

// --- run record ---------------------------------------------------------------

/// Everything one run measures and every check it makes.
struct Run {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<double> setup_s;       ///< one entry per set-up repetition
  std::vector<double> ttf_s;         ///< untraced time to field, per field
  std::vector<double> ttf_traced_s;  ///< the same fields with the tracer on
  double busy_wall_s = 0.0;          ///< denominator of fields_per_s
  std::vector<double> field_error_mm;
  /// Per-layer samples, one per probed field (medians are reported).
  std::map<std::string, std::vector<double>> layer;
  /// Work counts per field that must repeat exactly across runs.
  std::map<std::string, std::vector<double>> counts;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::printf("CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
  /// One produced field: an unusable one is a failed operation and fails
  /// the run's correctness check.
  void field(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    check(false, what);
  }
  void sample(const std::string& name, double value) { layer[name].push_back(value); }
};

struct WorkTotals {
  double flops = 0.0;
  double mem_bytes = 0.0;
  double msgs = 0.0;
  double comm_bytes = 0.0;
  double imbalance = 1.0;  ///< max over ranks / mean, of per-rank flops
};

WorkTotals work_totals(const par::PhaseWork& work) {
  WorkTotals t;
  std::vector<double> rank_flops;
  for (const auto& name : work.names()) {
    const auto& per_rank = work.phase(name);
    if (rank_flops.size() < per_rank.size()) rank_flops.resize(per_rank.size(), 0.0);
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      const par::WorkRecord& w = per_rank[r];
      t.flops += w.flops;
      t.mem_bytes += w.mem_bytes;
      t.msgs += w.comm_msgs + w.overlap_comm_msgs + w.coll_rounds;
      t.comm_bytes += w.comm_bytes + w.overlap_comm_bytes + w.coll_bytes;
      rank_flops[r] += w.flops;
    }
  }
  const double per_rank = mean(rank_flops);
  if (per_rank > 0.0) {
    t.imbalance = *std::max_element(rank_flops.begin(), rank_flops.end()) / per_rank;
  }
  return t;
}

/// Work counts every workload records per field (untraced and traced runs).
void record_fem_counts(Run& run, const fem::DeformationResult& d) {
  const WorkTotals w = work_totals(d.work);
  run.counts["fem.iterations"].push_back(d.stats.iterations);
  run.counts["solver.flops"].push_back(w.flops);
  run.counts["par.msgs"].push_back(w.msgs);
}

void sample_fem_layer(Run& run, const fem::DeformationResult& d, double busy_s) {
  const WorkTotals w = work_totals(d.work);
  run.sample("fem.busy_s", busy_s);
  run.sample("fem.init_s", d.wall_init_s);
  run.sample("fem.assemble_s", d.wall_assemble_s);
  run.sample("fem.solve_s", d.wall_solve_s);
  run.sample("fem.iterations", d.stats.iterations);
  run.sample("solver.flops", w.flops);
  run.sample("solver.mem_bytes", w.mem_bytes);
  run.sample("par.msgs", w.msgs);
  run.sample("par.comm_bytes", w.comm_bytes);
  run.sample("par.imbalance", w.imbalance);
}

/// Runs `f` under a benchmark-side span and returns its wall-clock seconds.
double timed(const char* span_name, const std::function<void()>& f) {
  obs::Span span = obs::timed_span(span_name);
  f();
  return span.close();
}

/// The inputs one pipeline run was given.
struct PipelineInputs {
  const ImageF& preop;
  const ImageL& preop_labels;
  const ImageF& intraop;
  const core::PipelineConfig& config;
  const std::vector<seg::Prototype>* reuse;
};

/// Re-invokes each layer's public entry point on the pipeline's own
/// intermediate products, timing each call and checking it reproduces the
/// pipeline's product bit for bit. `pipeline_s` is the traced pipeline total
/// of this field; what the probes do not cover of it is core.glue_s.
void probe_layers(const PipelineInputs& in, const core::PipelineResult& r,
                  double pipeline_s, Run& run) {
  const core::PipelineConfig& cfg = in.config;
  double covered = 0.0;

  // reg: rigid MI registration (the Powell search over MI evaluations).
  if (cfg.do_rigid_registration) {
    reg::RigidRegistrationResult rr;
    const double s = timed("perfbench.reg", [&] {
      rr = reg::register_rigid_mi(in.intraop, in.preop, cfg.rigid);
    });
    run.check(same(rr.transform, r.rigid) && same(rr.mutual_information, r.rigid_mi),
              "reg probe differs from the pipeline's rigid transform");
    run.sample("reg.busy_s", s);
    run.sample("reg.mi_evals", rr.metric_evaluations);
    run.sample("reg.ms_per_eval", 1e3 * s / std::max(1, rr.metric_evaluations));
    run.counts["reg.mi_evals"].push_back(rr.metric_evaluations);
    covered += s;
  } else {
    run.sample("reg.busy_s", 0.0);
    run.sample("reg.mi_evals", 0.0);
    run.sample("reg.ms_per_eval", 0.0);
  }

  // image: rigid resample of the preop scan and labels.
  {
    ImageF aligned;
    ImageL aligned_labels;
    const double s = timed("perfbench.image.resample", [&] {
      aligned = resample_rigid(in.preop, in.intraop, r.rigid);
      const ImageL grid(in.intraop.dims(), 0, in.intraop.spacing(), in.intraop.origin());
      aligned_labels = resample_rigid_labels(in.preop_labels, grid, r.rigid);
    });
    run.check(same(aligned, r.aligned_preop) && same(aligned_labels, r.aligned_preop_labels),
              "image.resample probe differs from the pipeline's aligned preop");
    run.sample("image.resample_s", s);
    covered += s;
  }

  // seg: k-NN classification of the intraop scan and of the aligned preop.
  {
    seg::IntraopSegmentation intra;
    ImageL preop_classified;
    const double s = timed("perfbench.seg", [&] {
      intra = seg::segment_intraop(in.intraop, r.aligned_preop_labels, cfg.seg, nullptr,
                                   in.reuse);
      preop_classified = seg::segment_intraop(r.aligned_preop, r.aligned_preop_labels,
                                              cfg.seg, nullptr, &r.segmentation.prototypes)
                             .labels;
    });
    run.check(same(intra.labels, r.segmentation.labels) &&
                  same(intra.prototypes, r.segmentation.prototypes) &&
                  same(preop_classified, r.preop_classified_labels),
              "seg probe differs from the pipeline's classification");
    const double voxels = static_cast<double>(in.intraop.size() + r.aligned_preop.size());
    run.sample("seg.busy_s", s);
    run.sample("seg.voxels", voxels);
    run.sample("seg.ns_per_voxel", 1e9 * s / voxels);
    covered += s;
  }

  // mesh: tetrahedral meshing of the aligned labels + boundary extraction.
  {
    mesh::MesherConfig mesher = cfg.mesher;
    if (mesher.keep_labels.empty()) mesher.keep_labels = cfg.brain_labels;
    mesh::TetMesh m;
    mesh::TriSurface boundary;
    const double s = timed("perfbench.mesh", [&] {
      m = mesh::mesh_labeled_volume(r.aligned_preop_labels, mesher);
      boundary = mesh::extract_boundary_surface(m, cfg.brain_labels);
    });
    run.check(same(m, r.brain_mesh) && same(boundary, r.preop_surface),
              "mesh probe differs from the pipeline's brain mesh");
    run.sample("mesh.busy_s", s);
    run.sample("mesh.tets", m.num_tets());
    covered += s;
  }

  // image: surface-target masks → smoothed signed distance fields. The
  // pipeline keeps no copy of the SDFs; the surface probe below consumes
  // these, so its bit-equality check covers them.
  ImageF sdf_pre;
  ImageF sdf_intra;
  {
    const auto& match = cfg.surface_match_labels.empty() ? cfg.brain_labels
                                                         : cfg.surface_match_labels;
    const double s = timed("perfbench.image.sdf", [&] {
      ImageL pre_mask = seg::mask_of_labels(r.preop_classified_labels, match);
      ImageL intra_mask = seg::mask_of_labels(r.segmentation.labels, match);
      if (cfg.clean_masks) {
        pre_mask = keep_largest_component(pre_mask);
        intra_mask = keep_largest_component(intra_mask);
      }
      sdf_pre = gaussian_smooth(signed_distance_to_label(pre_mask, 1, cfg.sdf_saturation_mm),
                                0.8);
      sdf_intra = gaussian_smooth(
          signed_distance_to_label(intra_mask, 1, cfg.sdf_saturation_mm), 0.8);
    });
    run.sample("image.sdf_s", s);
    covered += s;
  }

  // surface: two-pass active surface + displacement smoothing.
  {
    surface::ActiveSurfaceResult snapped;
    surface::ActiveSurfaceResult matched;
    const double s = timed("perfbench.surface", [&] {
      snapped = surface::deform_to_distance_field(r.preop_surface, sdf_pre,
                                                  cfg.active_surface);
      matched = surface::deform_to_distance_field(snapped.surface, sdf_intra,
                                                  cfg.active_surface);
      for (const mesh::VertId v : matched.displacements.ids()) {
        matched.displacements[v] = matched.surface.vertices[v] - snapped.surface.vertices[v];
      }
      matched.surface.mesh_nodes = r.preop_surface.mesh_nodes;
      surface::smooth_vertex_vectors(matched.surface, matched.displacements,
                                     cfg.surface_smoothing_iterations);
    });
    run.check(same(matched.surface, r.surface_match.surface) &&
                  same(matched.displacements, r.surface_match.displacements),
              "surface probe differs from the pipeline's surface match");
    run.sample("surface.busy_s", s);
    run.sample("surface.iterations", snapped.iterations + matched.iterations);
    covered += s;
  }

  // fem: the volumetric solve (the pipeline's undegraded rung 0 is exactly
  // this call with the pipeline's options).
  {
    const auto materials = cfg.heterogeneous_materials
                               ? fem::MaterialMap::heterogeneous_brain()
                               : fem::MaterialMap::homogeneous_brain();
    const auto prescribed = surface::node_displacements(r.surface_match);
    fem::DeformationResult d;
    const double s = timed("perfbench.fem", [&] {
      d = fem::solve_deformation(r.brain_mesh, materials, prescribed, cfg.fem);
    });
    run.check(same(d.node_displacements, r.fem.node_displacements) &&
                  d.stats.iterations == r.fem.stats.iterations,
              "fem probe differs from the pipeline's deformation");
    sample_fem_layer(run, d, s);
    covered += s;
  }

  // core: visualization resample (rasterize → extend → invert → warp).
  {
    ImageV forward;
    ImageV backward;
    ImageF warped;
    const double s = timed("perfbench.core.viz", [&] {
      ImageL support;
      forward = core::rasterize_displacements(r.brain_mesh, r.fem.node_displacements,
                                              in.intraop, &support);
      ImageV extended = forward;
      const double max_disp = core::field_stats(forward).max_mm;
      const Vec3 sp = in.intraop.spacing();
      const double min_spacing = std::min({sp.x, sp.y, sp.z});
      const int passes = std::min(24, static_cast<int>(max_disp / min_spacing) + 3);
      core::extend_displacement_field(extended, support, passes);
      backward = core::invert_displacement_field(extended);
      warped = core::warp_backward(r.aligned_preop, backward);
    });
    run.check(same(forward, r.forward_field) && same(backward, r.backward_field) &&
                  same(warped, r.warped_preop),
              "core.viz probe differs from the pipeline's resampled fields");
    run.sample("core.viz_s", s);
    covered += s;
  }

  run.sample("core.glue_s", pipeline_s - covered);
  run.counts["seg.voxels"].push_back(
      static_cast<double>(in.intraop.size() + r.aligned_preop.size()));
}

void print_timeline(int scan, const core::PipelineResult& r) {
  std::printf("scan %d:", scan);
  for (const auto& stage : r.timeline) {
    std::printf(" %s %.3f s,", stage.name.c_str(), stage.seconds);
  }
  std::printf(" total %.3f s\n", r.total_seconds);
}

/// A produced pipeline field is usable when its solve converged undegraded.
bool usable(const core::PipelineResult& r) {
  return r.fem.stats.converged && !r.degradation.degraded;
}

/// Checks that a traced replay of a field reproduced the untraced field.
void check_replay(Run& run, const core::PipelineResult& a, const core::PipelineResult& b) {
  run.check(same(a.rigid, b.rigid) && same(a.segmentation.labels, b.segmentation.labels) &&
                same(a.fem.node_displacements, b.fem.node_displacements) &&
                same(a.warped_preop, b.warped_preop),
            "traced pipeline replay differs from the untraced field");
}

/// Phantom noise seed of scan `i` of a case. The case-opening scan 0 (the
/// one the statistical model is built from) and the preoperative scan are
/// the patient's, fixed across runs; the run seed draws every later scan, so
/// each run meets fresh follow-up scans while the per-field work stays put.
std::uint64_t scan_seed(std::uint64_t patient, std::uint64_t run_seed, int i) {
  return i == 0 ? patient
                : patient + 7919 * (run_seed + 1) + 1000 * static_cast<std::uint64_t>(i);
}

/// Resection progress of scan `i`; clamped because shift_at_progress rejects
/// anything outside [0, 1] (including 1 + one ulp from the arithmetic).
double clamped_progress(double p) { return std::clamp(p, 0.0, 1.0); }

// --- surgery_sequence ---------------------------------------------------------

void run_surgery_sequence(std::uint64_t seed, double seconds, bool trace, Run& run) {
  phantom::PhantomConfig pc;
  pc.dims = {96, 96, 96};
  pc.spacing = {2.5, 2.5, 2.5};
  Rng rng(0x5eed0000ull + seed);
  Vec3 offset{4.0, -2.0, 1.0};
  // Scan 0 opens the case (the model-building scan); later scans follow the
  // resection and a small seeded drift of the patient repositioning.
  auto make_scan = [&](int i) {
    phantom::PhantomConfig scan_pc = pc;
    scan_pc.seed = scan_seed(pc.seed, seed, i);
    if (i > 0) offset = offset + Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                      rng.uniform(-0.3, 0.3)};
    RigidTransform repositioning;
    repositioning.translation = {offset.x, offset.y, offset.z};
    const double progress = i == 0 ? 0.0 : clamped_progress(0.5 + 0.25 * (i - 1));
    return phantom::make_case(
        scan_pc, phantom::shift_at_progress(phantom::ShiftConfig{}, progress), repositioning);
  };

  core::PipelineConfig config = core::default_pipeline_config();
  config.mesher.stride = 3;
  config.fem.nranks = 2;

  const phantom::PhantomCase first = make_scan(0);
  const Clock::time_point t_setup = Clock::now();
  core::SurgerySession session(first.preop, first.preop_labels, config);
  const core::PipelineResult& opened = session.process_scan(first.intraop);
  run.setup_s.push_back(since(t_setup));
  print_timeline(0, opened);
  run.check(usable(opened), "the model-building scan did not produce a usable field");

  double rigid_only_mm = 0.0;
  double loop_s = 0.0;
  // A Fig. 6 field takes longer than a short run, so the untraced loop
  // always measures at least two fields: the p50 stays a median over the
  // same resection steps, and per-scan variation in the registration's
  // Powell search averages over more than one scan.
  const int min_fields = trace ? 1 : 2;
  for (int i = 1; i <= min_fields || loop_s < seconds; ++i) {
    const phantom::PhantomCase scan = make_scan(i);
    // The session's state before this scan, for the traced replay.
    const std::vector<seg::Prototype> prototypes = session.prototypes();
    const std::vector<Vec3> last_good_field = session.last_good_field();
    const auto* reuse = prototypes.empty() ? nullptr : &prototypes;
    const auto* last_good = last_good_field.empty() ? nullptr : &last_good_field;
    const Clock::time_point t0 = Clock::now();
    const core::PipelineResult& r = session.process_scan(scan.intraop);
    const double ttf = since(t0);
    run.ttf_s.push_back(ttf);
    run.busy_wall_s += ttf;
    run.field(usable(r), "scan " + std::to_string(i) + " unconverged or degraded");
    record_fem_counts(run, r.fem);
    print_timeline(i, r);
    const core::AccuracyReport acc = core::evaluate_against_truth(r, scan);
    run.field_error_mm.push_back(acc.recovered_error.mean_mm);
    rigid_only_mm += acc.residual_rigid_only.mean_mm;

    if (trace) {
      obs::global().set_enabled(true);
      obs::Span field_span = obs::timed_span("perfbench.field");
      const Clock::time_point t1 = Clock::now();
      const core::PipelineResult replay = core::run_intraop_pipeline(
          first.preop, first.preop_labels, scan.intraop, config, reuse, last_good);
      const double traced = since(t1);
      run.ttf_traced_s.push_back(traced);
      check_replay(run, r, replay);
      probe_layers({first.preop, first.preop_labels, scan.intraop, config, reuse}, replay,
                   traced, run);
      field_span.close();
      obs::global().set_enabled(false);
    }
    loop_s += trace ? since(t0) : ttf;
  }
  const double mean_error = mean(run.field_error_mm);
  rigid_only_mm /= static_cast<double>(run.ttf_s.size());
  std::printf("accuracy: recovered field error %.4f mm vs rigid-only residual %.4f mm\n",
              mean_error, rigid_only_mm);
  run.check(mean_error < rigid_only_mm,
            "field error is not below the rigid-only residual (Fig. 4 claim)");
}

// --- fem_fig7 -----------------------------------------------------------------

void run_fem_fig7(std::uint64_t seed, double seconds, bool trace, Run& run) {
  fem::DeformationSolveOptions options = core::default_pipeline_config().fem;
  options.nranks = 2;
  const fem::MaterialMap materials = fem::MaterialMap::homogeneous_brain();

  // Set-up: build the 77k-equation mesh and run its first solve. Repeated so
  // the reported set-up time is a median, not one sample.
  std::optional<bench::BrainProblem> problem;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    problem.emplace(bench::make_brain_problem(77511));
    const fem::DeformationResult first =
        fem::solve_deformation(problem->mesh, materials, problem->prescribed, options);
    run.setup_s.push_back(since(t0));
    run.check(first.stats.converged, "the set-up solve did not converge");
  }
  std::printf("system: %d equations, %d tets, %zu prescribed nodes\n",
              problem->num_equations, problem->mesh.num_tets(), problem->prescribed.size());

  // Per solve, the boundary displacement is the analytic brain shift scaled
  // by s plus a rigid translation t; field_error_mm compares the solved
  // interior with the same transform of the analytic shift, i.e. how well
  // the FEM recovers the true displacement from its surface values.
  Rng rng(0xf1e7000ull + seed);
  const phantom::ShiftConfig shift;
  std::vector<Vec3> truth(static_cast<std::size_t>(problem->mesh.num_nodes()));
  for (const mesh::NodeId n : problem->mesh.node_ids()) {
    truth[n.index()] = -1.0 * problem->geometry.shift_at(problem->mesh.nodes[n], shift);
  }
  const double rtol = options.solver.rtol;
  double loop_s = 0.0;
  while (loop_s < seconds) {
    const double s = rng.uniform(0.95, 1.05);
    const Vec3 t{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    std::vector<std::pair<mesh::NodeId, Vec3>> prescribed = problem->prescribed;
    for (auto& [node, u] : prescribed) u = s * u + t;

    const Clock::time_point t0 = Clock::now();
    const fem::DeformationResult d =
        fem::solve_deformation(problem->mesh, materials, prescribed, options);
    const double ttf = since(t0);
    run.ttf_s.push_back(ttf);
    run.busy_wall_s += ttf;
    const bool converged = d.stats.converged && d.stats.relative_residual() <= rtol;
    run.field(converged, "solve " + std::to_string(run.ttf_s.size()) +
                             " stopped at relative residual " +
                             std::to_string(d.stats.relative_residual()));
    record_fem_counts(run, d);
    double error = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      error += norm(d.node_displacements[i] - (s * truth[i] + t));
    }
    run.field_error_mm.push_back(error / static_cast<double>(truth.size()));

    if (trace) {
      // Here the pipeline is the solve call itself: the traced repeat is the
      // fem probe, and what its own phase timers leave uncovered is glue.
      obs::global().set_enabled(true);
      fem::DeformationResult probe;
      const double traced = timed("perfbench.fem", [&] {
        probe = fem::solve_deformation(problem->mesh, materials, prescribed, options);
      });
      obs::global().set_enabled(false);
      run.ttf_traced_s.push_back(traced);
      run.check(same(probe.node_displacements, d.node_displacements) &&
                    probe.stats.iterations == d.stats.iterations,
                "traced fem probe differs from the untraced solve");
      sample_fem_layer(run, probe, traced);
      run.sample("core.glue_s", traced - (probe.wall_init_s + probe.wall_assemble_s +
                                          probe.wall_bc_s + probe.wall_solve_s));
    }
    loop_s += trace ? since(t0) : ttf;
  }
}

// --- service_mix --------------------------------------------------------------

struct OperatingRoom {
  core::PipelineConfig config;
  ImageF preop;
  ImageL preop_labels;
  std::vector<phantom::PhantomCase> scans;  ///< scans[0] opens the session
  service::SessionId session{};
  core::SessionCheckpoint opened;  ///< state after the model-building scan
};

std::vector<OperatingRoom> make_operating_rooms(std::uint64_t seed) {
  struct Tenant {
    int dim;
    double spacing_mm;
    int stride;
  };
  // The service tenant catalogue; the fourth OR repeats the smallest size.
  const Tenant catalogue[] = {{32, 3.5, 4}, {40, 3.0, 4}, {48, 2.8, 3}, {32, 3.5, 4}};
  std::vector<OperatingRoom> rooms;
  for (std::size_t i = 0; i < 4; ++i) {
    const Tenant& t = catalogue[i];
    phantom::PhantomConfig pc;
    pc.dims = {t.dim, t.dim, t.dim};
    pc.spacing = {t.spacing_mm, t.spacing_mm, t.spacing_mm};
    pc.seed = 42 + 104729 * i;
    OperatingRoom room;
    const double progress[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.0};
    for (int k = 0; k < 7; ++k) {
      phantom::PhantomConfig scan_pc = pc;
      scan_pc.seed = scan_seed(pc.seed, seed, k);
      room.scans.push_back(phantom::make_case(
          scan_pc, phantom::shift_at_progress(phantom::ShiftConfig{}, progress[k])));
    }
    room.preop = room.scans[0].preop;
    room.preop_labels = room.scans[0].preop_labels;
    room.config = core::default_pipeline_config();
    room.config.do_rigid_registration = false;  // the cases share the frame
    room.config.mesher.stride = t.stride;
    rooms.push_back(std::move(room));
  }
  return rooms;
}

struct ClientSamples {
  std::vector<double> ttf_s;
  std::vector<double> queue_s;
  std::vector<double> service_s;
  long attempted = 0;
  long failed = 0;
  bool fixed_grant = true;
};

/// Closed loop for `seconds`: one client per OR, each with one scan
/// outstanding, cycling through that OR's follow-up scans.
ClientSamples serve(service::SessionServer& server, std::vector<OperatingRoom>& rooms,
                    double seconds, double* wall_s) {
  std::vector<ClientSamples> per_room(rooms.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < rooms.size(); ++i) {
    clients.emplace_back([&, i] {
      OperatingRoom& room = rooms[i];
      ClientSamples& out = per_room[i];
      for (std::size_t k = 0; since(start) < seconds; ++k) {
        ImageF scan = room.scans[1 + k % (room.scans.size() - 1)].intraop;
        const Clock::time_point t0 = Clock::now();
        auto ticket = server.submit(room.session, std::move(scan));
        ++out.attempted;
        if (!ticket.ok()) {
          ++out.failed;
          continue;
        }
        const service::RequestReport rep = server.wait(ticket.value());
        const double ttf = since(t0);
        if (!rep.status.ok() || rep.degraded || rep.crashed) {
          ++out.failed;
          continue;
        }
        if (rep.ranks != server.options().ranks_per_solve) out.fixed_grant = false;
        out.ttf_s.push_back(ttf);
        out.queue_s.push_back(rep.queue_seconds);
        out.service_s.push_back(rep.service_seconds);
      }
    });
  }
  for (auto& c : clients) c.join();
  *wall_s = since(start);
  for (std::size_t i = 0; i < rooms.size(); ++i) {
    std::printf("OR %zu (%d^3): %zu fields, time to field p50 %.4f s\n", i,
                rooms[i].preop.dims().x, per_room[i].ttf_s.size(), median(per_room[i].ttf_s));
  }
  ClientSamples all;
  for (const auto& c : per_room) {
    all.ttf_s.insert(all.ttf_s.end(), c.ttf_s.begin(), c.ttf_s.end());
    all.queue_s.insert(all.queue_s.end(), c.queue_s.begin(), c.queue_s.end());
    all.service_s.insert(all.service_s.end(), c.service_s.begin(), c.service_s.end());
    all.attempted += c.attempted;
    all.failed += c.failed;
    all.fixed_grant = all.fixed_grant && c.fixed_grant;
  }
  return all;
}

void check_conservation(Run& run, const service::ServerStats& st) {
  const std::int64_t rejected = st.rejected_queue_full + st.rejected_deadline +
                                st.rejected_unknown_session + st.rejected_draining;
  run.check(st.submitted == st.admitted + rejected,
            "ServerStats: submitted != admitted + rejected");
  run.check(st.admitted == st.completed, "ServerStats: admitted != completed after drain");
  run.check(st.completed == st.usable + st.failed, "ServerStats: completed != usable + failed");
  run.check(rejected == 0, "service rejected requests");
  run.check(st.failed == 0 && st.degraded == 0 && st.crashes == 0,
            "service produced failed, degraded or crashed requests");
}

void run_service_mix(std::uint64_t seed, double seconds, bool trace, Run& run) {
  std::vector<OperatingRoom> rooms = make_operating_rooms(seed);
  const service::ServerOptions options;  // 2 workers x 2 ranks, no deadlines
  run.check(options.default_deadline_seconds == 0.0 &&
                options.rank_pool == options.workers * options.ranks_per_solve,
            "service options must give fixed rank grants and no deadlines");

  // Set-up: open the server and the four sessions and run each session's
  // model-building scan. Repeated so set-up time is a median.
  std::unique_ptr<service::SessionServer> server;
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<service::SessionServer>(options);
    std::vector<service::RequestTicket> tickets;
    for (auto& room : rooms) {
      room.session = server->open_session(room.preop, room.preop_labels, room.config);
      auto ticket = server->submit(room.session, room.scans[0].intraop);
      run.check(ticket.ok(), "model-building scan rejected");
      if (ticket.ok()) tickets.push_back(ticket.value());
    }
    for (const auto& t : tickets) {
      const service::RequestReport rep = server->wait(t);
      run.check(rep.status.ok() && !rep.degraded, "model-building scan failed");
    }
    run.setup_s.push_back(since(t0));
  }
  for (auto& room : rooms) room.opened = server->session_checkpoint(room.session);

  double wall_s = 0.0;
  const ClientSamples untraced = serve(*server, rooms, trace ? 0.5 * seconds : seconds,
                                       &wall_s);
  run.ttf_s = untraced.ttf_s;
  run.busy_wall_s = wall_s;
  run.attempted += untraced.attempted;
  run.failed += untraced.failed;
  run.check(untraced.fixed_grant, "a request was granted other than ranks_per_solve ranks");
  if (trace) {
    obs::global().set_enabled(true);
    const ClientSamples traced = serve(*server, rooms, 0.5 * seconds, &wall_s);
    obs::global().set_enabled(false);
    run.ttf_traced_s = traced.ttf_s;
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    run.check(traced.fixed_grant, "a request was granted other than ranks_per_solve ranks");
    run.sample("service.queue_s.p50", median(traced.queue_s));
    run.sample("service.service_s.p50", median(traced.service_s));
  }
  server->drain();
  const service::ServerStats st = server->stats();
  check_conservation(run, st);
  if (trace) run.sample("service.max_queue_depth", static_cast<double>(st.max_queue_depth));
  server.reset();

  // Replay: every follow-up scan of each OR through the pipeline directly,
  // from the session state right after its model-building scan (for the
  // first follow-up, exactly what the service ran). SessionServer does not
  // expose its fields, so accuracy and, traced, the layer probes come from
  // these replays. All six per OR: fewer let the seed-dependent error of the
  // 32³ tenants dominate field_error_mm (spread 0.2 with three, 0.06 with six).
  for (auto& room : rooms) {
    for (std::size_t k = 1; k < room.scans.size(); ++k) {
      const phantom::PhantomCase& scan = room.scans[k];
      core::PipelineConfig config = room.config;
      config.fem.nranks = options.ranks_per_solve;
      if (trace) obs::global().set_enabled(true);
      const Clock::time_point t0 = Clock::now();
      const core::PipelineResult r = core::run_intraop_pipeline(
          room.preop, room.preop_labels, scan.intraop, config, &room.opened.prototypes,
          &room.opened.last_good_field);
      const double pipeline_s = since(t0);
      run.check(usable(r), "replayed service field unconverged or degraded");
      record_fem_counts(run, r.fem);
      if (trace) {
        probe_layers({room.preop, room.preop_labels, scan.intraop, config,
                      &room.opened.prototypes},
                     r, pipeline_s, run);
        obs::global().set_enabled(false);
      }
      const core::AccuracyReport acc = core::evaluate_against_truth(r, scan);
      std::printf("replay %dx%dx%d: field error %.4f mm, rigid-only residual %.4f mm\n",
                  scan.intraop.dims().x, scan.intraop.dims().y, scan.intraop.dims().z,
                  acc.recovered_error.mean_mm, acc.residual_rigid_only.mean_mm);
      run.field_error_mm.push_back(acc.recovered_error.mean_mm);
    }
  }
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_counts(const Run& run) {
  std::printf("perfbench-counts: {");
  bool first = true;
  for (const auto& [name, values] : run.counts) {
    std::printf("%s\"%s\": [", first ? "" : ", ", name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", json_number(values[i]).c_str());
    }
    std::printf("]");
    first = false;
  }
  std::printf("}\n");
}

std::vector<Metric> end_to_end_metrics(const Run& run) {
  const std::size_t n = run.ttf_s.size();
  std::printf("time_to_field_s.p50 = %.4f s (n=%zu)\n", median(run.ttf_s), n);
  if (n >= kMinSamplesForP90) {
    std::printf("time_to_field_s.p90 = %.4f s (n=%zu)\n", quantile(run.ttf_s, 0.9), n);
  } else {
    std::printf("time_to_field_s.p90 omitted (n=%zu < %zu)\n", n, kMinSamplesForP90);
  }
  std::printf("setup_s = %.4f s (median of n=%zu set-ups)\n", median(run.setup_s),
              run.setup_s.size());
  return {
      {"time_to_field_s.p50", median(run.ttf_s), "s"},
      {"fields_per_s", run.busy_wall_s > 0.0 ? static_cast<double>(n) / run.busy_wall_s : 0.0,
       "1/s"},
      {"setup_s", median(run.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"field_error_mm", mean(run.field_error_mm), "mm"},
  };
}

/// The per-layer metric names and units, in report order. Every workload
/// reports all of them; a layer a workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"reg.busy_s", "s"},           {"reg.mi_evals", "count"},
      {"reg.ms_per_eval", "ms"},     {"image.resample_s", "s"},
      {"seg.busy_s", "s"},           {"seg.voxels", "count"},
      {"seg.ns_per_voxel", "ns"},    {"mesh.busy_s", "s"},
      {"mesh.tets", "count"},        {"surface.busy_s", "s"},
      {"surface.iterations", "count"}, {"image.sdf_s", "s"},
      {"core.viz_s", "s"},           {"fem.busy_s", "s"},
      {"fem.init_s", "s"},           {"fem.assemble_s", "s"},
      {"fem.solve_s", "s"},          {"fem.iterations", "count"},
      {"solver.flops", "flop"},      {"solver.mem_bytes", "B"},
      {"par.msgs", "count"},         {"par.comm_bytes", "B"},
      {"par.imbalance", "ratio"},    {"service.queue_s.p50", "s"},
      {"service.service_s.p50", "s"}, {"service.max_queue_depth", "count"},
      {"core.glue_s", "s"},          {"obs.trace_overhead_ratio", "ratio"},
  };
  return units;
}

std::vector<Metric> per_layer_metrics(const Run& run) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_units()) {
    double value = 0.0;
    if (name == "obs.trace_overhead_ratio") {
      const double untraced = median(run.ttf_s);
      value = untraced > 0.0 ? median(run.ttf_traced_s) / untraced : 0.0;
    } else if (const auto it = run.layer.find(name); it != run.layer.end()) {
      value = median(it->second);
    }
    out.push_back({name, value, unit});
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') a.seconds = 0.0;
    } else if (key == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_seed || a.seconds <= 0.0 || a.trace < 0) return std::nullopt;
  if (a.workload != "surgery_sequence" && a.workload != "fem_fig7" &&
      a.workload != "service_mix") {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#if !(defined(NDEBUG) && defined(__OPTIMIZE__))
  std::fprintf(stderr, "perfbench: refusing to time a build without NDEBUG and "
                       "optimisation (use a Release or RelWithDebInfo build)\n");
  return 2;
#endif
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <surgery_sequence|fem_fig7|service_mix> --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  // Tracing is on exactly in the traced phases, whatever NEURO_TRACE says.
  obs::global().set_enabled(false);

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const service::ServerOptions server_defaults;
  const bool service = args->workload == "service_mix";
  const int workers = service ? server_defaults.workers : 1;
  const int ranks = service ? server_defaults.ranks_per_solve : 2;
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d commit=%s\n",
              args->workload.c_str(), static_cast<unsigned long long>(args->seed),
              args->seconds, args->trace, args->commit.c_str());
  std::printf("provenance: build=release nproc=%d workers=%d ranks=%d busy_threads=%d\n",
              nproc, workers, ranks, workers * ranks);
  if (workers * ranks > nproc) {
    std::fprintf(stderr, "perfbench: %d busy threads exceed nproc=%d\n", workers * ranks,
                 nproc);
    return 2;
  }

  Run run;
  const bool trace = args->trace == 1;
  if (args->workload == "surgery_sequence") {
    run_surgery_sequence(args->seed, args->seconds, trace, run);
  } else if (args->workload == "fem_fig7") {
    run_fem_fig7(args->seed, args->seconds, trace, run);
  } else {
    run_service_mix(args->seed, args->seconds, trace, run);
  }

  const std::vector<Metric> e2e = end_to_end_metrics(run);
  std::vector<Metric> metrics = trace ? per_layer_metrics(run) : e2e;
  if (trace) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(args->out_dir, ec);
    const fs::path path = fs::path(args->out_dir) /
                          ("trace_" + args->workload + "_" + std::to_string(args->seed) +
                           ".json");
    std::ofstream os(path, std::ios::binary);
    obs::global().write_chrome_trace(os);
    os.close();
    run.check(static_cast<bool>(os), "cannot write the Chrome trace " + path.string());
    std::printf("wrote %s (%zu trace events)\n", path.string().c_str(),
                obs::global().event_count());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_counts(run);

  std::ostringstream json;
  json << "{\"correct\": " << (run.correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
