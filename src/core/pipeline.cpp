#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <utility>

#include "base/check.h"
#include "core/deformation_field.h"
#include "image/components.h"
#include "image/distance.h"
#include "image/filters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"

namespace neuro::core {

PipelineConfig default_pipeline_config() {
  using phantom::Tissue;
  PipelineConfig config;
  config.brain_labels = {phantom::label(Tissue::kBrain), phantom::label(Tissue::kVentricle),
                         phantom::label(Tissue::kFalx), phantom::label(Tissue::kTumor)};
  config.surface_match_labels = {phantom::label(Tissue::kBrain),
                                 phantom::label(Tissue::kFalx),
                                 phantom::label(Tissue::kTumor)};
  // Localization-model classes: the coarse tissues whose saturated distance
  // transforms disambiguate similar intensities (cavity vs ventricle vs gap).
  config.seg.classes = {phantom::label(Tissue::kBackground), phantom::label(Tissue::kSkin),
                        phantom::label(Tissue::kSkullGap), phantom::label(Tissue::kBrain),
                        phantom::label(Tissue::kVentricle)};
  config.seg.exclude_classes = {phantom::label(Tissue::kFalx),
                                phantom::label(Tissue::kTumor)};
  config.seg.dt_saturation_mm = 10.0;
  config.seg.dt_weight = 1.5;
  config.mesher.keep_labels = config.brain_labels;
  config.mesher.stride = 4;
  return config;
}

namespace {

/// Runs `body` on `nranks` ranks and returns rank 0's result. For stages
/// whose result is the same on every rank.
template <typename F>
auto on_ranks(int nranks, F&& body) {
  std::invoke_result_t<F&, par::Communicator&> out{};
  par::run_spmd(nranks, [&](par::Communicator& comm) {
    auto mine = body(comm);
    if (comm.rank() == 0) out = std::move(mine);
  });
  return out;
}

/// seg::segment_intraop's k-NN pass on `nranks` ranks. The prototypes come
/// from the calling thread: selection is serial work, and inside the rank
/// threads it would run once per rank and leave its distance-transform
/// scratch in every rank thread's malloc arena (measured as peak RSS).
ImageL classify_on_ranks(const seg::FeatureStack& stack,
                         const std::vector<seg::Prototype>& prototypes,
                         const seg::IntraopSegmentationConfig& config, int nranks) {
  const seg::KnnClassifier classifier(prototypes, config.k);
  return on_ranks(nranks, [&](par::Communicator& comm) {
    return classifier.classify_volume_parallel(stack, comm);
  });
}

/// The smoothed signed distance to the surface-matching tissues of a label
/// map: the active surface's attraction field.
ImageF surface_sdf(const ImageL& labels, const PipelineConfig& config) {
  const auto& match_labels = config.surface_match_labels.empty()
                                 ? config.brain_labels
                                 : config.surface_match_labels;
  ImageL mask = seg::mask_of_labels(labels, match_labels);
  // Stray classified voxels create spurious SDF attractors; the brain is one
  // connected object, so keep only the largest component.
  if (config.clean_masks) mask = keep_largest_component(mask);
  return gaussian_smooth(signed_distance_to_label(mask, 1, config.sdf_saturation_mm),
                         0.8);  // soften voxel staircase
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// True when `model` is the one a fresh build would produce for a scan on
/// `intraop`'s grid, aligned by `rigid`, classified with `prototypes` (null or
/// empty: prototypes still to be selected, which never matches).
bool model_matches(const PreopModel& model, const RigidTransform& rigid,
                   const ImageF& intraop, const std::vector<seg::Prototype>* prototypes) {
  if (prototypes == nullptr || prototypes->empty() ||
      prototypes->size() != model.prototypes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < prototypes->size(); ++i) {
    const seg::Prototype& a = model.prototypes[i];
    const seg::Prototype& b = (*prototypes)[i];
    if (!(a.voxel == b.voxel) || a.label != b.label) return false;
  }
  return same_bits(model.rigid.params(), rigid.params()) &&
         same_bits(model.rigid.center, rigid.center) &&
         same_bits(model.grid_dims, intraop.dims()) &&
         same_bits(model.grid_spacing, intraop.spacing()) &&
         same_bits(model.grid_origin, intraop.origin());
}

/// Builds the preoperative case model of one scan: everything the pipeline
/// derives from the preop data, given the rigid alignment, the scan's grid
/// and the prototype locations (`reuse`, or a selection on `intraop` when
/// null or empty, exactly as seg::model_prototypes selects).
std::shared_ptr<PreopModel> build_preop_model(
    const ImageF& preop, const ImageL& preop_labels, const ImageF& intraop,
    const RigidTransform& rigid, const PipelineConfig& config,
    const std::vector<seg::Prototype>* reuse) {
  auto model = std::make_shared<PreopModel>();
  model->rigid = rigid;
  model->grid_dims = intraop.dims();
  model->grid_spacing = intraop.spacing();
  model->grid_origin = intraop.origin();
  {
    obs::Span sub = obs::global_span("pipeline.rigid.resample");
    model->aligned_preop = resample_rigid(preop, intraop, rigid);
    const ImageL grid(intraop.dims(), 0, intraop.spacing(), intraop.origin());
    model->aligned_preop_labels = resample_rigid_labels(preop_labels, grid, rigid);
  }
  model->localization =
      seg::build_localization_channels(model->aligned_preop_labels, config.seg);
  model->prototypes =
      reuse != nullptr && !reuse->empty()
          ? *reuse
          : seg::model_prototypes(
                seg::build_feature_stack(intraop, model->localization, config.seg),
                model->aligned_preop_labels, config.seg);
  // Classify the aligned preop scan with the same model (recorded prototype
  // locations, features refreshed — the paper's automatic model update), so
  // the preop and intraop surface-target masks share one boundary bias.
  {
    obs::Span sub = obs::global_span("pipeline.seg.preop");
    const seg::FeatureStack stack =
        seg::build_feature_stack(model->aligned_preop, model->localization, config.seg);
    model->preop_classified_labels = classify_on_ranks(
        stack,
        seg::model_prototypes(stack, model->aligned_preop_labels, config.seg,
                              &model->prototypes),
        config.seg, config.fem.nranks);
  }
  mesh::MesherConfig mesher = config.mesher;
  if (mesher.keep_labels.empty()) mesher.keep_labels = config.brain_labels;
  {
    obs::Span sub = obs::global_span("pipeline.surface.mesh");
    model->brain_mesh = mesh::mesh_labeled_volume(model->aligned_preop_labels, mesher);
  }
  NEURO_CHECK_MSG(model->brain_mesh.num_tets() > 0,
                  "pipeline: empty brain mesh — check labels/stride");
  model->preop_surface =
      mesh::extract_boundary_surface(model->brain_mesh, config.brain_labels);

  // Two-pass correspondence: the extracted mesh surface is a lattice
  // approximation of the smooth brain boundary, so matching it directly to
  // the intraop boundary would mix discretization error into the measured
  // deformation. Pass 1, here, relaxes the surface onto the *preoperative*
  // boundary; pass 2, per scan, continues onto the *intraoperative* one. The
  // difference of the two relaxed configurations is the pure anatomical
  // displacement, prescribed at the originating mesh nodes.
  ImageF sdf_pre;
  {
    obs::Span sub = obs::global_span("pipeline.surface.preop_sdf");
    sdf_pre = surface_sdf(model->preop_classified_labels, config);
  }
  {
    obs::Span sub = obs::global_span("pipeline.surface.snap");
    model->snapped_surface = surface::deform_to_distance_field(
                                 model->preop_surface, sdf_pre, config.active_surface)
                                 .surface;
  }
  return model;
}

/// Fills the result's copies of the model's products: copied from a model a
/// later scan may reuse, moved out of one no later scan will see.
template <class Model>
void take_model_products(Model&& model, PipelineResult& result) {
  result.aligned_preop = std::forward<Model>(model).aligned_preop;
  result.aligned_preop_labels = std::forward<Model>(model).aligned_preop_labels;
  result.preop_classified_labels = std::forward<Model>(model).preop_classified_labels;
  result.brain_mesh = std::forward<Model>(model).brain_mesh;
  result.preop_surface = std::forward<Model>(model).preop_surface;
}

}  // namespace

double PipelineResult::stage_seconds(const std::string& name) const {
  for (const auto& s : timeline) {
    if (s.name == name) return s.seconds;
  }
  NEURO_CHECK_MSG(false, "unknown pipeline stage '" << name << "'");
  return 0.0;
}

base::Status check_finite_scan(const ImageF& scan, std::string_view what) {
  const auto bad = std::find_if(scan.data().begin(), scan.data().end(),
                                [](float v) { return !std::isfinite(v); });
  if (bad == scan.data().end()) return {};
  const auto v = static_cast<std::size_t>(bad - scan.data().begin());
  const IVec3 d = scan.dims();
  const std::size_t plane = static_cast<std::size_t>(d.x) * static_cast<std::size_t>(d.y);
  std::ostringstream oss;
  oss << what << " scan has a non-finite voxel (" << *bad << ") at ("
      << v % static_cast<std::size_t>(d.x) << ',' << v % plane / static_cast<std::size_t>(d.x)
      << ',' << v / plane << ')';
  return {base::StatusCode::kFailedPrecondition, oss.str()};
}

ResampledFields resample_for_display(const mesh::TetMesh& mesh,
                                     const std::vector<Vec3>& node_displacements,
                                     const ImageF& grid, const ImageF& preop, int nranks) {
  NEURO_REQUIRE(preop.dims() == grid.dims(), "resample_for_display: grid mismatch");
  // Every full-grid buffer is allocated here, on the calling thread, before a
  // rank region starts: one allocated in a rank thread stays in that thread's
  // malloc arena and raises peak RSS.
  const IVec3 d = grid.dims();
  const auto slab = [&](const par::Communicator& comm) {
    return par::block_range(d.z, comm.rank(), nranks);
  };
  ResampledFields out;
  out.forward_field = ImageV(d, Vec3{}, grid.spacing(), grid.origin());
  ImageL support(d, 0, grid.spacing(), grid.origin());
  {
    obs::Span sub = obs::global_span("pipeline.viz.rasterize");
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      const par::BlockRange s = slab(comm);
      rasterize_slab(mesh, node_displacements, out.forward_field, &support, s.begin, s.end);
    });
  }
  // Extend past the mesh boundary so the inversion sees a smooth continuation
  // across the brain-shift gap (≈ max surface displacement wide). The forward
  // field itself is extended, and restored after the inversion.
  const double max_disp = field_stats(out.forward_field).max_mm;
  const double min_spacing = std::min({grid.spacing().x, grid.spacing().y, grid.spacing().z});
  const int passes = std::min(24, static_cast<int>(max_disp / min_spacing) + 3);
  {
    obs::Span sub = obs::global_span("pipeline.viz.extend");
    ImageL filled = support;
    ImageL next_filled(d, 0, grid.spacing(), grid.origin());
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      const par::BlockRange s = slab(comm);
      ImageL* before = &filled;
      ImageL* after = &next_filled;
      for (int pass = 0; pass < passes; ++pass) {
        extend_pass_slab(out.forward_field, *before, *after, kExtendDecayPerPass, s.begin,
                         s.end);
        comm.barrier();  // pass p + 1 reads what every slab filled in pass p
        std::swap(before, after);
      }
    });
  }
  {
    obs::Span sub = obs::global_span("pipeline.viz.invert");
    out.backward_field = ImageV(d, Vec3{}, grid.spacing(), grid.origin());
    std::vector<std::int64_t> samples(static_cast<std::size_t>(nranks), 0);
    const std::size_t plane = static_cast<std::size_t>(d.x) * static_cast<std::size_t>(d.y);
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      const par::BlockRange s = slab(comm);
      samples[static_cast<std::size_t>(comm.rank())] = invert_slab(
          out.forward_field, kInvertIterations, out.backward_field, s.begin, s.end);
      comm.barrier();  // every slab's inversion has read the extended field
      // Extension wrote only unsupported voxels, and rasterization left +0.0
      // in each of them, so zeroing them restores the forward field exactly.
      for (std::size_t v = plane * static_cast<std::size_t>(s.begin);
           v < plane * static_cast<std::size_t>(s.end); ++v) {
        if (support.data()[v] == 0) out.forward_field.data()[v] = Vec3{};
      }
    });
    std::int64_t total = 0;
    for (const std::int64_t n : samples) total += n;
    sub.attr("samples", total);
    sub.attr("ranks", nranks);
  }
  {
    obs::Span sub = obs::global_span("pipeline.viz.warp");
    out.warped_preop = ImageF(d, 0.0f, grid.spacing(), grid.origin());
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      const par::BlockRange s = slab(comm);
      warp_backward_slab(preop, out.backward_field, out.warped_preop, s.begin, s.end);
    });
  }
  return out;
}

PipelineResult run_intraop_pipeline(const ImageF& preop, const ImageL& preop_labels,
                                    const ImageF& intraop,
                                    const PipelineConfig& config,
                                    const std::vector<seg::Prototype>* reuse_prototypes,
                                    const std::vector<Vec3>* last_good,
                                    std::shared_ptr<const PreopModel>* preop_model) {
  NEURO_REQUIRE(preop.dims() == preop_labels.dims(),
                "pipeline: preop image/labels dims mismatch");
  NEURO_REQUIRE(!config.brain_labels.empty(), "pipeline: brain_labels unset — "
                                              "start from default_pipeline_config()");
  for (const base::Status& finite :
       {check_finite_scan(preop, "preop"), check_finite_scan(intraop, "intraop")}) {
    if (!finite.ok()) throw base::StatusError(finite);
  }
  PipelineResult result;
  const base::DeadlineBudget budget(config.deadline_seconds);
  // The Fig. 6 StageTiming rows are views over these root spans: each stage's
  // published duration IS the span duration, so the human timeline and the
  // exported trace can never disagree (docs/observability.md).
  obs::Span total = obs::timed_span("pipeline");
  obs::Span stage = obs::timed_span("pipeline.rigid_registration");

  // --- 1. Rigid registration: align preop data to the intraop frame. ---
  // Registration and classification run on the FEM's ranks. Each is
  // rank-count invariant (integer MI histograms, disjoint label slabs), so
  // rank 0's result is every rank's result and the serial one.
  const int nranks = config.fem.nranks;
  if (config.do_rigid_registration) {
    obs::Span sub = obs::global_span("pipeline.rigid.register_mi");
    const reg::RegistrationPyramid pyramid =
        reg::build_registration_pyramid(intraop, preop, config.rigid);
    const auto rigid = on_ranks(nranks, [&](par::Communicator& comm) {
      return reg::register_rigid_mi(pyramid, config.rigid, {}, &comm);
    });
    result.rigid = rigid.transform;
    result.rigid_mi = rigid.mutual_information;
  } else {
    result.rigid = RigidTransform{};
  }
  result.timeline.push_back({"rigid_registration", stage.close()});

  // --- Preoperative case model: reused when the handed one matches. ---
  stage = obs::timed_span("pipeline.preop_model");
  std::shared_ptr<const PreopModel> model;
  // A model built with no slot to keep it is this scan's alone: its
  // localization channels are freed right after classification and its
  // products move into the result, so a scan that keeps no model holds no
  // more memory than one that never had a model.
  std::shared_ptr<PreopModel> own;
  if (preop_model != nullptr && *preop_model != nullptr &&
      model_matches(**preop_model, result.rigid, intraop, reuse_prototypes)) {
    model = *preop_model;
    result.preop_model_reused = true;
  } else {
    // Release the stale model before its replacement is built.
    if (preop_model != nullptr) preop_model->reset();
    std::shared_ptr<PreopModel> built = build_preop_model(
        preop, preop_labels, intraop, result.rigid, config, reuse_prototypes);
    if (preop_model != nullptr) {
      *preop_model = built;
    } else {
      own = built;
    }
    model = std::move(built);
  }
  stage.attr("reused", result.preop_model_reused ? 1 : 0);
  obs::metrics()
      .counter(result.preop_model_reused ? "pipeline.preop_model.reused"
                                         : "pipeline.preop_model.built")
      .add();
  result.timeline.push_back({"preop_model", stage.close()});

  // --- 2. Tissue classification of the intraoperative scan. ---
  stage = obs::timed_span("pipeline.tissue_classification");
  {
    obs::Span sub = obs::global_span("pipeline.seg.intraop");
    const seg::FeatureStack stack =
        seg::build_feature_stack(intraop, model->localization, config.seg);
    // The model's prototypes carry this scan's reuse locations (or were
    // selected on this scan's stack), so refreshing them gives the features
    // seg::segment_intraop would.
    result.segmentation.prototypes = seg::model_prototypes(
        stack, model->aligned_preop_labels, config.seg, &model->prototypes);
    result.segmentation.labels =
        classify_on_ranks(stack, result.segmentation.prototypes, config.seg, nranks);
    result.intraop_brain_mask =
        seg::mask_of_labels(result.segmentation.labels, config.brain_labels);
  }
  if (own != nullptr) own->localization = seg::FeatureStack{};
  result.timeline.push_back({"tissue_classification", stage.close()});

  // --- 3. Surface displacement via the active surface. ---
  // Pass 1 (the model's snapped surface) relaxed the mesh boundary onto the
  // preoperative boundary; pass 2 continues onto the intraoperative one (see
  // build_preop_model for why the measurement takes two passes).
  stage = obs::timed_span("pipeline.surface_displacement");
  ImageF sdf_intra;
  {
    obs::Span sub = obs::global_span("pipeline.surface.sdf");
    sdf_intra = surface_sdf(result.segmentation.labels, config);
  }
  {
    obs::Span sub = obs::global_span("pipeline.surface.active_surface");
    result.surface_match = surface::deform_to_distance_field(
        model->snapped_surface, sdf_intra, config.active_surface);
  }
  // Re-express displacements relative to the snapped preop configuration and
  // restore the mesh-node bookkeeping of the original extraction.
  for (const mesh::VertId v : result.surface_match.displacements.ids()) {
    result.surface_match.displacements[v] =
        result.surface_match.surface.vertices[v] - model->snapped_surface.vertices[v];
  }
  result.surface_match.surface.mesh_nodes = model->preop_surface.mesh_nodes;
  // The anatomical displacement varies over centimetres; the voxel staircase
  // of the two masks injects ±1-voxel jitter. Membrane-smooth it away.
  surface::smooth_vertex_vectors(result.surface_match.surface,
                                 result.surface_match.displacements,
                                 config.surface_smoothing_iterations);
  // Everything later reads the result's copies. An unretained model is freed
  // here, before the FEM and resample stages reach their peak memory.
  if (own != nullptr) {
    take_model_products(std::move(*own), result);
  } else {
    take_model_products(*model, result);
  }
  own.reset();
  model.reset();
  result.timeline.push_back({"surface_displacement", stage.close()});

  // --- 4. Biomechanical simulation: volumetric FEM solve. ---
  stage = obs::timed_span("pipeline.biomechanical_simulation");
  const auto materials = config.heterogeneous_materials
                             ? fem::MaterialMap::heterogeneous_brain()
                             : fem::MaterialMap::homogeneous_brain();
  const auto prescribed = surface::node_displacements(result.surface_match);
  fem::DegradationOptions degrade = config.degradation;
  if (last_good != nullptr) degrade.last_good = last_good;
  // The FEM stage gets its share of whatever pipeline budget remains; the
  // ladder splits that share across its rungs. A budget that expired before
  // this stage must stay *limited* — an allotment of exactly 0.0 would read
  // as "unlimited" to DeadlineBudget and hand an overdue request a full
  // unbounded solve; clamping to an epsilon sends the ladder straight to its
  // cheap rungs instead (degrade, don't cancel — docs/service.md).
  const base::DeadlineBudget fem_budget(
      budget.limited()
          ? std::max(1e-3, budget.stage_allotment(config.fem_budget_fraction))
          : 0.0);
  auto fem_outcome = fem::solve_deformation_with_fallback(
      result.brain_mesh, materials, prescribed, config.fem, degrade, fem_budget);
  // Fail loudly when no rung produced a validated field: an unusable
  // deformation must never silently reach the visualization stage.
  if (!fem_outcome.ok()) throw base::StatusError(fem_outcome.status());
  result.fem = std::move(fem_outcome.value().deformation);
  result.degradation = std::move(fem_outcome.value().report);
  result.timeline.push_back({"biomechanical_simulation", stage.close()});
  if (result.degradation.degraded) {
    for (const auto& attempt : result.degradation.attempts) {
      result.timeline.push_back(
          {std::string("fem_fallback:") +
               fem::degradation_rung_name(attempt.rung),
           attempt.seconds});
    }
  }

  // --- 5. Visualization resample (the paper's ~0.5 s step). ---
  stage = obs::timed_span("pipeline.visualization_resample");
  ResampledFields fields = resample_for_display(
      result.brain_mesh, result.fem.node_displacements, intraop, result.aligned_preop, nranks);
  result.forward_field = std::move(fields.forward_field);
  result.backward_field = std::move(fields.backward_field);
  result.warped_preop = std::move(fields.warped_preop);
  result.timeline.push_back({"visualization_resample", stage.close()});

  result.total_seconds = total.close();
  auto& m = obs::metrics();
  m.counter("pipeline.runs").add();
  for (const auto& s : result.timeline) {
    m.gauge("pipeline." + s.name + ".seconds").set(s.seconds);
  }
  m.gauge("pipeline.total_seconds").set(result.total_seconds);
  return result;
}

}  // namespace neuro::core
