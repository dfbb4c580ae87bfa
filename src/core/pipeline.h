// The intraoperative registration pipeline (paper Fig. 1 / Fig. 6).
//
// During surgery the system receives an intraoperative scan and, using the
// preoperative scan + segmentation prepared before surgery, runs:
//   rigid registration (MI) → tissue classification (k-NN with saturated-DT
//   priors) → surface displacement (active surface) → biomechanical
//   simulation (parallel FEM) → visualization resample.
// Each stage is timed, producing the paper's Fig. 6-style timeline; the FEM
// stage also returns per-rank work records for the scaling figures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "fem/deformation_solver.h"
#include "fem/degradation.h"
#include "image/image3d.h"
#include "image/transform.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "reg/rigid_registration.h"
#include "seg/intraop.h"
#include "surface/active_surface.h"

namespace neuro::core {

struct PipelineConfig {
  /// Stage toggles: skipping rigid is valid when scans share a frame (and is
  /// how the nonrigid stages are unit-tested in isolation).
  bool do_rigid_registration = true;

  reg::RigidRegistrationConfig rigid;
  seg::IntraopSegmentationConfig seg;  ///< classes default to all head tissues
  mesh::MesherConfig mesher;           ///< keep_labels defaults to brain tissues
  surface::ActiveSurfaceConfig active_surface;
  fem::DeformationSolveOptions fem;

  /// Labels that constitute "brain" for meshing and evaluation.
  std::vector<std::uint8_t> brain_labels;  ///< default: brain+ventricle+falx+tumor

  /// Labels whose union defines the surface-matching target masks. Excludes
  /// ventricle by default: a resection cavity images at ventricle-like (dark)
  /// intensity, and admitting ventricle-labeled voxels into the target mask
  /// would let a misclassified cavity bridge the sunken brain surface.
  std::vector<std::uint8_t> surface_match_labels;

  bool heterogeneous_materials = false;  ///< paper default is homogeneous
  double sdf_saturation_mm = 30.0;       ///< active-surface attraction range
  /// Laplacian smoothing sweeps applied to the measured surface displacements
  /// before they become FEM boundary conditions (voxel-jitter removal).
  int surface_smoothing_iterations = 20;

  /// Keep only the largest connected component of each surface-target mask
  /// (stray misclassified voxels otherwise become spurious SDF attractors).
  bool clean_masks = true;

  /// Wall-clock budget for the whole intraoperative pipeline (paper's ~10 s
  /// clinical constraint); 0 = unlimited. When set, the FEM stage receives
  /// `fem_budget_fraction` of whatever remains when it starts and arms the
  /// solver watchdog with it; the degradation ladder spends that budget.
  double deadline_seconds = 0.0;
  double fem_budget_fraction = 0.6;

  /// Degradation ladder configuration (fem/degradation.h). The last_good
  /// field is supplied per call by run_intraop_pipeline, not here.
  fem::DegradationOptions degradation;
};

/// Fills defaulted config fields (brain label set, seg classes, mesher keep
/// set) from the standard phantom tissue labels. Call sites with real label
/// conventions set the fields explicitly instead.
PipelineConfig default_pipeline_config();

/// One Fig. 6 timeline row. `seconds` is a view over the stage's root
/// obs::Span — the exact duration the tracer records for "pipeline.<name>" —
/// so the printed timeline and an exported trace can never disagree.
struct StageTiming {
  std::string name;
  double seconds = 0.0;
};

/// The preoperative case model: every product the pipeline derives from the
/// preoperative scan and labels for one scan. It is a function of its key —
/// the rigid transform's bits, the intraop grid, and the prototype locations
/// and labels the aligned preop scan is classified with — plus the preop
/// data and the config, which a SurgerySession never changes. In a session
/// whose scans share a frame the key repeats from scan to scan, so the
/// session hands the model of one scan to the next instead of rebuilding it
/// (docs/perf.md, "Preoperative model reuse"). Immutable once built.
struct PreopModel {
  // Key.
  RigidTransform rigid;
  IVec3 grid_dims;  ///< the intraop grid the preop data was resampled onto
  Vec3 grid_spacing;
  Vec3 grid_origin;
  /// The statistical model's recorded locations and labels; features are
  /// those of the scan that selected or last refreshed them. Classification
  /// re-reads the features at these locations, so only the locations and
  /// labels are part of the key.
  std::vector<seg::Prototype> prototypes;

  // Products.
  ImageF aligned_preop;
  ImageL aligned_preop_labels;
  /// The saturated-DT channels of aligned_preop_labels, shared by the preop
  /// and intraop feature stacks.
  seg::FeatureStack localization;
  ImageL preop_classified_labels;
  mesh::TetMesh brain_mesh;
  mesh::TriSurface preop_surface;
  /// preop_surface relaxed onto the preop classified boundary: the first
  /// active-surface pass, from which each scan's second pass starts.
  mesh::TriSurface snapped_surface;
};

struct PipelineResult {
  // Stage outputs, in pipeline order.
  RigidTransform rigid;   ///< maps intraop physical points into preop space
  double rigid_mi = 0.0;
  /// True when the scan reused the PreopModel it was handed instead of
  /// building one. aligned_preop, aligned_preop_labels,
  /// preop_classified_labels, brain_mesh and preop_surface hold that model's
  /// products either way.
  bool preop_model_reused = false;
  ImageF aligned_preop;   ///< preop resampled into the intraop frame
  ImageL aligned_preop_labels;
  seg::IntraopSegmentation segmentation;
  /// The aligned preoperative scan classified with the *same* statistical
  /// model (prototypes refreshed at their recorded locations). Matching the
  /// two surfaces between equally-biased segmentations cancels the
  /// classifier's systematic boundary offset.
  ImageL preop_classified_labels;
  ImageL intraop_brain_mask;
  mesh::TetMesh brain_mesh;
  mesh::TriSurface preop_surface;
  surface::ActiveSurfaceResult surface_match;
  fem::DeformationResult fem;
  /// How the FEM field was obtained: undegraded full solve, or which ladder
  /// rung produced it and why (fem/degradation.h).
  fem::DegradationReport degradation;
  ImageV forward_field;    ///< u: aligned-preop → intraop displacement
  ImageV backward_field;   ///< inverse, used for warping
  ImageF warped_preop;     ///< the "simulated deformation" image (Fig. 4c)

  /// Fig. 6 rows: rigid_registration, preop_model (near zero when reused),
  /// tissue_classification, surface_displacement, biomechanical_simulation,
  /// visualization_resample. When the FEM stage degraded, one extra row per
  /// ladder attempt ("fem_fallback:<rung>") follows
  /// "biomechanical_simulation"; the fault-free timeline is unchanged.
  std::vector<StageTiming> timeline;
  double total_seconds = 0.0;

  [[nodiscard]] double stage_seconds(const std::string& name) const;
};

/// kFailedPrecondition naming the first NaN or infinite voxel of `scan`
/// (`what` names the scan in the message); OK when every voxel is finite.
/// Classification and the solve are only defined on finite intensities.
[[nodiscard]] base::Status check_finite_scan(const ImageF& scan, std::string_view what);

/// The fields of the visualization resample (the paper's ~0.5 s step).
struct ResampledFields {
  ImageV forward_field;
  ImageV backward_field;
  ImageF warped_preop;
};

/// The pipeline's visualization resample on `nranks` ranks: the nodal field
/// rasterized onto `grid`, extended past the mesh, inverted, and `preop`
/// (on `grid`) warped through the inverse. Each rank owns a z-slab of every
/// phase, and the fields are bit-identical to the serial rasterize_displacements
/// → extend_displacement_field → invert_displacement_field → warp_backward
/// chain at any rank count. The `pipeline.viz.invert` span carries the
/// trilinear `samples` the inversion took and the `ranks` it ran on.
ResampledFields resample_for_display(const mesh::TetMesh& mesh,
                                     const std::vector<Vec3>& node_displacements,
                                     const ImageF& grid, const ImageF& preop, int nranks);

/// Runs the full pipeline on one intraoperative scan. When
/// `reuse_prototypes` is non-null the statistical model is not re-selected:
/// the recorded prototype locations are refreshed against the new scan (the
/// paper's automatic model update for follow-up acquisitions). `last_good`
/// (one Vec3 per mesh node, typically the previous scan's validated field)
/// arms the ladder's final rung. Throws base::StatusError with
/// kFailedPrecondition, before any work, when `preop` or `intraop` holds a
/// NaN or infinite voxel (check_finite_scan), and otherwise only when every
/// ladder rung failed — no usable field exists at all.
///
/// `preop_model`, when non-null, carries the case model between scans: on
/// entry it may hold the model of an earlier call with the same `preop`,
/// `preop_labels` and `config`; when that model matches this scan it is used
/// as is, otherwise the slot is cleared before a new model is built. On
/// return the slot holds the model this scan used. The result is the same
/// bits either way. With no slot the model is built, used and released
/// before the FEM stage.
PipelineResult run_intraop_pipeline(const ImageF& preop, const ImageL& preop_labels,
                                    const ImageF& intraop,
                                    const PipelineConfig& config,
                                    const std::vector<seg::Prototype>* reuse_prototypes
                                    = nullptr,
                                    const std::vector<Vec3>* last_good = nullptr,
                                    std::shared_ptr<const PreopModel>* preop_model
                                    = nullptr);

}  // namespace neuro::core
