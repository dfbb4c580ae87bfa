// Synthetic brain MRI phantom.
//
// The paper evaluates on intraoperative 0.5 T MRI of two neurosurgery
// patients; patient data cannot be shipped, so this module generates a
// deterministic digital phantom with the same structure the paper's images
// have (its Fig. 4: bright skin, a dark skull/CSF gap, gray brain, dark
// lateral ventricles, a stiff falx plane, a tumor) plus an *analytic*
// brain-shift + resection deformation used to synthesize the "intraoperative"
// scan. Unlike the real data, the phantom carries its ground-truth
// deformation, so registration error becomes quantifiable (DESIGN.md §2).
//
// Geometry is a two-lobe (non-convex) brain inside an ellipsoidal head; the
// shift field models the paper's observation of the brain surface "sinking"
// under the craniotomy while the skull base stays fixed.
#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/vec3.h"
#include "image/image3d.h"
#include "image/transform.h"

namespace neuro::phantom {

/// Tissue labels. Values are stable across the library (tests, mesher and
/// pipeline all switch on them).
enum class Tissue : std::uint8_t {
  kBackground = 0,  ///< air outside the head
  kSkin = 1,        ///< scalp/fat — bright on MR
  kSkullGap = 2,    ///< skull + subarachnoid CSF — dark
  kBrain = 3,       ///< parenchyma — mid gray
  kVentricle = 4,   ///< lateral ventricles — dark
  kFalx = 5,        ///< cerebral falx — stiff membrane between hemispheres
  kTumor = 6,       ///< resection target
};

constexpr std::uint8_t label(Tissue t) { return static_cast<std::uint8_t>(t); }

/// Mean MR intensity per tissue (arbitrary units matched to an 8-bit window).
double tissue_intensity(Tissue t);

struct PhantomConfig {
  IVec3 dims{96, 96, 80};
  Vec3 spacing{2.0, 2.0, 2.0};  ///< mm; paper-era IMRI is ~1x1x2.5
  std::uint64_t seed = 42;
  double noise_sigma = 3.0;      ///< Rician noise level (intensity units)
  double intensity_drift = 0.015;  ///< scan-to-scan multiplicative drift
  bool with_tumor = true;
  bool with_falx = true;
};

/// Analytic brain-shift model. The field is expressed *backward*: for an
/// intraoperative point y, the matching preoperative point is y + v(y).
/// This makes synthesizing the intraop scan a single backward warp and gives
/// an exact ground truth for evaluation.
struct ShiftConfig {
  double max_sink_mm = 8.0;        ///< peak surface sinking under the craniotomy
  double craniotomy_sigma_mm = 35.0;  ///< lateral Gaussian extent of the shift
  /// Depth profile exponent: sinking scales with h^e where h ∈ [0,1] is the
  /// normalized height above the anchored brain base. e = 1 (linear decay
  /// with depth) is the harmonic/elastostatic profile for a slowly varying
  /// surface load; larger e concentrates the shift near the surface.
  double depth_exponent = 1.0;
  double resection_collapse_mm = 3.0; ///< extra collapse toward the cavity
  double resection_sigma_mm = 18.0;
  bool resect_tumor = true;        ///< remove the tumor (tissue loss)
};

/// Analytic geometry of one phantom instance (all physical/mm coordinates).
class BrainGeometry {
 public:
  explicit BrainGeometry(const PhantomConfig& config);

  /// Tissue at a physical point (pre-deformation anatomy).
  [[nodiscard]] Tissue tissue_at(const Vec3& p) const;

  /// Smooth "inside brain" factor in [0,1]: 1 well inside, 0 outside; used to
  /// confine the shift field to brain tissue.
  [[nodiscard]] double brain_interior_weight(const Vec3& p) const;

  /// True when p lies strictly inside the skull (inside the head, below the
  /// skin shell). The space the sinking brain vacates here fills with CSF.
  [[nodiscard]] bool inside_skull(const Vec3& p) const;

  /// Backward shift field v(y) (see ShiftConfig).
  [[nodiscard]] Vec3 shift_at(const Vec3& p, const ShiftConfig& shift) const;

  [[nodiscard]] Vec3 head_center() const { return center_; }
  [[nodiscard]] Vec3 tumor_center() const { return tumor_center_; }
  [[nodiscard]] double tumor_radius() const { return tumor_radius_; }
  [[nodiscard]] Vec3 craniotomy_center() const { return craniotomy_center_; }

 private:
  /// Normalized radial coordinate of p in an ellipsoid (1 on its surface).
  static double ellipsoid_rho(const Vec3& p, const Vec3& c, const Vec3& semi);

  PhantomConfig config_;
  Vec3 center_;
  Vec3 head_semi_;      ///< head (skin) ellipsoid semi-axes
  Vec3 lobe_offset_;    ///< +/- x offset of the two brain lobes
  Vec3 lobe_semi_;      ///< per-lobe semi-axes
  Vec3 vent_semi_;      ///< ventricle semi-axes
  Vec3 vent_offset_;
  Vec3 tumor_center_;
  double tumor_radius_ = 0.0;
  Vec3 craniotomy_center_;
};

/// A complete synthetic neurosurgery case.
struct PhantomCase {
  PhantomConfig config;
  ShiftConfig shift;

  ImageF preop;          ///< preoperative MR intensities
  ImageL preop_labels;   ///< preoperative segmentation (the "atlas")
  ImageF intraop;        ///< intraoperative MR after brain shift (+ optional rigid offset)
  ImageL intraop_labels; ///< ground-truth intraop segmentation
  ImageV true_backward_shift;  ///< v(y) on the intraop grid, physical units
  RigidTransform rigid_offset; ///< patient repositioning applied on top of the shift

  BrainGeometry geometry{PhantomConfig{}};
};

/// Generates a case. When `rigid_offset` is non-identity it is composed on
/// top of the biomechanical shift, exercising the MI rigid-registration stage.
PhantomCase make_case(const PhantomConfig& config, const ShiftConfig& shift,
                      const RigidTransform& rigid_offset = {});

/// One timepoint of a multi-scan procedure: the shift amplitudes are the
/// final ones scaled by `progress` ∈ [0,1]; the tumor counts as resected once
/// progress reaches `resection_onset` (before that the cavity terms are off).
/// Mirrors the paper's protocol of repeated scans "as the surgeon checked the
/// progress of tumor resection". A progress outside [0,1], NaN included,
/// throws base::StatusError with kInvalidArgument.
ShiftConfig shift_at_progress(const ShiftConfig& final_shift, double progress,
                              double resection_onset = 0.5);

/// A whole procedure: one shared preoperative acquisition plus one
/// intraoperative scan per `progress` entry (each with fresh noise, drift,
/// and its own `rigid_offset` composition when provided).
std::vector<PhantomCase> make_case_sequence(
    const PhantomConfig& config, const ShiftConfig& final_shift,
    const std::vector<double>& progress,
    const std::vector<RigidTransform>& rigid_offsets = {});

/// Renders labels to MR intensities (noise-free); exposed for tests.
ImageF render_intensities(const ImageL& labels);

}  // namespace neuro::phantom
