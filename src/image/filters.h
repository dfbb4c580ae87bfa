// Basic volumetric filters: separable Gaussian smoothing, central-difference
// gradients, and noise models. These feed the active-surface external forces
// and make the phantom's synthetic MR look like MR.
#pragma once

#include "base/rng.h"
#include "image/image3d.h"
#include "par/communicator.h"

namespace neuro {

/// Separable Gaussian smoothing with standard deviation `sigma` (in voxels).
/// Kernel radius is ceil(3*sigma); replicate boundary handling.
ImageF gaussian_smooth(const ImageF& img, double sigma);

/// gaussian_smooth written into `out`, which lies on img's grid and may be
/// `img` itself (the volume is then smoothed in place). The function above is
/// this call with an output of its own and no communicator.
///
/// With a communicator the call is collective and every rank passes the same
/// `img` and `out`: the x and y passes run on each rank's z planes and the z
/// pass on its y rows, with a barrier in between, and `out` holds the serial
/// result bit for bit, at any rank count, when the call returns on any rank.
/// The caller allocates `out` on its own thread before the rank region
/// starts: a full grid allocated in a rank thread stays in that thread's
/// malloc arena and raises peak RSS.
void gaussian_smooth(const ImageF& img, double sigma, ImageF& out, par::Communicator* comm);

/// Central-difference gradient in *physical* units (1/spacing applied).
ImageV gradient(const ImageF& img);

/// |gradient| as a scalar volume.
ImageF gradient_magnitude(const ImageF& img);

/// Adds Rician noise (the magnitude-MR noise model): each voxel becomes
/// sqrt((v + n1)^2 + n2^2) with n1, n2 ~ N(0, sigma^2). For v >> sigma this
/// approaches Gaussian noise; in air (v ~ 0) it produces the familiar
/// Rayleigh-distributed background.
void add_rician_noise(ImageF& img, double sigma, Rng& rng);

/// Multiplies the volume by a smooth multiplicative bias field
/// 1 + amplitude * cos(pi * z / dims.z), modelling the scan-to-scan intensity
/// drift the paper mentions when discussing its difference images (Fig. 4d).
void apply_intensity_drift(ImageF& img, double amplitude);

/// Binary morphology on label maps: true where `label` present within a
/// 6-neighbourhood `radius` (in voxels) — used to pad meshes and masks.
ImageL dilate_label(const ImageL& labels, std::uint8_t label, int radius);

/// Resamples a volume onto a new grid covering the same physical extent
/// (trilinear). Useful for resolution changes between acquisitions and for
/// feeding a coarser pipeline from a high-resolution scan.
ImageF resample_to_grid(const ImageF& img, IVec3 new_dims);

/// Histogram matching: monotonically remaps `moving`'s intensities so its
/// cumulative distribution matches `reference`'s (256-bin approximation).
/// Standardizes scan-to-scan intensity drift before intensity-based
/// processing (the variability the paper attributes its Fig. 4d residual to).
ImageF match_histogram(const ImageF& moving, const ImageF& reference, int bins = 256);

/// Mean of |a - b| over voxels where mask != 0 (mask may be empty = all).
double mean_abs_difference(const ImageF& a, const ImageF& b, const ImageL* mask = nullptr);

/// Root-mean-square difference over voxels where mask != 0.
double rms_difference(const ImageF& a, const ImageF& b, const ImageL* mask = nullptr);

}  // namespace neuro
