// Rigid registration by maximization of mutual information (paper §2 /
// ref. [20]): a multiresolution Powell-style optimizer over the 6 rigid
// parameters. "This method computes a global alignment accounting for
// positioning differences in the scan coordinates but does not attempt to
// correct for nonrigid deformation" — the nonrigid residual is what the
// biomechanical stage then explains.
#pragma once

#include <vector>

#include "image/image3d.h"
#include "image/transform.h"
#include "par/communicator.h"
#include "reg/mutual_information.h"

namespace neuro::reg {

struct RigidRegistrationConfig {
  MiConfig mi;
  /// Gaussian pre-smoothing (voxels) applied to both images before the
  /// metric. Suppresses interpolation-induced MI inflation: on noisy images,
  /// off-grid (rotated) sampling smooths the noise and spuriously raises MI,
  /// which otherwise rewards phantom rotations. 0 disables.
  double metric_smoothing_sigma = 1.0;
  int pyramid_levels = 2;        ///< 1 = full resolution only
  int powell_iterations = 4;     ///< sweeps over the 6-direction set
  double initial_rot_step = 0.03;   ///< rad; halved per pyramid level refinement
  double initial_trans_step = 4.0;  ///< physical units (mm)
  double tolerance = 1e-4;       ///< stop when a sweep improves MI by less
};

struct RigidRegistrationResult {
  RigidTransform transform;   ///< maps fixed-space points into moving space
  double mutual_information = 0.0;
  int metric_evaluations = 0;
  std::vector<double> level_mi;  ///< best MI per pyramid level (coarse→fine)
};

/// Downsamples an image by 2 along each axis (2x2x2 block mean); spacing is
/// doubled so physical geometry is preserved. Odd trailing samples fold into
/// the last block.
ImageF downsample2(const ImageF& img);

/// The metric-smoothed multiresolution pyramids of one fixed/moving pair
/// (index 0 = full resolution, coarsest last), with each level's MI tables.
/// Built once and only read by the optimizer, so the ranks of a parallel
/// registration share one copy.
struct RegistrationPyramid {
  std::vector<ImageF> fixed;
  std::vector<ImageF> moving;
  std::vector<MiTables> mi;  ///< per level: intensity ranges and single-bin cells
  Vec3 center;  ///< rotation center: the center of the fixed volume
};

RegistrationPyramid build_registration_pyramid(const ImageF& fixed, const ImageF& moving,
                                               const RigidRegistrationConfig& config);

/// The pyramid build_registration_pyramid gives, with every level allocated
/// on its grid and not yet filled: the buffers of the collective build below.
RegistrationPyramid registration_pyramid_grids(const ImageF& fixed, const ImageF& moving,
                                               const RigidRegistrationConfig& config);

/// build_registration_pyramid into `pyramid`, which registration_pyramid_grids
/// gave for the same images and config. The function above is this call on
/// buffers of its own with no communicator.
///
/// With a communicator the call is collective and every rank passes the same
/// `pyramid`: the ranks split the lines of the metric smoothing (the
/// collective gaussian_smooth), the z planes of each 2x downsampling and those
/// of each level's MI tables (build_mi_tables), and `pyramid` holds the
/// serial result bit for bit, at any rank count, when the call returns on any
/// rank. The caller allocates the pyramid on its own thread before the rank
/// region starts.
void build_registration_pyramid(const ImageF& fixed, const ImageF& moving,
                                const RigidRegistrationConfig& config,
                                RegistrationPyramid& pyramid, par::Communicator* comm);

/// Finds the rigid transform maximizing MI(fixed, moving ∘ T), starting from
/// `initial`. The rotation center is fixed to the center of the fixed volume.
/// With a communicator the call is collective: each MI evaluation samples a
/// slab per rank and sums integer histogram counts (MiSampler), so every rank
/// returns the serial result bit for bit, at any rank count.
RigidRegistrationResult register_rigid_mi(const RegistrationPyramid& pyramid,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial = {},
                                          par::Communicator* comm = nullptr);

/// Builds the pyramid and registers. Under SPMD prefer building the pyramid
/// once outside the parallel region and calling the overload above.
RigidRegistrationResult register_rigid_mi(const ImageF& fixed, const ImageF& moving,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial = {},
                                          par::Communicator* comm = nullptr);

}  // namespace neuro::reg
