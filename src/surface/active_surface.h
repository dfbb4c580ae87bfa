// Active surface for brain-surface correspondence (paper §2.1.1).
//
// The paper "iteratively deforms the surface of the first brain volume to
// match that of the second volume … applying forces derived from the
// volumetric data to an elastic membrane model of the surface. The derived
// forces are a decreasing function of the data gradients, so as to be
// minimized at the edges of objects", with prior knowledge of the expected
// gray level added for robustness.
//
// Two external-force sources are provided:
//  * edge_potential_from_image(): the paper's formulation — a potential that
//    is low on strong edges whose inner gray level matches the prior;
//  * signed-distance potential from the intraoperative brain segmentation
//    (which our pipeline has anyway) — a wider capture range for the same
//    stationary points. The pipeline uses the distance field; both are
//    exercised by tests.
//
// The output is a per-vertex displacement field; because extracted surfaces
// remember their tet-mesh node ids, these displacements feed the FEM stage
// directly as Dirichlet data ("apply forces to the volumetric model that will
// produce the same displacement field at the surfaces as was obtained with
// the active surface algorithm").
#pragma once

#include <vector>

#include "image/image3d.h"
#include "mesh/tet_mesh.h"
#include "mesh/tri_surface.h"
#include "par/communicator.h"

namespace neuro::surface {

struct ActiveSurfaceConfig {
  int max_iterations = 400;
  double step = 0.4;           ///< integration step (dimensionless)
  double tension = 0.35;       ///< membrane (umbrella-Laplacian) weight
  double force_scale = 1.0;    ///< external-force weight
  double max_step_mm = 1.5;    ///< per-iteration displacement clamp
  double convergence_mm = 2e-3;  ///< stop when mean vertex motion drops below
};

struct ActiveSurfaceResult {
  mesh::TriSurface surface;  ///< deformed copy of the input
  base::IdVector<mesh::VertId, Vec3> displacements;  ///< final − initial, per vertex
  int iterations = 0;
  double final_mean_motion_mm = 0.0;
  double mean_abs_potential = 0.0;   ///< residual |potential| at vertices
};

/// Deforms `initial` down the gradient of `potential` (physical-space
/// trilinear samples) with membrane regularization. The minima of the
/// potential are the attractor surface.
///
/// The update is Jacobi-style: an iteration moves every vertex from the
/// previous iteration's positions. With a communicator the call is
/// collective: each rank moves a contiguous block of vertices, the ranks
/// gather every vertex's new position and step length, and each sums the
/// step lengths in vertex order for the stop test. Every rank returns the
/// serial result bit for bit, iteration count included, at any rank count.
ActiveSurfaceResult deform_to_potential(const mesh::TriSurface& initial,
                                        const ImageF& potential,
                                        const ActiveSurfaceConfig& config,
                                        par::Communicator* comm = nullptr);

/// Deforms `initial` onto the zero level set of a signed distance field
/// (potential = ½ d², force = −d ∇d, sampled from the distance field without
/// a potential image). Collective with a communicator, as above.
ActiveSurfaceResult deform_to_distance_field(const mesh::TriSurface& initial,
                                             const ImageF& signed_distance,
                                             const ActiveSurfaceConfig& config,
                                             par::Communicator* comm = nullptr);

/// The paper's image-derived potential: small where the gradient magnitude is
/// large *and* the local intensity matches the expected gray level of the
/// structure being tracked; large in flat or wrong-intensity regions.
/// `smoothing_sigma` (voxels) widens the basin of attraction.
ImageF edge_potential_from_image(const ImageF& image, double expected_gray,
                                 double gray_sigma, double smoothing_sigma = 2.0);

/// Converts an active-surface result into per-mesh-node prescribed
/// displacements (requires the surface to have been extracted from a mesh).
[[nodiscard]] std::vector<std::pair<mesh::NodeId, Vec3>> node_displacements(
    const ActiveSurfaceResult& result);

/// Graph-Laplacian smoothing of a per-vertex vector field:
/// d ← (1-λ) d + λ · mean(neighbour d), `iterations` times. Used to strip
/// voxel-quantization jitter out of measured surface displacements before
/// they become FEM boundary conditions — the anatomical signal varies over
/// centimetres, the segmentation jitter over one voxel.
void smooth_vertex_vectors(const mesh::TriSurface& surface,
                           base::IdVector<mesh::VertId, Vec3>& field,
                           int iterations, double lambda = 0.5);

}  // namespace neuro::surface
