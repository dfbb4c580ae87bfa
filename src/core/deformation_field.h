// Volumetric deformation fields: rasterizing the FEM solution onto the image
// grid, inverting it, and warping volumes through it.
//
// The FEM stage produces displacements at mesh nodes; "for display of the
// simulated deformation we need to resample a data set according to the
// computed deformation" (paper §3.2, the ~0.5 s step). Rasterization
// interpolates nodal displacements with the elements' linear shape functions
// (the same interpolation the FEM itself uses), the inverse is computed by
// fixed-point iteration, and warping is a backward trilinear resample.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image3d.h"
#include "mesh/tet_mesh.h"

namespace neuro::core {

/// Rasterizes per-node displacements onto `grid` (any image defines the grid;
/// its pixel data is ignored). Voxels outside every tetrahedron get zero.
/// When `support` is non-null it receives a 1/0 mask of covered voxels.
ImageV rasterize_displacements(const mesh::TetMesh& mesh,
                               const std::vector<Vec3>& node_displacements,
                               const ImageF& grid, ImageL* support = nullptr);

/// Defaults of extend_displacement_field and invert_displacement_field.
inline constexpr double kExtendDecayPerPass = 0.9;
inline constexpr int kInvertIterations = 10;

/// Extends a field beyond its support by breadth-first propagation: each pass
/// fills voxels adjacent to already-filled ones with the mean of their filled
/// neighbours scaled by `decay_per_pass`. Needed before inversion: the forward
/// FEM field ends abruptly at the brain surface, and the fixed-point inversion
/// at the brain-shift gap must see a smooth continuation (the tissue the gap
/// voxels "came from" lies just outside the mesh).
void extend_displacement_field(ImageV& field, const ImageL& support, int passes,
                               double decay_per_pass = kExtendDecayPerPass);

/// Inverts a displacement field by fixed-point iteration: returns v with
/// v(y) ≈ −u(y + v(y)), so that y + v(y) recovers the source point of y.
ImageV invert_displacement_field(const ImageV& forward,
                                 int iterations = kInvertIterations);

/// Backward warp: out(y) = img(y + field(y)) with trilinear interpolation.
/// `field` holds physical-unit displacement vectors on the output grid.
ImageF warp_backward(const ImageF& img, const ImageV& field, float outside = 0.0f);

// Slab kernels. Each function above is its kernel run over the whole grid.
// A kernel writes only the z-slices [k_begin, k_end) of its output buffers,
// which the caller allocates at full size, and reads its inputs anywhere. So
// ranks that own disjoint slabs can run one concurrently, and the union of
// their slabs is bit-identical to the whole-grid call at any split.

/// rasterize_displacements into `out` (and `support`, when non-null), both
/// zero-filled on the output grid beforehand.
void rasterize_slab(const mesh::TetMesh& mesh, const std::vector<Vec3>& node_displacements,
                    ImageV& out, ImageL* support, int k_begin, int k_end);

/// One pass of extend_displacement_field. Reads `filled` (the voxels filled
/// before the pass, anywhere on the grid) and `field` at those voxels; writes
/// `field` at the slab's newly filled voxels and `next_filled` (filled or
/// newly filled) over the whole slab. Ranks need a barrier between passes.
void extend_pass_slab(ImageV& field, const ImageL& filled, ImageL& next_filled,
                      double decay_per_pass, int k_begin, int k_end);

/// invert_displacement_field into `inverse`. A voxel's fixed-point loop stops
/// early once its probe point repeats bit for bit, since every later iterate
/// would repeat too. Returns the trilinear samples taken.
std::int64_t invert_slab(const ImageV& forward, int iterations, ImageV& inverse,
                         int k_begin, int k_end);

/// warp_backward into `out`, prefilled with the outside value.
void warp_backward_slab(const ImageF& img, const ImageV& field, ImageF& out, int k_begin,
                        int k_end);

/// Nearest-neighbour warp for label maps.
ImageL warp_backward_labels(const ImageL& labels, const ImageV& field,
                            std::uint8_t outside = 0);

/// Magnitude statistics of a vector field within an optional mask.
struct FieldStats {
  double mean_mm = 0.0;
  double max_mm = 0.0;
  double rms_mm = 0.0;
};
FieldStats field_stats(const ImageV& field, const ImageL* mask = nullptr);

/// Pointwise error between two displacement fields within an optional mask.
FieldStats field_error(const ImageV& a, const ImageV& b, const ImageL* mask = nullptr);

/// Composition of two backward fields on the same grid: if v1 maps scan-2
/// points to scan-1 space and v2 maps scan-3 points to scan-2 space, the
/// returned field maps scan-3 points directly to scan-1 space:
///   v(y) = v2(y) + v1(y + v2(y)).
/// This is how a multi-scan procedure (SurgerySession) chains incremental
/// deformations without resampling the data repeatedly.
ImageV compose_backward_fields(const ImageV& v1, const ImageV& v2);

/// det(∇φ) of the map φ(y) = y + field(y), central differences. A physically
/// valid deformation is orientation-preserving: the determinant stays
/// positive everywhere (values < 0 mean the recovered field folds tissue onto
/// itself — a diagnostic no intensity comparison can provide).
ImageF jacobian_determinant(const ImageV& field);

/// Number of voxels where det(∇φ) <= 0 within an optional mask.
std::size_t count_folded_voxels(const ImageV& field, const ImageL* mask = nullptr);

}  // namespace neuro::core
