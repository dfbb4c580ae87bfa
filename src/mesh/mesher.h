// Tetrahedral mesh generation from labeled volumes.
//
// The paper implements "a tetrahedral mesh generator specifically suited for
// labeled 3D medical images … the volumetric counterpart of a marching
// tetrahedra surface generation algorithm" (its ref. [10]): the image is
// covered by a lattice of cubes, each cube is split into five tetrahedra with
// mirrored orientation on a checkerboard so neighbouring cubes share face
// diagonals (a fully connected, consistent mesh), and every tetrahedron is
// assigned the tissue label of the anatomy it samples, so "different
// biomechanical properties and parameters can easily be assigned to the
// different cells". The lattice stride controls resolution: mesh elements
// cover several image voxels, which is exactly how the paper keeps the
// equation count far below the 4e6 voxels of the scan.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image3d.h"
#include "mesh/tet_mesh.h"

namespace neuro::mesh {

struct MesherConfig {
  int stride = 4;  ///< lattice step in voxels along each axis

  /// Labels to mesh; empty means "every non-zero label".
  std::vector<std::uint8_t> keep_labels;
};

/// Meshes the labeled volume. Each tet takes the majority label of the voxels
/// at its 4 corners and nearest its centroid, the centroid breaking ties
/// (robust on thin structures). Node coordinates are physical. Tets are
/// positively oriented; nodes are numbered in lattice (x-fastest) order,
/// which gives the contiguous-slab partitions spatial coherence.
[[nodiscard]] TetMesh mesh_labeled_volume(const ImageL& labels, const MesherConfig& config);

/// Picks the largest stride (coarsest mesh) whose meshed node count is at
/// least `min_nodes`, scanning stride = max_stride … 1. Returns the mesh.
/// Used by the benches to hit the paper's equation counts (77,511 = 25,837
/// nodes; 253,308 = 84,436 nodes) on the phantom anatomy.
[[nodiscard]] TetMesh mesh_with_target_nodes(const ImageL& labels, MesherConfig config,
                               int min_nodes, int max_stride = 8);

}  // namespace neuro::mesh
