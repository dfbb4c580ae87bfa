// Parallel assembly of the global elasticity system.
//
// The decomposition is the paper's: each rank owns a contiguous block of mesh
// nodes (≈ equal counts under the default partitioner) and assembles exactly
// the matrix rows of its nodes' dofs. A rank therefore computes the element
// stiffness of every tetrahedron incident to any of its nodes — elements
// straddling a partition boundary are computed by several ranks. That keeps
// assembly communication-free (matching the paper's assembly phase, which
// shows pure compute imbalance, not communication limits) at the cost of the
// connectivity-dependent duplicated work the paper identifies as its assembly
// load imbalance.
#pragma once

#include <vector>

#include "base/strong_id.h"
#include "fem/element.h"
#include "fem/material.h"
#include "mesh/partition.h"
#include "mesh/tet_mesh.h"
#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"

namespace neuro::fem {

/// Read-only mesh connectivity shared by all ranks (built once, outside the
/// SPMD region — in the paper's setting this is the replicated mesh).
struct MeshTopology {
  base::IdVector<mesh::NodeId, std::vector<mesh::NodeId>> node_adj;  ///< sorted,
                                                                     ///< incl. self
  base::IdVector<mesh::NodeId, std::vector<mesh::TetId>> node_tets;  ///< incident
                                                                     ///< tets
  [[nodiscard]] static MeshTopology build(const mesh::TetMesh& mesh);
};

/// One rank's piece of the assembled system (rows of its dofs).
struct LocalSystem {
  solver::DistCsrMatrix A;
  solver::DistVector b;
};

/// Assembles the rank's rows of K u = f for linear elasticity with per-tet
/// materials and an optional constant body force. Collective only in the
/// trivial sense (no messages; every rank works on its own rows).
[[nodiscard]] LocalSystem assemble_elasticity(const mesh::TetMesh& mesh, const MeshTopology& topo,
                                const MaterialMap& materials,
                                const mesh::Partition& partition,
                                const Vec3& body_force, par::Communicator& comm);

}  // namespace neuro::fem
