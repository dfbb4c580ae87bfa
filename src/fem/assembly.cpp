#include "fem/assembly.h"

#include <algorithm>

#include "base/check.h"
#include "fem/dof.h"

namespace neuro::fem {

MeshTopology MeshTopology::build(const mesh::TetMesh& mesh) {
  MeshTopology topo;
  topo.node_adj = mesh::node_adjacency(mesh);
  topo.node_tets.resize(static_cast<std::size_t>(mesh.num_nodes()));
  for (const mesh::TetId t : mesh.tet_ids()) {
    for (const mesh::NodeId n : mesh.tets[t]) {
      topo.node_tets[n].push_back(t);
    }
  }
  return topo;
}

LocalSystem assemble_elasticity(const mesh::TetMesh& mesh, const MeshTopology& topo,
                                const MaterialMap& materials,
                                const mesh::Partition& partition,
                                const Vec3& body_force, par::Communicator& comm) {
  const base::IdRange<mesh::NodeId> owned = partition.ranges[comm.rank_id()];
  const auto [nb, ne] = owned;
  const int num_dofs = kDofsPerNode * mesh.num_nodes();
  const solver::RowRange dof_range = row_range_of(owned);

  // --- Sparsity: rows of owned dofs, 3x3 blocks over the node adjacency. ---
  std::vector<int> row_ptr(static_cast<std::size_t>(dof_range.size()) + 1, 0);
  std::size_t nnz = 0;
  for (mesh::NodeId n = nb; n < ne; ++n) {
    const std::size_t row_block = topo.node_adj[n].size() * 3;
    for (int c = 0; c < 3; ++c) {
      nnz += row_block;
      row_ptr[static_cast<std::size_t>(3 * (n - nb) + c) + 1] = static_cast<int>(nnz);
    }
  }
  std::vector<int> cols(nnz);
  std::vector<double> values(nnz, 0.0);
  for (mesh::NodeId n = nb; n < ne; ++n) {
    const auto& adj = topo.node_adj[n];
    for (int c = 0; c < 3; ++c) {
      int p = row_ptr[static_cast<std::size_t>(3 * (n - nb) + c)];
      for (const mesh::NodeId m : adj) {
        for (int cc = 0; cc < 3; ++cc) {
          cols[static_cast<std::size_t>(p++)] = dof_of(m, cc).value();
        }
      }
    }
  }

  // Per-row column position lookup: rows share the node's adjacency, so a
  // node-level map (neighbour → slot) serves all three of its rows.
  auto col_slot = [&](mesh::NodeId n, mesh::NodeId m) {
    const auto& adj = topo.node_adj[n];
    const auto it = std::lower_bound(adj.begin(), adj.end(), m);
    NEURO_CHECK(it != adj.end() && *it == m);
    return static_cast<int>(it - adj.begin());
  };

  solver::DistVector b(num_dofs, dof_range, 0.0);

  // --- Element loop: every tet incident to an owned node, deduplicated. ---
  std::vector<mesh::TetId> local_tets;
  for (mesh::NodeId n = nb; n < ne; ++n) {
    local_tets.insert(local_tets.end(), topo.node_tets[n].begin(),
                      topo.node_tets[n].end());
  }
  std::sort(local_tets.begin(), local_tets.end());
  local_tets.erase(std::unique(local_tets.begin(), local_tets.end()), local_tets.end());

  const bool has_body_force = norm2(body_force) > 0.0;
  for (const mesh::TetId t : local_tets) {
    const auto& tet = mesh.tets[t];
    const TetElement elem = TetElement::from_vertices(
        mesh.nodes[tet[0]], mesh.nodes[tet[1]], mesh.nodes[tet[2]],
        mesh.nodes[tet[3]]);
    const auto D = elasticity_matrix(materials.for_label(mesh.tet_labels[t]));
    const auto Ke = elem.stiffness(D);

    // Scatter only rows of owned nodes.
    for (int a = 0; a < 4; ++a) {
      const mesh::NodeId n = tet[static_cast<std::size_t>(a)];
      if (!owned.contains(n)) continue;
      for (int bnode = 0; bnode < 4; ++bnode) {
        const mesh::NodeId m = tet[static_cast<std::size_t>(bnode)];
        const int slot = col_slot(n, m);
        for (int ca = 0; ca < 3; ++ca) {
          const int row_local = 3 * (n - nb) + ca;
          const int base = row_ptr[static_cast<std::size_t>(row_local)] + 3 * slot;
          for (int cb = 0; cb < 3; ++cb) {
            values[static_cast<std::size_t>(base + cb)] +=
                Ke[static_cast<std::size_t>(12 * (3 * a + ca) + (3 * bnode + cb))];
          }
        }
      }
      if (has_body_force) {
        const auto load = elem.body_force_load(body_force);
        for (int ca = 0; ca < 3; ++ca) {
          b[row_of(dof_of(n, ca))] += load[static_cast<std::size_t>(3 * a + ca)];
        }
      }
    }
  }

  // Work accounting: stiffness evaluation dominates; scatter traffic counted
  // as memory bytes. This is the deterministic record the scaling model uses.
  comm.work().add_flops(static_cast<double>(local_tets.size()) *
                        (TetElement::kStiffnessFlops + 2.0 * 144.0));
  comm.work().add_mem_bytes(static_cast<double>(nnz) * 20.0 +
                            static_cast<double>(local_tets.size()) * 144.0 * 16.0);

  return LocalSystem{
      solver::DistCsrMatrix(num_dofs, dof_range, std::move(row_ptr), std::move(cols),
                            std::move(values)),
      std::move(b)};
}

}  // namespace neuro::fem
