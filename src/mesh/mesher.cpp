#include "mesh/mesher.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "base/check.h"

namespace neuro::mesh {

namespace {

// Cube corners indexed by bits (bit0 = +x, bit1 = +y, bit2 = +z).
// Five-tet decomposition with two mirror variants; adjacent cubes of opposite
// parity share matching face diagonals, making the global mesh conforming.
constexpr int kTetsEven[5][4] = {
    {0, 1, 2, 4},  // corner 0
    {3, 2, 1, 7},  // corner 3
    {5, 4, 7, 1},  // corner 5
    {6, 7, 4, 2},  // corner 6
    {1, 2, 4, 7},  // central
};
constexpr int kTetsOdd[5][4] = {
    {1, 0, 3, 5},  // corner 1
    {2, 3, 0, 6},  // corner 2
    {4, 5, 6, 0},  // corner 4
    {7, 6, 5, 3},  // corner 7
    {0, 3, 5, 6},  // central
};

}  // namespace

TetMesh mesh_labeled_volume(const ImageL& labels, const MesherConfig& config) {
  NEURO_REQUIRE(config.stride >= 1, "mesher: stride must be >= 1");
  const IVec3 d = labels.dims();
  const int s = config.stride;
  // Number of lattice points per axis; cells span [i*s, (i+1)*s] voxels.
  const IVec3 np{(d.x - 1) / s + 1, (d.y - 1) / s + 1, (d.z - 1) / s + 1};
  const IVec3 nc{np.x - 1, np.y - 1, np.z - 1};
  NEURO_REQUIRE(nc.x >= 1 && nc.y >= 1 && nc.z >= 1,
                "mesher: stride too large for volume " << d);

  auto keep = [&](std::uint8_t l) {
    if (config.keep_labels.empty()) return l != 0;
    return std::find(config.keep_labels.begin(), config.keep_labels.end(), l) !=
           config.keep_labels.end();
  };
  auto label_at_voxel = [&](int vi, int vj, int vk) {
    return labels(std::min(vi, d.x - 1), std::min(vj, d.y - 1), std::min(vk, d.z - 1));
  };

  // Lattice node id (dense over the lattice) → compacted mesh node id.
  auto lattice_id = [&](int ix, int iy, int iz) {
    return (static_cast<long long>(iz) * np.y + iy) * np.x + ix;
  };
  std::unordered_map<long long, NodeId> node_map;
  TetMesh mesh;

  std::array<IVec3, 8> corner_voxel;
  std::array<long long, 8> corner_lid;
  for (int cz = 0; cz < nc.z; ++cz) {
    for (int cy = 0; cy < nc.y; ++cy) {
      for (int cx = 0; cx < nc.x; ++cx) {
        for (int b = 0; b < 8; ++b) {
          const int ix = cx + (b & 1), iy = cy + ((b >> 1) & 1), iz = cz + ((b >> 2) & 1);
          corner_voxel[static_cast<std::size_t>(b)] = {ix * s, iy * s, iz * s};
          corner_lid[static_cast<std::size_t>(b)] = lattice_id(ix, iy, iz);
        }
        const bool even = ((cx + cy + cz) & 1) == 0;
        const auto& tets = even ? kTetsEven : kTetsOdd;

        for (const auto& tet : tets) {
          // Centroid in voxel coordinates.
          Vec3 centroid{};
          for (const int c : tet) {
            centroid += to_vec3(corner_voxel[static_cast<std::size_t>(c)]);
          }
          centroid *= 0.25;
          const std::uint8_t centroid_label =
              label_at_voxel(static_cast<int>(centroid.x + 0.5),
                             static_cast<int>(centroid.y + 0.5),
                             static_cast<int>(centroid.z + 0.5));

          // Majority over 4 corners + centroid, centroid breaking ties.
          std::uint8_t tet_label = centroid_label;
          std::map<std::uint8_t, int> votes;
          votes[centroid_label] += 1;
          for (const int c : tet) {
            const IVec3 v = corner_voxel[static_cast<std::size_t>(c)];
            ++votes[label_at_voxel(v.x, v.y, v.z)];
          }
          int best = votes[centroid_label];
          for (const auto& [l, n] : votes) {
            if (n > best) {
              best = n;
              tet_label = l;
            }
          }
          if (!keep(tet_label)) continue;

          std::array<NodeId, 4> ids{};
          for (std::size_t c = 0; c < 4; ++c) {
            const long long lid = corner_lid[static_cast<std::size_t>(tet[c])];
            auto it = node_map.find(lid);
            if (it == node_map.end()) {
              it = node_map.emplace(lid, mesh.nodes.end_id()).first;
              const IVec3 v = corner_voxel[static_cast<std::size_t>(tet[c])];
              mesh.nodes.push_back(labels.voxel_to_physical(v.x, v.y, v.z));
            }
            ids[c] = it->second;
          }
          // Enforce positive orientation (templates are consistent, but this
          // keeps the invariant independent of template bookkeeping).
          if (tet_volume(mesh.nodes[ids[0]], mesh.nodes[ids[1]], mesh.nodes[ids[2]],
                         mesh.nodes[ids[3]]) < 0.0) {
            std::swap(ids[1], ids[2]);
          }
          mesh.tets.push_back(ids);
          mesh.tet_labels.push_back(tet_label);
        }
      }
    }
  }

  // Renumber nodes into lattice (x-fastest) order so contiguous node ranges
  // are spatial slabs — this is what makes the paper's "equal node counts per
  // CPU" decomposition meaningful.
  std::vector<std::pair<long long, NodeId>> order;
  order.reserve(node_map.size());
  // NEURO_NONDET_OK(visit order is erased by the std::sort on the next line)
  for (const auto& [lid, id] : node_map) order.emplace_back(lid, id);
  std::sort(order.begin(), order.end());
  base::IdVector<NodeId, NodeId> remap(node_map.size());
  base::IdVector<NodeId, Vec3> new_nodes(node_map.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    remap[order[i].second] = NodeId{i};
    new_nodes[NodeId{i}] = mesh.nodes[order[i].second];
  }
  mesh.nodes = std::move(new_nodes);
  for (auto& tet : mesh.tets) {
    for (auto& n : tet) n = remap[n];
  }
  return mesh;
}

TetMesh mesh_with_target_nodes(const ImageL& labels, MesherConfig config,
                               int min_nodes, int max_stride) {
  NEURO_REQUIRE(min_nodes > 0 && max_stride >= 1, "mesh_with_target_nodes: bad args");
  for (int s = max_stride; s >= 1; --s) {
    config.stride = s;
    TetMesh mesh = mesh_labeled_volume(labels, config);
    if (mesh.num_nodes() >= min_nodes) return mesh;
  }
  config.stride = 1;
  return mesh_labeled_volume(labels, config);
}

}  // namespace neuro::mesh
