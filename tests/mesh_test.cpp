// Tests for the tetrahedral mesh container, the labeled-lattice mesher
// (conformity, orientation, volume, labels), surface extraction and the
// partitioners.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "base/check.h"
#include "mesh/mesher.h"
#include "mesh/partition.h"
#include "mesh/tet_mesh.h"
#include "mesh/tri_surface.h"
#include "phantom/brain_phantom.h"

namespace neuro::mesh {
namespace {

TEST(TetGeometryTest, VolumeSignsAndMagnitude) {
  const Vec3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0}, d{0, 0, 1};
  EXPECT_NEAR(tet_volume(a, b, c, d), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(tet_volume(a, c, b, d), -1.0 / 6.0, 1e-12);  // swapped orientation
}

TEST(TetGeometryTest, BarycentricPartitionOfUnityAndVertices) {
  const Vec3 a{0, 0, 0}, b{2, 0, 0}, c{0, 2, 0}, d{0, 0, 2};
  const auto l = barycentric(a, b, c, d, {0.5, 0.5, 0.5});
  EXPECT_NEAR(l[0] + l[1] + l[2] + l[3], 1.0, 1e-12);
  for (const double li : l) EXPECT_GT(li, 0.0);
  const auto lv = barycentric(a, b, c, d, b);
  EXPECT_NEAR(lv[1], 1.0, 1e-12);
  EXPECT_NEAR(lv[0], 0.0, 1e-12);
  // Outside point has a negative coordinate.
  const auto lo = barycentric(a, b, c, d, {-1, 0, 0});
  EXPECT_LT(*std::min_element(lo.begin(), lo.end()), 0.0);
}

TEST(TetGeometryTest, QualityRegularIsOneSliverIsSmall) {
  // Regular tetrahedron.
  const double s = 1.0 / std::sqrt(2.0);
  const Vec3 a{1, 0, -s}, b{-1, 0, -s}, c{0, 1, s}, d{0, -1, s};
  EXPECT_NEAR(tet_quality_radius_ratio(a, b, c, d), 1.0, 1e-9);
  // Near-degenerate sliver.
  EXPECT_LT(tet_quality_radius_ratio({0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                                     {0.5, 0.5, 1e-4}),
            0.01);
}

ImageL solid_block(IVec3 dims, Vec3 spacing = {1, 1, 1}) {
  return ImageL(dims, 1, spacing);
}

TEST(MesherTest, SolidBlockVolumeIsExact) {
  // A fully labeled block meshes into tets that tile each lattice cell, so
  // the total volume must equal the lattice volume exactly.
  const ImageL labels = solid_block({9, 9, 9}, {2, 2, 2});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  EXPECT_EQ(mesh.num_tets(), 4 * 4 * 4 * 5);
  EXPECT_NEAR(total_volume(mesh), 16.0 * 16.0 * 16.0, 1e-9);
}

TEST(MesherTest, AllTetsPositivelyOriented) {
  const ImageL labels = solid_block({9, 9, 9});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  for (const TetId t : mesh.tet_ids()) {
    EXPECT_GT(tet_volume(mesh, t), 0.0);
  }
}

TEST(MesherTest, MeshIsConforming) {
  // Every interior face must be shared by exactly two tets and boundary faces
  // by exactly one — the "fully connected and consistent" property the paper
  // requires of its mesher. This catches parity/diagonal mismatches.
  const ImageL labels = solid_block({7, 7, 7});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);

  std::map<std::array<NodeId, 3>, int> faces;
  static constexpr int kF[4][3] = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  for (const auto& tet : mesh.tets) {
    for (const auto& f : kF) {
      std::array<NodeId, 3> key{tet[static_cast<std::size_t>(f[0])],
                                tet[static_cast<std::size_t>(f[1])],
                                tet[static_cast<std::size_t>(f[2])]};
      std::sort(key.begin(), key.end());
      ++faces[key];
    }
  }
  for (const auto& [key, count] : faces) {
    EXPECT_GE(count, 1);
    EXPECT_LE(count, 2);
  }
  // A solid block must have both interior and boundary faces.
  int boundary = 0, interior = 0;
  for (const auto& [key, count] : faces) {
    boundary += count == 1;
    interior += count == 2;
  }
  EXPECT_GT(boundary, 0);
  EXPECT_GT(interior, 0);
}

TEST(MesherTest, KeepsOnlyRequestedLabels) {
  ImageL labels({9, 9, 9}, 1);
  for (int k = 0; k < 9; ++k)
    for (int j = 0; j < 9; ++j)
      for (int i = 5; i < 9; ++i) labels(i, j, k) = 2;
  MesherConfig cfg;
  cfg.stride = 2;
  cfg.keep_labels = {2};
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  EXPECT_GT(mesh.num_tets(), 0);
  for (const auto l : mesh.tet_labels) EXPECT_EQ(l, 2);
  // Roughly half the block (majority labeling makes boundary cells fuzzy by
  // up to one cell layer).
  EXPECT_GT(total_volume(mesh), 0.25 * 8 * 8 * 8);
  EXPECT_LT(total_volume(mesh), 0.75 * 8 * 8 * 8);
}

TEST(MesherTest, BackgroundIsNeverMeshed) {
  ImageL labels({9, 9, 9}, 0);
  labels.at(4, 4, 4) = 1;  // single voxel: smaller than a cell, may vanish
  MesherConfig cfg;
  cfg.stride = 4;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  for (const auto l : mesh.tet_labels) EXPECT_NE(l, 0);
}

TEST(MesherTest, StrideControlsResolution) {
  const ImageL labels = solid_block({17, 17, 17});
  MesherConfig coarse, fine;
  coarse.stride = 4;
  fine.stride = 2;
  const int n_coarse = mesh_labeled_volume(labels, coarse).num_nodes();
  const int n_fine = mesh_labeled_volume(labels, fine).num_nodes();
  EXPECT_GT(n_fine, 4 * n_coarse);
}

TEST(MesherTest, NodesAreLatticeOrdered) {
  const ImageL labels = solid_block({5, 5, 5});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  // x-fastest ordering ⇒ z must be non-decreasing with node id.
  for (NodeId n{1}; n < mesh.nodes.end_id(); ++n) {
    EXPECT_GE(mesh.nodes[n].z + 1e-9, mesh.nodes[n - 1].z);
  }
}

TEST(MesherTest, RejectsBadStride) {
  const ImageL labels = solid_block({5, 5, 5});
  MesherConfig cfg;
  cfg.stride = 0;
  EXPECT_THROW(mesh_labeled_volume(labels, cfg), CheckError);
  cfg.stride = 100;
  EXPECT_THROW(mesh_labeled_volume(labels, cfg), CheckError);
}

TEST(MesherTest, TargetNodeSearchReachesMinimum) {
  const ImageL labels = solid_block({17, 17, 17});
  MesherConfig cfg;
  const TetMesh mesh = mesh_with_target_nodes(labels, cfg, 500, 8);
  EXPECT_GE(mesh.num_nodes(), 500);
}

TEST(MesherTest, PhantomBrainMeshLooksAnatomical) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 40};
  pcfg.spacing = {3, 3, 3};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  MesherConfig cfg;
  cfg.stride = 2;
  cfg.keep_labels = {3, 4, 5, 6};
  const TetMesh mesh = mesh_labeled_volume(cas.preop_labels, cfg);
  EXPECT_GT(mesh.num_nodes(), 100);
  // Label mix: mostly brain, some ventricle.
  std::map<std::uint8_t, int> counts;
  for (const auto l : mesh.tet_labels) ++counts[l];
  EXPECT_GT(counts[3], counts[4]);
  EXPECT_GT(counts[4], 0);
  const QualityStats q = quality_stats(mesh);
  EXPECT_GT(q.min_quality, 0.1);  // lattice tets are uniformly well-shaped
  EXPECT_GT(q.min_volume, 0.0);
}

TEST(AdjacencyTest, IncludesSelfAndNeighbours) {
  TetMesh mesh;
  mesh.nodes = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  mesh.tets = {{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}};
  mesh.tet_labels = {1};
  const auto adj = node_adjacency(mesh);
  EXPECT_EQ(adj[NodeId{0}],
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}));
  EXPECT_TRUE(adj[NodeId{4}].empty());  // isolated node
  const auto counts = node_tet_counts(mesh);
  EXPECT_EQ(counts[NodeId{0}], 1);
  EXPECT_EQ(counts[NodeId{4}], 0);
}

TEST(SurfaceTest, ExtractedSurfaceIsClosedAndOutward) {
  const ImageL labels = solid_block({7, 7, 7}, {2, 2, 2});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  const TriSurface surface = extract_boundary_surface(mesh, {1});
  EXPECT_GT(surface.num_triangles(), 0);
  EXPECT_EQ(surface.mesh_nodes.size(), surface.vertices.size());

  // Closed manifold: every edge shared by exactly two triangles.
  std::map<std::pair<VertId, VertId>, int> edges;
  for (const auto& tri : surface.triangles) {
    for (int e = 0; e < 3; ++e) {
      VertId a = tri[static_cast<std::size_t>(e)];
      VertId b = tri[static_cast<std::size_t>((e + 1) % 3)];
      if (b < a) std::swap(a, b);
      ++edges[{a, b}];
    }
  }
  for (const auto& [edge, count] : edges) EXPECT_EQ(count, 2);

  // Outward orientation: normals point away from the centroid.
  Vec3 centroid{};
  for (const auto& v : surface.vertices) centroid += v;
  centroid /= static_cast<double>(surface.num_vertices());
  const auto normals = vertex_normals(surface);
  int outward = 0;
  for (const VertId v : surface.vert_ids()) {
    if (dot(normals[v], surface.vertices[v] - centroid) > 0) {
      ++outward;
    }
  }
  EXPECT_GT(outward, surface.num_vertices() * 9 / 10);

  // Surface area close to the block's 6 faces (lattice surface is exact here).
  EXPECT_NEAR(surface_area(surface), 6.0 * 12.0 * 12.0, 1e-6);
}

TEST(SurfaceTest, MeshNodeBookkeepingIsConsistent) {
  const ImageL labels = solid_block({5, 5, 5});
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  const TriSurface surface = extract_boundary_surface(mesh, {1});
  for (const VertId v : surface.vert_ids()) {
    const NodeId n = surface.mesh_nodes[v];
    EXPECT_EQ(surface.vertices[v], mesh.nodes[n]);
  }
}

TEST(SurfaceTest, LabelSubsetSelectsInterface) {
  // Two half-blocks: the surface of label 2 alone includes the interface.
  ImageL labels({9, 9, 9}, 1);
  for (int k = 0; k < 9; ++k)
    for (int j = 0; j < 9; ++j)
      for (int i = 4; i < 9; ++i) labels(i, j, k) = 2;
  MesherConfig cfg;
  cfg.stride = 2;
  const TetMesh mesh = mesh_labeled_volume(labels, cfg);
  const TriSurface s2 = extract_boundary_surface(mesh, {2});
  const TriSurface all = extract_boundary_surface(mesh, {1, 2});
  EXPECT_GT(s2.num_triangles(), 0);
  EXPECT_GT(all.num_triangles(), s2.num_triangles());
}

TEST(PartitionTest, NodeBalancedCoversContiguously) {
  const Partition p = partition_node_balanced(103, 4);
  EXPECT_EQ(p.nranks, 4);
  NodeId covered{0};
  for (const Rank r : p.rank_ids()) {
    const auto [b, e] = p.ranges[r];
    EXPECT_EQ(b, covered);
    EXPECT_GT(e, b);
    covered = e;
    EXPECT_NEAR(p.nodes_of(r), 103.0 / 4.0, 1.1);
  }
  EXPECT_EQ(covered, NodeId{103});
}

TEST(PartitionTest, OwnerOfIsConsistent) {
  const Partition p = partition_node_balanced(50, 7);
  for (NodeId n{0}; n < NodeId{50}; ++n) {
    const Rank r = p.owner_of(n);
    const auto [b, e] = p.ranges[r];
    EXPECT_GE(n, b);
    EXPECT_LT(n, e);
  }
}

TEST(PartitionTest, SingleRankOwnsEverything) {
  const Partition p = partition_node_balanced(10, 1);
  EXPECT_EQ(p.ranges[Rank{0}], (base::IdRange<NodeId>{NodeId{0}, NodeId{10}}));
}

TEST(PartitionTest, RejectsMoreRanksThanNodes) {
  EXPECT_THROW(partition_node_balanced(3, 4), CheckError);
}

TEST(PartitionTest, WeightedBalancesWeights) {
  // Heavily skewed weights: first half weight 9, second half weight 1.
  std::vector<double> w(100, 1.0);
  for (int i = 0; i < 50; ++i) w[static_cast<std::size_t>(i)] = 9.0;
  const Partition p = partition_weighted(w, 2);
  // Balanced cut is far left of the midpoint.
  const int cut = p.ranges[Rank{0}].second.value();
  EXPECT_LT(cut, 40);
  double w0 = 0, w1 = 0;
  for (int i = 0; i < cut; ++i) w0 += w[static_cast<std::size_t>(i)];
  for (int i = cut; i < 100; ++i) w1 += w[static_cast<std::size_t>(i)];
  EXPECT_NEAR(w0, w1, 10.0);
}

TEST(PartitionTest, ConnectivityBalancedReducesWorkImbalance) {
  // Mesh the phantom brain: surface nodes touch fewer tets than interior
  // nodes, so node-balanced slabs have unequal assembly work.
  phantom::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 40};
  pcfg.spacing = {3, 3, 3};
  const auto cas = phantom::make_case(pcfg, phantom::ShiftConfig{});
  MesherConfig cfg;
  cfg.stride = 2;
  cfg.keep_labels = {3, 4, 5, 6};
  const TetMesh mesh = mesh_labeled_volume(cas.preop_labels, cfg);
  const auto counts = node_tet_counts(mesh);

  auto imbalance = [&](const Partition& p) {
    double max_w = 0, sum_w = 0;
    for (const Rank r : p.rank_ids()) {
      double w = 0;
      for (const NodeId n : p.ranges[r]) {
        w += counts[n];
      }
      max_w = std::max(max_w, w);
      sum_w += w;
    }
    return max_w / (sum_w / p.nranks);
  };

  const double node_imb = imbalance(partition_node_balanced(mesh.num_nodes(), 8));
  const double conn_imb = imbalance(partition_connectivity_balanced(mesh, 8));
  EXPECT_LT(conn_imb, node_imb + 1e-9);
  EXPECT_LT(conn_imb, 1.3);
}

TEST(PartitionTest, FreeNodeBalancedEqualizesFreeCounts) {
  // 200 nodes; the first 100 are "fixed" (zero solve work).
  TetMesh mesh;
  mesh.nodes.resize(200);
  std::vector<std::uint8_t> fixed(200, 0);
  for (int i = 0; i < 100; ++i) fixed[static_cast<std::size_t>(i)] = 1;
  const Partition p = partition_free_node_balanced(mesh, fixed, 2);
  // Fixed nodes cost ~half a free node, so rank 0 (all-fixed prefix) takes
  // more than half the nodes: 100 fixed (weight 50) + ~25 free ≈ 125 nodes.
  EXPECT_GT(p.nodes_of(Rank{0}), 115);
  int free0 = 0;
  for (const NodeId n : p.ranges[Rank{0}]) {
    free0 += fixed[n.index()] == 0;
  }
  EXPECT_NEAR(free0, 25, 6);
}

}  // namespace
}  // namespace neuro::mesh
