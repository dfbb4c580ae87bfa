// Tests for the active surface: convergence onto distance-field and
// image-derived potentials, membrane smoothing, and FEM hand-off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "base/check.h"
#include "image/distance.h"
#include "image/filters.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "par/communicator.h"
#include "surface/active_surface.h"

namespace neuro::surface {
namespace {

/// Binary ball mask of radius r (voxels are unit-spaced).
ImageL ball_mask(int n, double r, Vec3 center) {
  ImageL mask({n, n, n}, 0);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        if (norm(Vec3(i, j, k) - center) <= r) mask(i, j, k) = 1;
      }
    }
  }
  return mask;
}

/// Lattice surface of a ball of radius `r`.
mesh::TriSurface ball_surface(int n, double r, Vec3 center) {
  mesh::MesherConfig cfg;
  cfg.stride = 1;
  const mesh::TetMesh mesh = mesh::mesh_labeled_volume(ball_mask(n, r, center), cfg);
  return mesh::extract_boundary_surface(mesh, {1});
}

TEST(ActiveSurfaceTest, ShrinksOntoSmallerBall) {
  // Start on a radius-10 ball, attract to a radius-7 ball: final vertices
  // must sit near radius 7.
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 10.0, c);
  ASSERT_GT(initial.num_vertices(), 50);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 7.0, c), 1, 20.0);

  ActiveSurfaceConfig cfg;
  const auto result = deform_to_distance_field(initial, sdf, cfg);
  EXPECT_GT(result.iterations, 1);
  double mean_r = 0;
  for (const auto& v : result.surface.vertices) mean_r += norm(v - c);
  mean_r /= result.surface.num_vertices();
  EXPECT_NEAR(mean_r, 7.0, 1.0);
  EXPECT_LT(result.mean_abs_potential, 1.0);  // residual distance in voxels
}

TEST(ActiveSurfaceTest, ExpandsOntoLargerBall) {
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 6.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 9.0, c), 1, 20.0);
  ActiveSurfaceConfig cfg;
  const auto result = deform_to_distance_field(initial, sdf, cfg);
  double mean_r = 0;
  for (const auto& v : result.surface.vertices) mean_r += norm(v - c);
  mean_r /= result.surface.num_vertices();
  EXPECT_NEAR(mean_r, 9.0, 1.0);
}

TEST(ActiveSurfaceTest, AlreadyConvergedSurfaceBarelyMoves) {
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 8.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 8.0, c), 1, 20.0);
  ActiveSurfaceConfig cfg;
  const auto result = deform_to_distance_field(initial, sdf, cfg);
  double max_d = 0;
  for (const auto& d : result.displacements) max_d = std::max(max_d, norm(d));
  EXPECT_LT(max_d, 1.6);  // staircase corners settle by about a voxel
}

TEST(ActiveSurfaceTest, DisplacementsEqualFinalMinusInitial) {
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 9.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 7.0, c), 1, 20.0);
  const auto result = deform_to_distance_field(initial, sdf, ActiveSurfaceConfig{});
  ASSERT_EQ(result.displacements.size(), initial.vertices.size());
  for (const mesh::VertId v : initial.vert_ids()) {
    EXPECT_NEAR(norm(result.surface.vertices[v] -
                     (initial.vertices[v] + result.displacements[v])),
                0.0, 1e-12);
  }
}

TEST(ActiveSurfaceTest, MaxStepClampHolds) {
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 10.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 5.0, c), 1, 20.0);
  ActiveSurfaceConfig cfg;
  cfg.max_iterations = 1;
  cfg.max_step_mm = 0.25;
  const auto result = deform_to_distance_field(initial, sdf, cfg);
  for (const auto& d : result.displacements) {
    EXPECT_LE(norm(d), 0.25 + 1e-12);
  }
}

TEST(ActiveSurfaceTest, TensionSmoothsNoise) {
  // With zero external force, pure membrane tension must shrink/smooth a
  // surface: total area decreases monotonically.
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 8.0, c);
  ImageF flat({25, 25, 25}, 0.0f);  // zero potential ⇒ zero external force
  ActiveSurfaceConfig cfg;
  cfg.max_iterations = 40;
  cfg.tension = 0.5;
  cfg.convergence_mm = 0.0;  // run all iterations
  const auto result = deform_to_potential(initial, flat, cfg);
  EXPECT_LT(mesh::surface_area(result.surface), mesh::surface_area(initial));
}

TEST(ActiveSurfaceTest, RejectsEmptySurface) {
  mesh::TriSurface empty;
  ImageF flat({4, 4, 4});
  EXPECT_THROW(deform_to_potential(empty, flat, ActiveSurfaceConfig{}), CheckError);
}

// The serial active surface that the vertex-block form replaced, kept
// verbatim as the bit-exactness reference: a materialized ½ d² potential
// image, a `next` buffer swapped per iteration, and the motion summed in the
// update loop.
namespace reference {

Vec3 potential_gradient(const ImageF& potential, const Vec3& p) {
  const Vec3 v = potential.physical_to_voxel(p);
  const Vec3 sp = potential.spacing();
  auto s = [&](double dx, double dy, double dz) {
    return sample_trilinear(potential, {v.x + dx, v.y + dy, v.z + dz});
  };
  return {(s(0.5, 0, 0) - s(-0.5, 0, 0)) / sp.x,
          (s(0, 0.5, 0) - s(0, -0.5, 0)) / sp.y,
          (s(0, 0, 0.5) - s(0, 0, -0.5)) / sp.z};
}

ActiveSurfaceResult run(const mesh::TriSurface& initial, const ImageF& potential,
                        const ActiveSurfaceConfig& config) {
  ActiveSurfaceResult result;
  result.surface = initial;
  const auto adjacency = mesh::surface_adjacency(initial);
  auto& verts = result.surface.vertices;
  base::IdVector<mesh::VertId, Vec3> next(verts.size());
  for (int it = 0; it < config.max_iterations; ++it) {
    double total_motion = 0.0;
    for (const mesh::VertId v : verts.ids()) {
      const Vec3& x = verts[v];
      const Vec3 ext = -1.0 * potential_gradient(potential, x);
      Vec3 lap{};
      const auto& nbrs = adjacency[v];
      if (!nbrs.empty()) {
        for (const mesh::VertId n : nbrs) lap += verts[n];
        lap = lap / static_cast<double>(nbrs.size()) - x;
      }
      Vec3 dx = config.step * (config.force_scale * ext + config.tension * lap);
      const double len = norm(dx);
      if (len > config.max_step_mm) dx *= config.max_step_mm / len;
      next[v] = x + dx;
      total_motion += norm(dx);
    }
    verts.swap(next);
    ++result.iterations;
    result.final_mean_motion_mm = total_motion / static_cast<double>(verts.size());
    if (result.final_mean_motion_mm < config.convergence_mm) break;
  }
  result.displacements.resize(verts.size());
  double abs_pot = 0.0;
  for (const mesh::VertId v : verts.ids()) {
    result.displacements[v] = verts[v] - initial.vertices[v];
    abs_pot += std::abs(sample_physical(potential, verts[v]));
  }
  result.mean_abs_potential = abs_pot / static_cast<double>(verts.size());
  return result;
}

ActiveSurfaceResult deform_to_distance_field(const mesh::TriSurface& initial,
                                             const ImageF& signed_distance,
                                             const ActiveSurfaceConfig& config) {
  ImageF potential(signed_distance.dims(), 0.0f, signed_distance.spacing(),
                   signed_distance.origin());
  for (std::size_t i = 0; i < potential.size(); ++i) {
    const double d = static_cast<double>(signed_distance.data()[i]);
    potential.data()[i] = static_cast<float>(0.5 * d * d);
  }
  ActiveSurfaceResult result = run(initial, potential, config);
  double abs_d = 0.0;
  for (const auto& v : result.surface.vertices) {
    abs_d += std::abs(sample_physical(signed_distance, v));
  }
  result.mean_abs_potential = abs_d / static_cast<double>(result.surface.vertices.size());
  return result;
}

}  // namespace reference

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool bitwise_equal(const ActiveSurfaceResult& a, const ActiveSurfaceResult& b) {
  if (a.iterations != b.iterations || !same_bits(a.final_mean_motion_mm, b.final_mean_motion_mm) ||
      !same_bits(a.mean_abs_potential, b.mean_abs_potential) ||
      a.surface.vertices.size() != b.surface.vertices.size() ||
      a.displacements.size() != b.displacements.size()) {
    return false;
  }
  for (const mesh::VertId v : a.surface.vertices.ids()) {
    if (!same_bits(a.surface.vertices[v], b.surface.vertices[v]) ||
        !same_bits(a.displacements[v], b.displacements[v])) {
      return false;
    }
  }
  return true;
}

TEST(ActiveSurfaceTest, RankInvariantMatchesReferenceLoopAtOneToFourRanks) {
  // Vertex blocks split unevenly at 3 ranks; the 4-vertex surface leaves no
  // more than one vertex per rank. One run stops early at the convergence
  // test, one runs out its iteration budget, one uses the potential form.
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface ball = ball_surface(25, 10.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 7.0, c), 1, 20.0);
  mesh::TriSurface tetra;
  for (const Vec3 p : {Vec3{10, 10, 10}, Vec3{15, 10, 11}, Vec3{11, 16, 9}, Vec3{12, 11, 15}}) {
    tetra.vertices.push_back(p);
  }
  tetra.triangles = {{mesh::VertId{0}, mesh::VertId{2}, mesh::VertId{1}},
                     {mesh::VertId{0}, mesh::VertId{1}, mesh::VertId{3}},
                     {mesh::VertId{1}, mesh::VertId{2}, mesh::VertId{3}},
                     {mesh::VertId{0}, mesh::VertId{3}, mesh::VertId{2}}};
  ActiveSurfaceConfig converge;
  ActiveSurfaceConfig budget;
  budget.max_iterations = 7;
  budget.convergence_mm = 0.0;

  struct Case {
    const char* name;
    const mesh::TriSurface* surface;
    ActiveSurfaceConfig config;
  };
  for (const Case& cs : {Case{"ball converges", &ball, converge},
                         Case{"ball budget", &ball, budget},
                         Case{"tetra converges", &tetra, converge}}) {
    const ActiveSurfaceResult want =
        reference::deform_to_distance_field(*cs.surface, sdf, cs.config);
    if (cs.config.convergence_mm > 0.0) {
      EXPECT_LT(want.iterations, cs.config.max_iterations) << cs.name;
    } else {
      EXPECT_EQ(want.iterations, cs.config.max_iterations) << cs.name;
    }
    const ImageF potential = [&] {
      ImageF p = sdf;
      for (auto& v : p.data()) v = std::abs(v);
      return p;
    }();
    const ActiveSurfaceResult want_potential =
        reference::run(*cs.surface, potential, cs.config);
    EXPECT_TRUE(bitwise_equal(deform_to_distance_field(*cs.surface, sdf, cs.config), want))
        << cs.name;
    for (int nranks = 1; nranks <= 4; ++nranks) {
      std::vector<ActiveSurfaceResult> per_rank(static_cast<std::size_t>(nranks));
      std::vector<ActiveSurfaceResult> per_rank_potential(static_cast<std::size_t>(nranks));
      par::run_spmd(nranks, [&](par::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        per_rank[r] = deform_to_distance_field(*cs.surface, sdf, cs.config, &comm);
        per_rank_potential[r] = deform_to_potential(*cs.surface, potential, cs.config, &comm);
      });
      for (int r = 0; r < nranks; ++r) {
        EXPECT_TRUE(bitwise_equal(per_rank[static_cast<std::size_t>(r)], want))
            << cs.name << " ranks " << nranks << " rank " << r;
        EXPECT_TRUE(bitwise_equal(per_rank_potential[static_cast<std::size_t>(r)],
                                  want_potential))
            << cs.name << " potential, ranks " << nranks << " rank " << r;
      }
    }
  }
}

TEST(EdgePotentialTest, MinimaOnMatchingEdges) {
  // Two-intensity step: the potential must be lowest near the edge, and a
  // wrong gray-level prior must weaken (raise) that minimum.
  ImageF img({24, 24, 24}, 20.0f);
  for (int k = 0; k < 24; ++k)
    for (int j = 0; j < 24; ++j)
      for (int i = 12; i < 24; ++i) img(i, j, k) = 120.0f;

  const ImageF pot_right = edge_potential_from_image(img, 120.0, 30.0, 1.0);
  const ImageF pot_wrong = edge_potential_from_image(img, 250.0, 10.0, 1.0);
  // Edge voxel vs flat-region voxel.
  EXPECT_LT(pot_right.at(12, 12, 12), pot_right.at(3, 12, 12));
  EXPECT_LT(pot_right.at(12, 12, 12), pot_right.at(21, 12, 12));
  // The correct prior yields a deeper minimum at the edge.
  EXPECT_LT(pot_right.at(12, 12, 12), pot_wrong.at(12, 12, 12));
}

TEST(EdgePotentialTest, SurfaceLocksOntoImageEdge) {
  // Paper-style force: drive a surface onto an intensity step using only the
  // image (no segmentation).
  const Vec3 c{12, 12, 12};
  ImageF img({25, 25, 25}, 10.0f);
  for (int k = 0; k < 25; ++k) {
    for (int j = 0; j < 25; ++j) {
      for (int i = 0; i < 25; ++i) {
        if (norm(Vec3(i, j, k) - c) <= 8.0) img(i, j, k) = 130.0f;
      }
    }
  }
  const ImageF potential = edge_potential_from_image(img, 130.0, 40.0, 1.5);
  const mesh::TriSurface initial = ball_surface(25, 10.0, c);
  ActiveSurfaceConfig cfg;
  cfg.max_iterations = 600;
  cfg.force_scale = 40.0;  // potential is O(1); amplify to voxel scale
  const auto result = deform_to_potential(initial, potential, cfg);
  double mean_r = 0;
  for (const auto& v : result.surface.vertices) mean_r += norm(v - c);
  mean_r /= result.surface.num_vertices();
  EXPECT_NEAR(mean_r, 8.0, 1.6);
}

TEST(NodeDisplacementsTest, MapsThroughMeshNodes) {
  const Vec3 c{12, 12, 12};
  const mesh::TriSurface initial = ball_surface(25, 8.0, c);
  const ImageF sdf = signed_distance_to_label(ball_mask(25, 7.0, c), 1, 20.0);
  const auto result = deform_to_distance_field(initial, sdf, ActiveSurfaceConfig{});
  const auto bcs = node_displacements(result);
  ASSERT_EQ(bcs.size(), result.displacements.size());
  for (const mesh::VertId v : initial.vert_ids()) {
    EXPECT_EQ(bcs[v.index()].first, initial.mesh_nodes[v]);
    EXPECT_EQ(norm(bcs[v.index()].second - result.displacements[v]), 0.0);
  }
}

TEST(NodeDisplacementsTest, RejectsFreeStandingSurface) {
  ActiveSurfaceResult r;
  r.surface.vertices = {{0, 0, 0}};
  r.displacements = {{1, 0, 0}};
  EXPECT_THROW(node_displacements(r), CheckError);
}

}  // namespace
}  // namespace neuro::surface
