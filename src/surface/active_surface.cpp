#include "surface/active_surface.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "image/filters.h"

namespace neuro::surface {

namespace {

/// Central-difference gradient of a potential at a physical point, sampled
/// trilinearly in voxel space (h = half a voxel per axis). `potential(v)` is
/// the potential at continuous voxel coordinates v of `grid`.
template <typename Sample>
Vec3 potential_gradient(const ImageF& grid, const Sample& potential, const Vec3& p) {
  const Vec3 v = grid.physical_to_voxel(p);
  const Vec3 sp = grid.spacing();
  auto s = [&](double dx, double dy, double dz) {
    return potential(Vec3{v.x + dx, v.y + dy, v.z + dz});
  };
  return {(s(0.5, 0, 0) - s(-0.5, 0, 0)) / sp.x,
          (s(0, 0.5, 0) - s(0, -0.5, 0)) / sp.y,
          (s(0, 0, 0.5) - s(0, 0, -0.5)) / sp.z};
}

/// A vertex's position after an iteration and the length of the step that
/// took it there.
struct VertexStep {
  Vec3 x;
  double motion = 0.0;
};

/// The active-surface iterations over the potential `potential` samples on
/// `grid`. Fills everything but mean_abs_potential. Each rank moves its block
/// of vertices; the gathered steps update every rank's copy in vertex order.
template <typename Sample>
ActiveSurfaceResult run(const mesh::TriSurface& initial, const ImageF& grid,
                        const Sample& potential, const ActiveSurfaceConfig& config,
                        par::Communicator* comm) {
  NEURO_REQUIRE(initial.num_vertices() > 0, "active surface: empty surface");
  NEURO_REQUIRE(config.max_iterations > 0 && config.step > 0.0,
                "active surface: bad config");

  ActiveSurfaceResult result;
  result.surface = initial;
  const auto adjacency = mesh::surface_adjacency(initial);
  auto& verts = result.surface.vertices;
  const par::BlockRange mine = par::block_range(static_cast<int>(verts.size()), comm);
  std::vector<VertexStep> local(static_cast<std::size_t>(mine.end - mine.begin));
  std::vector<VertexStep> gathered;

  for (int it = 0; it < config.max_iterations; ++it) {
    for (int i = mine.begin; i < mine.end; ++i) {
      const mesh::VertId v{i};
      const Vec3& x = verts[v];

      // External: steepest descent on the potential.
      const Vec3 ext = -1.0 * potential_gradient(grid, potential, x);

      // Internal: umbrella-operator membrane tension.
      Vec3 lap{};
      const auto& nbrs = adjacency[v];
      if (!nbrs.empty()) {
        for (const mesh::VertId n : nbrs) lap += verts[n];
        lap = lap / static_cast<double>(nbrs.size()) - x;
      }

      Vec3 dx = config.step * (config.force_scale * ext + config.tension * lap);
      const double len = norm(dx);
      if (len > config.max_step_mm) dx *= config.max_step_mm / len;
      local[static_cast<std::size_t>(i - mine.begin)] = {x + dx, norm(dx)};
    }
    if (comm != nullptr) gathered = comm->allgatherv(std::span<const VertexStep>(local));
    const std::vector<VertexStep>& steps = comm != nullptr ? gathered : local;
    double total_motion = 0.0;
    for (const mesh::VertId v : verts.ids()) {
      verts[v] = steps[static_cast<std::size_t>(v.value())].x;
      total_motion += steps[static_cast<std::size_t>(v.value())].motion;
    }
    ++result.iterations;
    result.final_mean_motion_mm = total_motion / static_cast<double>(verts.size());
    if (result.final_mean_motion_mm < config.convergence_mm) break;
  }

  result.displacements.resize(verts.size());
  for (const mesh::VertId v : verts.ids()) {
    result.displacements[v] = verts[v] - initial.vertices[v];
  }
  return result;
}

/// Mean |image| sampled at the surface's vertices.
double mean_abs_at_vertices(const mesh::TriSurface& surface, const ImageF& image) {
  double sum = 0.0;
  for (const Vec3& v : surface.vertices) sum += std::abs(sample_physical(image, v));
  return sum / static_cast<double>(surface.vertices.size());
}

}  // namespace

ActiveSurfaceResult deform_to_potential(const mesh::TriSurface& initial,
                                        const ImageF& potential,
                                        const ActiveSurfaceConfig& config,
                                        par::Communicator* comm) {
  ActiveSurfaceResult result = run(
      initial, potential, [&](const Vec3& v) { return sample_trilinear(potential, v); },
      config, comm);
  result.mean_abs_potential = mean_abs_at_vertices(result.surface, potential);
  return result;
}

ActiveSurfaceResult deform_to_distance_field(const mesh::TriSurface& initial,
                                             const ImageF& signed_distance,
                                             const ActiveSurfaceConfig& config,
                                             par::Communicator* comm) {
  // potential = ½ d²: gradient = d ∇d, zero exactly on the target surface,
  // monotonically increasing away from it — a global basin of attraction.
  // Each voxel's potential is rounded to float, as an image of it would hold.
  const auto half_squared = [](float d) {
    const auto dd = static_cast<double>(d);
    return static_cast<double>(static_cast<float>(0.5 * dd * dd));
  };
  ActiveSurfaceResult result = run(
      initial, signed_distance,
      [&](const Vec3& v) { return sample_trilinear(signed_distance, v, half_squared); },
      config, comm);
  // Report the residual in distance units rather than potential units.
  result.mean_abs_potential = mean_abs_at_vertices(result.surface, signed_distance);
  return result;
}

ImageF edge_potential_from_image(const ImageF& image, double expected_gray,
                                 double gray_sigma, double smoothing_sigma) {
  NEURO_REQUIRE(gray_sigma > 0.0, "edge_potential: gray_sigma must be positive");
  // Normalized edge strength, gated by the gray-level prior evaluated on the
  // smoothed image (the structure's interior intensity near the edge).
  ImageF smooth = smoothing_sigma > 0.0 ? gaussian_smooth(image, smoothing_sigma)
                                        : image;
  ImageF gmag = gradient_magnitude(smooth);
  double gmax = 0.0;
  for (const float g : gmag.data()) gmax = std::max(gmax, static_cast<double>(g));
  if (gmax <= 0.0) gmax = 1.0;

  ImageF potential(image.dims(), 0.0f, image.spacing(), image.origin());
  for (std::size_t i = 0; i < potential.size(); ++i) {
    const double g = static_cast<double>(gmag.data()[i]) / gmax;
    const double dv = static_cast<double>(smooth.data()[i]) - expected_gray;
    const double prior = std::exp(-0.5 * dv * dv / (gray_sigma * gray_sigma));
    // Decreasing function of the gradient, gated by the prior: minima sit on
    // strong edges of the expected structure.
    potential.data()[i] = static_cast<float>(1.0 - g * (0.5 + 0.5 * prior));
  }
  if (smoothing_sigma > 0.0) {
    potential = gaussian_smooth(potential, smoothing_sigma);
  }
  return potential;
}

void smooth_vertex_vectors(const mesh::TriSurface& surface,
                           base::IdVector<mesh::VertId, Vec3>& field,
                           int iterations, double lambda) {
  NEURO_REQUIRE(field.size() == surface.vertices.size(),
                "smooth_vertex_vectors: field/vertex count mismatch");
  NEURO_REQUIRE(iterations >= 0 && lambda >= 0.0 && lambda <= 1.0,
                "smooth_vertex_vectors: bad parameters");
  const auto adjacency = mesh::surface_adjacency(surface);
  base::IdVector<mesh::VertId, Vec3> next(field.size());
  for (int it = 0; it < iterations; ++it) {
    for (const mesh::VertId v : field.ids()) {
      const auto& nbrs = adjacency[v];
      if (nbrs.empty()) {
        next[v] = field[v];
        continue;
      }
      Vec3 mean{};
      for (const mesh::VertId n : nbrs) mean += field[n];
      mean /= static_cast<double>(nbrs.size());
      next[v] = (1.0 - lambda) * field[v] + lambda * mean;
    }
    field.swap(next);
  }
}

std::vector<std::pair<mesh::NodeId, Vec3>> node_displacements(
    const ActiveSurfaceResult& result) {
  NEURO_REQUIRE(!result.surface.mesh_nodes.empty(),
                "node_displacements: surface was not extracted from a mesh");
  NEURO_CHECK(result.surface.mesh_nodes.size() == result.displacements.size());
  std::vector<std::pair<mesh::NodeId, Vec3>> out;
  out.reserve(result.displacements.size());
  for (const mesh::VertId v : result.displacements.ids()) {
    out.emplace_back(result.surface.mesh_nodes[v], result.displacements[v]);
  }
  return out;
}

}  // namespace neuro::surface
