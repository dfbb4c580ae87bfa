#include "core/deformation_field.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "base/check.h"
#include "base/numerics_annotations.h"
#include "image/filters.h"

namespace neuro::core {

ImageV rasterize_displacements(const mesh::TetMesh& mesh,
                               const std::vector<Vec3>& node_displacements,
                               const ImageF& grid, ImageL* support) {
  ImageV out(grid.dims(), Vec3{}, grid.spacing(), grid.origin());
  if (support != nullptr) {
    *support = ImageL(grid.dims(), 0, grid.spacing(), grid.origin());
  }
  rasterize_slab(mesh, node_displacements, out, support, 0, out.dims().z);
  return out;
}

NEURO_BITEXACT
void rasterize_slab(const mesh::TetMesh& mesh, const std::vector<Vec3>& node_displacements,
                    ImageV& out, ImageL* support, int k_begin, int k_end) {
  NEURO_REQUIRE(static_cast<int>(node_displacements.size()) == mesh.num_nodes(),
                "rasterize: displacement count != node count");
  NEURO_REQUIRE(support == nullptr || support->dims() == out.dims(),
                "rasterize: support grid mismatch");
  const IVec3 d = out.dims();
  const Vec3 sp = out.spacing();
  const Vec3 org = out.origin();

  // Scan each tet's voxel bounding box; inside-tests use barycentrics with a
  // small tolerance so faces shared between tets claim their voxels exactly
  // once (last writer wins; the field is continuous across faces anyway).
  // Every slab walks all tets in the same order, so the last writer of a
  // voxel does not depend on how the grid is split.
  constexpr double kTol = 1e-9;
  for (const mesh::TetId t : mesh.tet_ids()) {
    const auto& tet = mesh.tets[t];
    const Vec3& a = mesh.nodes[tet[0]];
    const Vec3& b = mesh.nodes[tet[1]];
    const Vec3& c = mesh.nodes[tet[2]];
    const Vec3& e = mesh.nodes[tet[3]];
    Aabb box;
    box.expand(a);
    box.expand(b);
    box.expand(c);
    box.expand(e);
    const int k0 = std::max(k_begin, static_cast<int>(std::ceil((box.lo.z - org.z) / sp.z)));
    const int k1 =
        std::min(k_end - 1, static_cast<int>(std::floor((box.hi.z - org.z) / sp.z)));
    if (k0 > k1) continue;
    const int i0 = std::max(0, static_cast<int>(std::ceil((box.lo.x - org.x) / sp.x)));
    const int j0 = std::max(0, static_cast<int>(std::ceil((box.lo.y - org.y) / sp.y)));
    const int i1 = std::min(d.x - 1, static_cast<int>(std::floor((box.hi.x - org.x) / sp.x)));
    const int j1 = std::min(d.y - 1, static_cast<int>(std::floor((box.hi.y - org.y) / sp.y)));

    for (int k = k0; k <= k1; ++k) {
      for (int j = j0; j <= j1; ++j) {
        for (int i = i0; i <= i1; ++i) {
          const Vec3 p = out.voxel_to_physical(i, j, k);
          const auto l = mesh::barycentric(a, b, c, e, p);
          if (l[0] < -kTol || l[1] < -kTol || l[2] < -kTol || l[3] < -kTol) continue;
          Vec3 u{};
          for (std::size_t v = 0; v < 4; ++v) {
            u += l[v] * node_displacements[tet[v].index()];
          }
          out(i, j, k) = u;
          if (support != nullptr) (*support)(i, j, k) = 1;
        }
      }
    }
  }
}

void extend_displacement_field(ImageV& field, const ImageL& support, int passes,
                               double decay_per_pass) {
  NEURO_REQUIRE(field.dims() == support.dims(), "extend: grid mismatch");
  NEURO_REQUIRE(passes >= 0 && decay_per_pass > 0.0 && decay_per_pass <= 1.0,
                "extend: bad parameters");
  ImageL filled = support;
  ImageL next_filled(support.dims(), 0, support.spacing(), support.origin());
  for (int pass = 0; pass < passes; ++pass) {
    extend_pass_slab(field, filled, next_filled, decay_per_pass, 0, field.dims().z);
    std::swap(filled, next_filled);
  }
}

NEURO_BITEXACT
void extend_pass_slab(ImageV& field, const ImageL& filled, ImageL& next_filled,
                      double decay_per_pass, int k_begin, int k_end) {
  NEURO_REQUIRE(filled.dims() == field.dims() && next_filled.dims() == field.dims(),
                "extend: grid mismatch");
  const IVec3 d = field.dims();
  for (int k = k_begin; k < k_end; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        if (filled(i, j, k)) {
          next_filled(i, j, k) = 1;
          continue;
        }
        Vec3 acc{};
        int n = 0;
        auto probe = [&](int ii, int jj, int kk) {
          if (ii < 0 || jj < 0 || kk < 0 || ii >= d.x || jj >= d.y || kk >= d.z) return;
          if (filled(ii, jj, kk)) {
            acc += field(ii, jj, kk);
            ++n;
          }
        };
        probe(i - 1, j, k);
        probe(i + 1, j, k);
        probe(i, j - 1, k);
        probe(i, j + 1, k);
        probe(i, j, k - 1);
        probe(i, j, k + 1);
        // Only voxels unfilled at the start of the pass are written and only
        // filled ones are read, so the pass needs no copy of the field.
        if (n > 0) field(i, j, k) = (decay_per_pass / n) * acc;
        next_filled(i, j, k) = n > 0 ? 1 : 0;
      }
    }
  }
}

ImageV invert_displacement_field(const ImageV& forward, int iterations) {
  ImageV inverse(forward.dims(), Vec3{}, forward.spacing(), forward.origin());
  invert_slab(forward, iterations, inverse, 0, forward.dims().z);
  return inverse;
}

NEURO_BITEXACT
std::int64_t invert_slab(const ImageV& forward, int iterations, ImageV& inverse,
                         int k_begin, int k_end) {
  NEURO_REQUIRE(iterations >= 1, "invert_displacement_field: iterations >= 1");
  NEURO_REQUIRE(inverse.dims() == forward.dims(), "invert: grid mismatch");
  const IVec3 d = forward.dims();
  std::int64_t samples = 0;
  for (int k = k_begin; k < k_end; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = forward.voxel_to_physical(i, j, k);
        Vec3 v{};
        Vec3 last_probe{};
        for (int it = 0; it < iterations; ++it) {
          const Vec3 probe = forward.physical_to_voxel(y + v);
          // The next iterate is a pure function of the probe point: once the
          // probe repeats bit for bit, every later iterate equals v.
          if (it > 0 && std::memcmp(&probe, &last_probe, sizeof(Vec3)) == 0) break;
          v = -1.0 * sample_trilinear_vec(forward, probe);
          last_probe = probe;
          ++samples;
        }
        inverse(i, j, k) = v;
      }
    }
  }
  return samples;
}

ImageF warp_backward(const ImageF& img, const ImageV& field, float outside) {
  NEURO_REQUIRE(img.dims() == field.dims(), "warp_backward: grid mismatch");
  ImageF out(field.dims(), outside, field.spacing(), field.origin());
  warp_backward_slab(img, field, out, 0, out.dims().z);
  return out;
}

NEURO_BITEXACT
void warp_backward_slab(const ImageF& img, const ImageV& field, ImageF& out, int k_begin,
                        int k_end) {
  NEURO_REQUIRE(img.dims() == field.dims() && out.dims() == field.dims(),
                "warp_backward: grid mismatch");
  const IVec3 d = out.dims();
  for (int k = k_begin; k < k_end; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = out.voxel_to_physical(i, j, k);
        const Vec3 src = img.physical_to_voxel(y + field(i, j, k));
        if (src.x < 0 || src.y < 0 || src.z < 0 || src.x > d.x - 1 ||
            src.y > d.y - 1 || src.z > d.z - 1) {
          continue;
        }
        out(i, j, k) = static_cast<float>(sample_trilinear(img, src));
      }
    }
  }
}

ImageL warp_backward_labels(const ImageL& labels, const ImageV& field,
                            std::uint8_t outside) {
  NEURO_REQUIRE(labels.dims() == field.dims(), "warp_backward_labels: grid mismatch");
  ImageL out(field.dims(), outside, field.spacing(), field.origin());
  const IVec3 d = out.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = out.voxel_to_physical(i, j, k);
        const Vec3 src = labels.physical_to_voxel(y + field(i, j, k));
        const int ii = static_cast<int>(src.x + 0.5);
        const int jj = static_cast<int>(src.y + 0.5);
        const int kk = static_cast<int>(src.z + 0.5);
        if (ii < 0 || jj < 0 || kk < 0 || ii >= d.x || jj >= d.y || kk >= d.z) continue;
        out(i, j, k) = labels(ii, jj, kk);
      }
    }
  }
  return out;
}

FieldStats field_stats(const ImageV& field, const ImageL* mask) {
  if (mask != nullptr) {
    NEURO_REQUIRE(mask->dims() == field.dims(), "field_stats: mask grid mismatch");
  }
  FieldStats s;
  double sum = 0.0, sum2 = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (mask != nullptr && mask->data()[i] == 0) continue;
    const double m = norm(field.data()[i]);
    sum += m;
    sum2 += m * m;
    s.max_mm = std::max(s.max_mm, m);
    ++n;
  }
  if (n > 0) {
    s.mean_mm = sum / static_cast<double>(n);
    s.rms_mm = std::sqrt(sum2 / static_cast<double>(n));
  }
  return s;
}

ImageV compose_backward_fields(const ImageV& v1, const ImageV& v2) {
  NEURO_REQUIRE(v1.dims() == v2.dims(), "compose_backward_fields: grid mismatch");
  ImageV out(v2.dims(), Vec3{}, v2.spacing(), v2.origin());
  const IVec3 d = out.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = out.voxel_to_physical(i, j, k);
        const Vec3 mid = y + v2(i, j, k);
        out(i, j, k) =
            v2(i, j, k) + sample_trilinear_vec(v1, v1.physical_to_voxel(mid));
      }
    }
  }
  return out;
}

ImageF jacobian_determinant(const ImageV& field) {
  const IVec3 d = field.dims();
  const Vec3 sp = field.spacing();
  ImageF out(d, 1.0f, sp, field.origin());
  auto at = [&](int i, int j, int k) {
    i = std::clamp(i, 0, d.x - 1);
    j = std::clamp(j, 0, d.y - 1);
    k = std::clamp(k, 0, d.z - 1);
    return field(i, j, k);
  };
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        // ∇φ = I + ∇u, central differences in physical units.
        const Vec3 dx = (at(i + 1, j, k) - at(i - 1, j, k)) / (2.0 * sp.x);
        const Vec3 dy = (at(i, j + 1, k) - at(i, j - 1, k)) / (2.0 * sp.y);
        const Vec3 dz = (at(i, j, k + 1) - at(i, j, k - 1)) / (2.0 * sp.z);
        const double a00 = 1.0 + dx.x, a01 = dy.x, a02 = dz.x;
        const double a10 = dx.y, a11 = 1.0 + dy.y, a12 = dz.y;
        const double a20 = dx.z, a21 = dy.z, a22 = 1.0 + dz.z;
        out(i, j, k) = static_cast<float>(a00 * (a11 * a22 - a12 * a21) -
                                          a01 * (a10 * a22 - a12 * a20) +
                                          a02 * (a10 * a21 - a11 * a20));
      }
    }
  }
  return out;
}

std::size_t count_folded_voxels(const ImageV& field, const ImageL* mask) {
  if (mask != nullptr) {
    NEURO_REQUIRE(mask->dims() == field.dims(), "count_folded_voxels: grid mismatch");
  }
  const ImageF jac = jacobian_determinant(field);
  std::size_t folded = 0;
  for (std::size_t i = 0; i < jac.size(); ++i) {
    if (mask != nullptr && mask->data()[i] == 0) continue;
    folded += jac.data()[i] <= 0.0f;
  }
  return folded;
}

FieldStats field_error(const ImageV& a, const ImageV& b, const ImageL* mask) {
  NEURO_REQUIRE(a.dims() == b.dims(), "field_error: grid mismatch");
  ImageV diff(a.dims(), Vec3{}, a.spacing(), a.origin());
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff.data()[i] = a.data()[i] - b.data()[i];
  }
  return field_stats(diff, mask);
}

}  // namespace neuro::core
