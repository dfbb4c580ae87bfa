// Volumetric image container.
//
// Image3D<T> is the substrate the whole pipeline stands on: MR intensity
// volumes (float), label maps (uint8), distance-transform channels (float)
// and displacement fields (Vec3) are all Image3D instances. Geometry follows
// the medical-imaging convention: voxel (i,j,k) sits at physical position
// origin + spacing * (i,j,k); all algorithms work in physical coordinates so
// meshes and images with different resolutions compose correctly.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/vec3.h"

namespace neuro {

/// Dense 3-D image with isotropic-or-not spacing and a physical origin.
template <typename T>
class Image3D {
 public:
  Image3D() = default;

  Image3D(IVec3 dims, T fill = T{}, Vec3 spacing = {1, 1, 1}, Vec3 origin = {0, 0, 0})
      : dims_(dims),
        spacing_(spacing),
        origin_(origin),
        data_(static_cast<std::size_t>(dims.x) * static_cast<std::size_t>(dims.y) *
                  static_cast<std::size_t>(dims.z),
              fill) {
    NEURO_REQUIRE(dims.x > 0 && dims.y > 0 && dims.z > 0,
                  "Image3D dims must be positive, got " << dims);
    NEURO_REQUIRE(spacing.x > 0 && spacing.y > 0 && spacing.z > 0,
                  "Image3D spacing must be positive");
  }

  [[nodiscard]] IVec3 dims() const { return dims_; }
  [[nodiscard]] Vec3 spacing() const { return spacing_; }
  [[nodiscard]] Vec3 origin() const { return origin_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(dims_.x) *
               (static_cast<std::size_t>(j) +
                static_cast<std::size_t>(dims_.y) * static_cast<std::size_t>(k));
  }

  [[nodiscard]] bool contains(int i, int j, int k) const {
    return i >= 0 && j >= 0 && k >= 0 && i < dims_.x && j < dims_.y && k < dims_.z;
  }
  [[nodiscard]] bool contains(const IVec3& v) const { return contains(v.x, v.y, v.z); }

  T& at(int i, int j, int k) {
    NEURO_CHECK_MSG(contains(i, j, k),
                    "Image3D::at out of bounds (" << i << ',' << j << ',' << k
                                                  << ") dims " << dims_);
    return data_[index(i, j, k)];
  }
  const T& at(int i, int j, int k) const {
    NEURO_CHECK_MSG(contains(i, j, k),
                    "Image3D::at out of bounds (" << i << ',' << j << ',' << k
                                                  << ") dims " << dims_);
    return data_[index(i, j, k)];
  }
  T& at(const IVec3& v) { return at(v.x, v.y, v.z); }
  const T& at(const IVec3& v) const { return at(v.x, v.y, v.z); }

  /// Unchecked access for hot loops that have already validated bounds.
  T& operator()(int i, int j, int k) { return data_[index(i, j, k)]; }
  const T& operator()(int i, int j, int k) const { return data_[index(i, j, k)]; }

  /// Clamped access: coordinates are clamped to the valid range, giving
  /// replicate-boundary semantics for filters.
  [[nodiscard]] const T& clamped(int i, int j, int k) const {
    i = i < 0 ? 0 : (i >= dims_.x ? dims_.x - 1 : i);
    j = j < 0 ? 0 : (j >= dims_.y ? dims_.y - 1 : j);
    k = k < 0 ? 0 : (k >= dims_.z ? dims_.z - 1 : k);
    return data_[index(i, j, k)];
  }

  [[nodiscard]] std::vector<T>& data() { return data_; }
  [[nodiscard]] const std::vector<T>& data() const { return data_; }

  /// Physical position of voxel center (i,j,k).
  [[nodiscard]] Vec3 voxel_to_physical(const Vec3& ijk) const {
    return {origin_.x + ijk.x * spacing_.x, origin_.y + ijk.y * spacing_.y,
            origin_.z + ijk.z * spacing_.z};
  }
  [[nodiscard]] Vec3 voxel_to_physical(int i, int j, int k) const {
    return voxel_to_physical(Vec3{static_cast<double>(i), static_cast<double>(j),
                                  static_cast<double>(k)});
  }

  /// Continuous voxel coordinates of a physical point.
  [[nodiscard]] Vec3 physical_to_voxel(const Vec3& p) const {
    return {(p.x - origin_.x) / spacing_.x, (p.y - origin_.y) / spacing_.y,
            (p.z - origin_.z) / spacing_.z};
  }

  /// Fills the whole volume with `value`.
  void fill(const T& value) { data_.assign(data_.size(), value); }

  /// True when dims, spacing and origin match `other` (data may differ).
  template <typename U>
  [[nodiscard]] bool same_grid(const Image3D<U>& other) const {
    return dims_ == other.dims() && spacing_ == other.spacing() &&
           origin_ == other.origin();
  }

 private:
  IVec3 dims_{0, 0, 0};
  Vec3 spacing_{1, 1, 1};
  Vec3 origin_{0, 0, 0};
  std::vector<T> data_;
};

using ImageF = Image3D<float>;
using ImageL = Image3D<std::uint8_t>;   ///< label map
using ImageV = Image3D<Vec3>;           ///< vector field

/// Trilinear interpolation of value(voxel) at continuous voxel coordinates;
/// coordinates are clamped to the volume (replicate boundary). `value` maps a
/// voxel to the double that is interpolated, so a pointwise function of an
/// image samples as if it had been written out as an image of its own.
template <typename T, typename Value>
double sample_trilinear(const Image3D<T>& img, const Vec3& ijk, Value value) {
  const IVec3 d = img.dims();
  double x = ijk.x, y = ijk.y, z = ijk.z;
  x = x < 0 ? 0 : (x > d.x - 1 ? d.x - 1 : x);
  y = y < 0 ? 0 : (y > d.y - 1 ? d.y - 1 : y);
  z = z < 0 ? 0 : (z > d.z - 1 ? d.z - 1 : z);
  const int i0 = static_cast<int>(x), j0 = static_cast<int>(y), k0 = static_cast<int>(z);
  const int i1 = i0 + 1 < d.x ? i0 + 1 : i0;
  const int j1 = j0 + 1 < d.y ? j0 + 1 : j0;
  const int k1 = k0 + 1 < d.z ? k0 + 1 : k0;
  const double fx = x - i0, fy = y - j0, fz = z - k0;

  auto v = [&](int i, int j, int k) -> double { return value(img(i, j, k)); };
  const double c00 = v(i0, j0, k0) * (1 - fx) + v(i1, j0, k0) * fx;
  const double c10 = v(i0, j1, k0) * (1 - fx) + v(i1, j1, k0) * fx;
  const double c01 = v(i0, j0, k1) * (1 - fx) + v(i1, j0, k1) * fx;
  const double c11 = v(i0, j1, k1) * (1 - fx) + v(i1, j1, k1) * fx;
  const double c0 = c00 * (1 - fy) + c10 * fy;
  const double c1 = c01 * (1 - fy) + c11 * fy;
  return c0 * (1 - fz) + c1 * fz;
}

/// Trilinear interpolation at continuous voxel coordinates; coordinates are
/// clamped to the volume (replicate boundary). Only meaningful for arithmetic
/// pixel types.
template <typename T>
double sample_trilinear(const Image3D<T>& img, const Vec3& ijk) {
  return sample_trilinear(img, ijk, [](const T& x) { return static_cast<double>(x); });
}

/// Trilinear interpolation of a vector field at continuous voxel coordinates.
Vec3 sample_trilinear_vec(const ImageV& img, const Vec3& ijk);

/// Trilinear interpolation at a physical point.
template <typename T>
double sample_physical(const Image3D<T>& img, const Vec3& p) {
  return sample_trilinear(img, img.physical_to_voxel(p));
}

/// Nearest-neighbour sample at a physical point (for label maps).
template <typename T>
T sample_nearest(const Image3D<T>& img, const Vec3& p) {
  const Vec3 v = img.physical_to_voxel(p);
  const IVec3 d = img.dims();
  int i = static_cast<int>(v.x + 0.5), j = static_cast<int>(v.y + 0.5),
      k = static_cast<int>(v.z + 0.5);
  i = i < 0 ? 0 : (i >= d.x ? d.x - 1 : i);
  j = j < 0 ? 0 : (j >= d.y ? d.y - 1 : j);
  k = k < 0 ? 0 : (k >= d.z ? d.z - 1 : k);
  return img(i, j, k);
}

}  // namespace neuro
