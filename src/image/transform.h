// Rigid transforms and resampling through them.
#pragma once

#include <array>

#include "base/mat3.h"
#include "image/image3d.h"

namespace neuro {

/// Rigid 6-dof transform y = R(rx,ry,rz) * (x - c) + c + t, rotating about a
/// fixed center c (typically the volume center, which keeps rotation and
/// translation parameters well-conditioned for the optimizer).
struct RigidTransform {
  std::array<double, 3> rotation{0, 0, 0};     ///< Euler angles rx, ry, rz (rad)
  std::array<double, 3> translation{0, 0, 0};  ///< physical units
  Vec3 center{0, 0, 0};

  [[nodiscard]] Vec3 apply(const Vec3& p) const { return apply(rotation_matrix(), p); }

  /// apply() with R = rotation_matrix() built once by the caller: loops that
  /// map many points through one transform skip the per-point trig and
  /// matrix products, and get the same bits as apply(p).
  [[nodiscard]] Vec3 apply(const Mat3& R, const Vec3& p) const {
    return R * (p - center) + center +
           Vec3{translation[0], translation[1], translation[2]};
  }

  [[nodiscard]] Mat3 rotation_matrix() const {
    return rotation_zyx(rotation[0], rotation[1], rotation[2]);
  }

  /// Inverse transform: x = R^T * (y - c - t) + c.
  [[nodiscard]] Vec3 apply_inverse(const Vec3& p) const {
    const Mat3 R = rotation_zyx(rotation[0], rotation[1], rotation[2]);
    return R.transposed() * (p - center - Vec3{translation[0], translation[1],
                                               translation[2]}) +
           center;
  }

  [[nodiscard]] RigidTransform inverse() const;

  /// Flat parameter view for the optimizer: [rx, ry, rz, tx, ty, tz].
  [[nodiscard]] std::array<double, 6> params() const {
    return {rotation[0], rotation[1], rotation[2], translation[0], translation[1],
            translation[2]};
  }
  static RigidTransform from_params(const std::array<double, 6>& p, const Vec3& center) {
    RigidTransform t;
    t.rotation = {p[0], p[1], p[2]};
    t.translation = {p[3], p[4], p[5]};
    t.center = center;
    return t;
  }
};

/// Resamples `moving` onto the grid of `fixed_grid` through `transform`
/// (mapping fixed-space points into moving space), trilinear interpolation,
/// `outside` value beyond the moving volume.
ImageF resample_rigid(const ImageF& moving, const ImageF& fixed_grid,
                      const RigidTransform& transform, float outside = 0.0f);

/// Nearest-neighbour variant for label maps.
ImageL resample_rigid_labels(const ImageL& moving, const ImageL& fixed_grid,
                             const RigidTransform& transform, std::uint8_t outside = 0);

}  // namespace neuro
