#include "image/transform.h"

#include <algorithm>
#include <cmath>

namespace neuro {

RigidTransform RigidTransform::inverse() const {
  // The inverse of y = R(x-c)+c+t is x = R^T(y-c-t)+c, i.e. a rigid transform
  // with rotation R^T and translation -R^T t about the same center. We keep
  // the Euler parameterization by extracting angles from R^T.
  const Mat3 R = rotation_zyx(rotation[0], rotation[1], rotation[2]);
  const Mat3 Ri = R.transposed();
  // ZYX Euler extraction: R = Rz Ry Rx with
  //   R(2,0) = -sin(ry), R(2,1) = sin(rx) cos(ry), R(1,0) = sin(rz) cos(ry).
  RigidTransform inv;
  const double sy = -Ri(2, 0);
  const double ry = std::asin(std::clamp(sy, -1.0, 1.0));
  const double cy = std::cos(ry);
  double rx = 0.0, rz = 0.0;
  if (std::abs(cy) > 1e-12) {
    rx = std::atan2(Ri(2, 1), Ri(2, 2));
    rz = std::atan2(Ri(1, 0), Ri(0, 0));
  } else {
    rx = std::atan2(-Ri(1, 2), Ri(1, 1));
  }
  inv.rotation = {rx, ry, rz};
  const Vec3 t{translation[0], translation[1], translation[2]};
  const Vec3 ti = Ri * (-t);
  inv.translation = {ti.x, ti.y, ti.z};
  inv.center = center;
  return inv;
}

ImageF resample_rigid(const ImageF& moving, const ImageF& fixed_grid,
                      const RigidTransform& transform, float outside) {
  ImageF out(fixed_grid.dims(), outside, fixed_grid.spacing(), fixed_grid.origin());
  const IVec3 d = out.dims();
  const IVec3 md = moving.dims();
  const Mat3 R = transform.rotation_matrix();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 p_fixed = out.voxel_to_physical(i, j, k);
        const Vec3 p_moving = transform.apply(R, p_fixed);
        const Vec3 v = moving.physical_to_voxel(p_moving);
        if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
            v.z > md.z - 1) {
          continue;  // keep `outside`
        }
        out(i, j, k) = static_cast<float>(sample_trilinear(moving, v));
      }
    }
  }
  return out;
}

ImageL resample_rigid_labels(const ImageL& moving, const ImageL& fixed_grid,
                             const RigidTransform& transform, std::uint8_t outside) {
  ImageL out(fixed_grid.dims(), outside, fixed_grid.spacing(), fixed_grid.origin());
  const IVec3 d = out.dims();
  const IVec3 md = moving.dims();
  const Mat3 R = transform.rotation_matrix();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 p_fixed = out.voxel_to_physical(i, j, k);
        const Vec3 p_moving = transform.apply(R, p_fixed);
        const Vec3 v = moving.physical_to_voxel(p_moving);
        const int ii = static_cast<int>(v.x + 0.5);
        const int jj = static_cast<int>(v.y + 0.5);
        const int kk = static_cast<int>(v.z + 0.5);
        if (ii < 0 || jj < 0 || kk < 0 || ii >= md.x || jj >= md.y || kk >= md.z) {
          continue;
        }
        out(i, j, k) = moving(ii, jj, kk);
      }
    }
  }
  return out;
}

}  // namespace neuro
