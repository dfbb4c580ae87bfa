// Tests for connected components and the deformation-field Jacobian
// diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/deformation_field.h"
#include "image/components.h"

namespace neuro {
namespace {

TEST(ComponentsTest, EmptyMaskHasNone) {
  ImageL mask({4, 4, 4}, 0);
  EXPECT_EQ(count_components(mask), 0);
  const auto labels = connected_components(mask);
  for (const auto v : labels.data()) EXPECT_EQ(v, 0);
}

TEST(ComponentsTest, SingleBlob) {
  ImageL mask({6, 6, 6}, 0);
  for (int k = 1; k < 4; ++k)
    for (int j = 1; j < 4; ++j)
      for (int i = 1; i < 4; ++i) mask(i, j, k) = 1;
  EXPECT_EQ(count_components(mask), 1);
}

TEST(ComponentsTest, DiagonalTouchingIsSeparate) {
  // 6-connectivity: diagonal neighbours belong to different components.
  ImageL mask({4, 4, 4}, 0);
  mask.at(0, 0, 0) = 1;
  mask.at(1, 1, 0) = 1;
  EXPECT_EQ(count_components(mask), 2);
  mask.at(1, 0, 0) = 1;  // bridge them face-to-face
  EXPECT_EQ(count_components(mask), 1);
}

TEST(ComponentsTest, IdsOrderedBySize) {
  ImageL mask({10, 4, 4}, 0);
  // Big blob (6 voxels) and small blob (2 voxels), separated.
  for (int i = 0; i < 6; ++i) mask(i, 0, 0) = 1;
  mask(8, 0, 0) = mask(9, 0, 0) = 1;
  std::vector<std::size_t> sizes;
  const auto labels = connected_components(mask, &sizes);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 6u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(labels.at(0, 0, 0), 1);
  EXPECT_EQ(labels.at(9, 0, 0), 2);
}

TEST(ComponentsTest, KeepLargestDropsTheRest) {
  ImageL mask({10, 4, 4}, 0);
  for (int i = 0; i < 6; ++i) mask(i, 0, 0) = 3;  // arbitrary non-zero value
  mask(8, 0, 0) = 3;
  const ImageL cleaned = keep_largest_component(mask);
  EXPECT_EQ(cleaned.at(0, 0, 0), 3);  // original value preserved
  EXPECT_EQ(cleaned.at(8, 0, 0), 0);
}

TEST(ComponentsTest, WrapAroundRowsDoNotConnect) {
  // Voxel (last, j) and (0, j+1) are adjacent in memory but not in space.
  ImageL mask({4, 4, 1}, 0);
  mask.at(3, 0, 0) = 1;
  mask.at(0, 1, 0) = 1;
  EXPECT_EQ(count_components(mask), 2);
}

TEST(JacobianTest, ZeroFieldIsIdentity) {
  const ImageV zero({6, 6, 6});
  const ImageF jac = core::jacobian_determinant(zero);
  for (const float v : jac.data()) EXPECT_NEAR(v, 1.0f, 1e-6);
  EXPECT_EQ(core::count_folded_voxels(zero), 0u);
}

TEST(JacobianTest, UniformScalingHasAnalyticDeterminant) {
  // u = 0.1 * (p - p0): φ = p0 + 1.1 (p - p0) ⇒ det = 1.1³.
  ImageV field({10, 10, 10}, Vec3{}, {2, 2, 2});
  for (int k = 0; k < 10; ++k) {
    for (int j = 0; j < 10; ++j) {
      for (int i = 0; i < 10; ++i) {
        field(i, j, k) = 0.1 * field.voxel_to_physical(i, j, k);
      }
    }
  }
  const ImageF jac = core::jacobian_determinant(field);
  EXPECT_NEAR(jac.at(5, 5, 5), std::pow(1.1, 3.0), 1e-4);
}

TEST(JacobianTest, FoldingDetected) {
  // A reflection along x: u_x = -2x ⇒ φ_x = -x, det < 0 in the interior.
  ImageV field({8, 8, 8});
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        field(i, j, k) = Vec3{-2.0 * i, 0.0, 0.0};
      }
    }
  }
  EXPECT_GT(core::count_folded_voxels(field), 100u);
}

TEST(JacobianTest, PhysicalCompressionBelowOne) {
  // Downward squeeze u_z = -0.2 z: det = 0.8 everywhere.
  ImageV field({8, 8, 8});
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        field(i, j, k) = Vec3{0.0, 0.0, -0.2 * k};
      }
    }
  }
  const ImageF jac = core::jacobian_determinant(field);
  EXPECT_NEAR(jac.at(4, 4, 4), 0.8, 1e-6);
  EXPECT_EQ(core::count_folded_voxels(field), 0u);
}

}  // namespace
}  // namespace neuro
