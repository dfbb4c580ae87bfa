// Unit tests for the volumetric image substrate: container geometry,
// interpolation, filters, noise, I/O, rigid transforms and resampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "base/check.h"
#include "base/rng.h"
#include "image/filters.h"
#include "image/image3d.h"
#include "image/io.h"
#include "image/transform.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"
#include "reg/rigid_registration.h"

namespace neuro {
namespace {

TEST(Image3DTest, ConstructionAndFill) {
  ImageF img({4, 5, 6}, 2.5f);
  EXPECT_EQ(img.dims(), IVec3(4, 5, 6));
  EXPECT_EQ(img.size(), 120u);
  EXPECT_FLOAT_EQ(img.at(3, 4, 5), 2.5f);
  img.fill(1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
}

TEST(Image3DTest, RejectsBadDims) {
  EXPECT_THROW(ImageF({0, 4, 4}), CheckError);
  EXPECT_THROW(ImageF({4, 4, 4}, 0.0f, {0.0, 1.0, 1.0}), CheckError);
}

TEST(Image3DTest, AtBoundsChecked) {
  ImageF img({2, 2, 2});
  EXPECT_THROW(img.at(2, 0, 0), CheckError);
  EXPECT_THROW(img.at(-1, 0, 0), CheckError);
  EXPECT_NO_THROW(img.at(1, 1, 1));
}

TEST(Image3DTest, IndexIsXFastest) {
  ImageF img({3, 4, 5});
  EXPECT_EQ(img.index(1, 0, 0), 1u);
  EXPECT_EQ(img.index(0, 1, 0), 3u);
  EXPECT_EQ(img.index(0, 0, 1), 12u);
}

TEST(Image3DTest, PhysicalVoxelRoundTrip) {
  ImageF img({10, 10, 10}, 0.0f, {2.0, 3.0, 4.0}, {5.0, 6.0, 7.0});
  const Vec3 p = img.voxel_to_physical(2, 3, 4);
  EXPECT_EQ(p, Vec3(9.0, 15.0, 23.0));
  const Vec3 v = img.physical_to_voxel(p);
  EXPECT_NEAR(v.x, 2.0, 1e-12);
  EXPECT_NEAR(v.y, 3.0, 1e-12);
  EXPECT_NEAR(v.z, 4.0, 1e-12);
}

TEST(Image3DTest, ClampedReplicatesBoundary) {
  ImageF img({2, 2, 2});
  img.at(0, 0, 0) = 7.0f;
  EXPECT_FLOAT_EQ(img.clamped(-5, -1, 0), 7.0f);
}

TEST(Image3DTest, SameGridComparesGeometry) {
  ImageF a({4, 4, 4});
  ImageL b({4, 4, 4});
  EXPECT_TRUE(a.same_grid(b));
  ImageF c({4, 4, 4}, 0.0f, {2, 2, 2});
  EXPECT_FALSE(a.same_grid(c));
}

TEST(TrilinearTest, ExactOnLinearField) {
  // Trilinear interpolation must reproduce any trilinear function exactly.
  ImageF img({8, 8, 8});
  auto f = [](double x, double y, double z) { return 1.0 + 2 * x - 3 * y + 0.5 * z; };
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) img(i, j, k) = static_cast<float>(f(i, j, k));
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    const double x = rng.uniform(0, 7), y = rng.uniform(0, 7), z = rng.uniform(0, 7);
    EXPECT_NEAR(sample_trilinear(img, {x, y, z}), f(x, y, z), 1e-4);
  }
}

TEST(TrilinearTest, ClampsOutside) {
  ImageF img({2, 2, 2}, 3.0f);
  EXPECT_NEAR(sample_trilinear(img, {-10, -10, -10}), 3.0, 1e-6);
  EXPECT_NEAR(sample_trilinear(img, {10, 10, 10}), 3.0, 1e-6);
}

TEST(NearestTest, PicksNearestVoxel) {
  ImageL img({4, 4, 4}, 0);
  img.at(2, 1, 3) = 9;
  EXPECT_EQ(sample_nearest(img, Vec3{2.4, 0.6, 3.4}), 9);
  EXPECT_EQ(sample_nearest(img, Vec3{1.4, 0.6, 3.4}), 0);
}

TEST(GaussianTest, PreservesConstant) {
  ImageF img({10, 10, 10}, 4.0f);
  const ImageF out = gaussian_smooth(img, 1.5);
  for (const float v : out.data()) EXPECT_NEAR(v, 4.0f, 1e-4);
}

TEST(GaussianTest, ReducesVariance) {
  ImageF img({16, 16, 16});
  Rng rng(1);
  for (auto& v : img.data()) v = static_cast<float>(rng.uniform(0, 100));
  const ImageF out = gaussian_smooth(img, 1.0);
  auto variance = [](const ImageF& im) {
    double s = 0, s2 = 0;
    for (const float v : im.data()) {
      s += v;
      s2 += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(im.size());
    return s2 / n - (s / n) * (s / n);
  };
  EXPECT_LT(variance(out), 0.3 * variance(img));
}

// The per-voxel, per-tap Gaussian that the row-wise passes replaced, kept
// verbatim as the bit-exactness reference for gaussian_smooth.
std::vector<double> reference_gaussian_kernel(double sigma) {
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<double> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-0.5 * (i * i) / (sigma * sigma));
    k[static_cast<std::size_t>(i + radius)] = w;
    sum += w;
  }
  for (auto& w : k) w /= sum;
  return k;
}

ImageF reference_convolve_axis(const ImageF& img, const std::vector<double>& kernel,
                               int axis) {
  ImageF out(img.dims(), 0.0f, img.spacing(), img.origin());
  const IVec3 d = img.dims();
  const int radius = static_cast<int>(kernel.size() / 2);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        double acc = 0.0;
        for (int t = -radius; t <= radius; ++t) {
          const int ii = axis == 0 ? i + t : i;
          const int jj = axis == 1 ? j + t : j;
          const int kk = axis == 2 ? k + t : k;
          acc += kernel[static_cast<std::size_t>(t + radius)] *
                 static_cast<double>(img.clamped(ii, jj, kk));
        }
        out(i, j, k) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

ImageF reference_gaussian_smooth(const ImageF& img, double sigma) {
  const auto kernel = reference_gaussian_kernel(sigma);
  ImageF out = reference_convolve_axis(img, kernel, 0);
  out = reference_convolve_axis(out, kernel, 1);
  out = reference_convolve_axis(out, kernel, 2);
  return out;
}

bool bitwise_equal(const ImageF& a, const ImageF& b) {
  return a.same_grid(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

// σ 0.7 is the phantom's own smoothing, which every golden test inherits;
// 0.8 and 1.0 are the pipeline's; 2.0 has a radius of 6.
constexpr double kReferenceSigmas[] = {0.7, 0.8, 1.0, 2.0};

TEST(GaussianTest, BitIdenticalToPerVoxelLoopOnPhantom) {
  phantom::PhantomConfig pc;
  pc.dims = {37, 30, 23};
  pc.spacing = {3.0, 3.0, 3.0};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  ImageF img = phantom::render_intensities(cas.preop_labels);
  Rng rng(5);
  add_rician_noise(img, 3.0, rng);
  for (const double sigma : kReferenceSigmas) {
    EXPECT_TRUE(bitwise_equal(gaussian_smooth(img, sigma),
                              reference_gaussian_smooth(img, sigma)))
        << "sigma " << sigma;
  }
}

TEST(GaussianTest, BitIdenticalOnGridsSmallerThanTheKernel) {
  // Every radius here reaches past some extent, so the replicate boundary
  // repeats the edge voxel several times within one tap sweep.
  Rng rng(6);
  for (const IVec3 dims : {IVec3{1, 1, 1}, IVec3{2, 3, 5}, IVec3{7, 1, 4}}) {
    ImageF img(dims);
    for (auto& v : img.data()) v = static_cast<float>(rng.uniform(-50, 150));
    for (const double sigma : kReferenceSigmas) {
      EXPECT_TRUE(bitwise_equal(gaussian_smooth(img, sigma),
                                reference_gaussian_smooth(img, sigma)))
          << "dims " << dims << " sigma " << sigma;
    }
  }
}

TEST(GaussianTest, RankInvariantMatchesPerVoxelLoopAtOneToFourRanks) {
  // Uneven z and y splits, and grids with fewer planes or rows than ranks.
  // Each grid is smoothed into a separate output and in place.
  Rng rng(7);
  for (const IVec3 dims : {IVec3{1, 1, 1}, IVec3{2, 3, 5}, IVec3{7, 1, 4}, IVec3{37, 30, 23},
                           IVec3{300, 3, 6}}) {
    ImageF img(dims, 0.0f, {2.0, 1.0, 3.0}, {5.0, -4.0, 1.0});
    for (auto& v : img.data()) v = static_cast<float>(rng.uniform(-50, 150));
    for (const double sigma : kReferenceSigmas) {
      const ImageF want = reference_gaussian_smooth(img, sigma);
      for (int nranks = 1; nranks <= 4; ++nranks) {
        SCOPED_TRACE(testing::Message() << "dims " << dims << " sigma " << sigma << " ranks "
                                        << nranks);
        ImageF out(dims, -1.0f, img.spacing(), img.origin());
        ImageF in_place = img;
        par::run_spmd(nranks, [&](par::Communicator& comm) {
          gaussian_smooth(img, sigma, out, &comm);
          gaussian_smooth(in_place, sigma, in_place, &comm);
        });
        EXPECT_TRUE(bitwise_equal(out, want));
        EXPECT_TRUE(bitwise_equal(in_place, want));
      }
    }
  }
}

TEST(GradientTest, LinearRampGivesConstantGradient) {
  ImageF img({8, 8, 8}, 0.0f, {2.0, 1.0, 1.0});
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        img(i, j, k) = static_cast<float>(3.0 * i * 2.0 /*physical x*/ - 1.0 * j);
  const ImageV g = gradient(img);
  // Interior voxels see exact central differences.
  for (int k = 1; k < 7; ++k) {
    for (int j = 1; j < 7; ++j) {
      for (int i = 1; i < 7; ++i) {
        EXPECT_NEAR(g(i, j, k).x, 3.0, 1e-4);
        EXPECT_NEAR(g(i, j, k).y, -1.0, 1e-4);
        EXPECT_NEAR(g(i, j, k).z, 0.0, 1e-4);
      }
    }
  }
  const ImageF m = gradient_magnitude(img);
  EXPECT_NEAR(m(4, 4, 4), std::sqrt(10.0), 1e-4);
}

TEST(RicianNoiseTest, ZeroSigmaIsIdentity) {
  ImageF img({4, 4, 4}, 10.0f);
  Rng rng(5);
  add_rician_noise(img, 0.0, rng);
  for (const float v : img.data()) EXPECT_FLOAT_EQ(v, 10.0f);
}

TEST(RicianNoiseTest, BrightRegionStaysNearMean) {
  ImageF img({12, 12, 12}, 100.0f);
  Rng rng(5);
  add_rician_noise(img, 3.0, rng);
  double mean = 0;
  for (const float v : img.data()) mean += v;
  mean /= static_cast<double>(img.size());
  EXPECT_NEAR(mean, 100.0, 1.0);
}

TEST(RicianNoiseTest, AirBackgroundBecomesRayleigh) {
  // At zero signal the Rician distribution has mean sigma*sqrt(pi/2) > 0.
  ImageF img({12, 12, 12}, 0.0f);
  Rng rng(5);
  add_rician_noise(img, 4.0, rng);
  double mean = 0;
  for (const float v : img.data()) mean += v;
  mean /= static_cast<double>(img.size());
  EXPECT_NEAR(mean, 4.0 * std::sqrt(3.14159265 / 2.0), 0.5);
}

TEST(DriftTest, ModulatesSlices) {
  ImageF img({4, 4, 8}, 100.0f);
  apply_intensity_drift(img, 0.1);
  EXPECT_GT(img(0, 0, 0), img(0, 0, 7));  // cos ramp decreases along z
  EXPECT_NEAR(img(0, 0, 0), 110.0f, 0.5);
}

TEST(DilateTest, GrowsBySixNeighbourhood) {
  ImageL img({7, 7, 7}, 0);
  img.at(3, 3, 3) = 5;
  const ImageL d1 = dilate_label(img, 5, 1);
  EXPECT_EQ(d1.at(3, 3, 3), 1);
  EXPECT_EQ(d1.at(4, 3, 3), 1);
  EXPECT_EQ(d1.at(4, 4, 3), 0);  // diagonal excluded
  const ImageL d2 = dilate_label(img, 5, 2);
  EXPECT_EQ(d2.at(4, 4, 3), 1);
  EXPECT_EQ(d2.at(5, 3, 3), 1);
}

TEST(DifferenceTest, MadAndRms) {
  ImageF a({2, 2, 2}, 1.0f), b({2, 2, 2}, 4.0f);
  EXPECT_DOUBLE_EQ(mean_abs_difference(a, b), 3.0);
  EXPECT_DOUBLE_EQ(rms_difference(a, b), 3.0);
  ImageL mask({2, 2, 2}, 0);
  mask.at(0, 0, 0) = 1;
  b.at(0, 0, 0) = 1.0f;
  EXPECT_DOUBLE_EQ(mean_abs_difference(a, b, &mask), 0.0);
}

TEST(IoTest, FloatVolumeRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "neuro_io_f.nvol";
  ImageF img({5, 4, 3}, 0.0f, {1.5, 2.0, 2.5}, {1, 2, 3});
  Rng rng(2);
  for (auto& v : img.data()) v = static_cast<float>(rng.uniform(-10, 10));
  write_volume(path, img);
  const ImageF back = read_volume_f(path);
  EXPECT_TRUE(back.same_grid(img));
  EXPECT_EQ(back.data(), img.data());
  std::remove(path.c_str());
}

TEST(IoTest, LabelVolumeRoundTripAndTypeCheck) {
  const std::string path = std::filesystem::temp_directory_path() / "neuro_io_l.nvol";
  ImageL img({3, 3, 3}, 2);
  img.at(1, 1, 1) = 7;
  write_volume(path, img);
  const ImageL back = read_volume_l(path);
  EXPECT_EQ(back.data(), img.data());
  EXPECT_THROW(read_volume_f(path), CheckError);  // element type mismatch
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_volume_f("/nonexistent/path.nvol"), CheckError);
}

TEST(IoTest, PgmSliceWrites) {
  const std::string path = std::filesystem::temp_directory_path() / "neuro_slice.pgm";
  ImageF img({8, 8, 3}, 50.0f);
  img.at(4, 4, 1) = 200.0f;
  write_slice_pgm(path, img, 1);
  std::ifstream f(path, std::ios::binary);
  std::string magic;
  f >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
  EXPECT_THROW(write_slice_pgm(path, img, 9), CheckError);
}

TEST(RigidTransformTest, IdentityByDefault) {
  const RigidTransform t;
  const Vec3 p{1, 2, 3};
  EXPECT_EQ(t.apply(p), p);
}

TEST(RigidTransformTest, ApplyInverseUndoesApply) {
  RigidTransform t;
  t.rotation = {0.1, -0.2, 0.3};
  t.translation = {5, -2, 1};
  t.center = {10, 10, 10};
  const Vec3 p{3, 4, 5};
  const Vec3 q = t.apply_inverse(t.apply(p));
  EXPECT_NEAR(norm(q - p), 0.0, 1e-10);
}

TEST(RigidTransformTest, InverseObjectMatchesApplyInverse) {
  RigidTransform t;
  t.rotation = {0.15, 0.25, -0.1};
  t.translation = {1, 2, 3};
  t.center = {4, 5, 6};
  const RigidTransform ti = t.inverse();
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Vec3 p{rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)};
    EXPECT_NEAR(norm(ti.apply(p) - t.apply_inverse(p)), 0.0, 1e-9);
  }
}

TEST(RigidTransformTest, ParamsRoundTrip) {
  RigidTransform t;
  t.rotation = {0.1, 0.2, 0.3};
  t.translation = {4, 5, 6};
  t.center = {1, 1, 1};
  const auto p = t.params();
  const RigidTransform back = RigidTransform::from_params(p, t.center);
  EXPECT_EQ(back.rotation, t.rotation);
  EXPECT_EQ(back.translation, t.translation);
}

TEST(ResampleTest, IdentityTransformReproducesImage) {
  ImageF img({8, 8, 8});
  Rng rng(4);
  for (auto& v : img.data()) v = static_cast<float>(rng.uniform(0, 100));
  const ImageF out = resample_rigid(img, img, RigidTransform{});
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(out.data()[i], img.data()[i], 1e-3);
  }
}

TEST(ResampleTest, PureTranslationShiftsContent) {
  ImageF img({8, 8, 8}, 0.0f);
  img.at(4, 4, 4) = 100.0f;
  RigidTransform t;
  t.translation = {1, 0, 0};  // fixed point p maps to moving point p + x̂
  const ImageF out = resample_rigid(img, img, t);
  EXPECT_NEAR(out.at(3, 4, 4), 100.0f, 1e-3);
  EXPECT_NEAR(out.at(4, 4, 4), 0.0f, 1e-3);
}

TEST(ResampleTest, LabelsUseNearestNeighbour) {
  ImageL img({6, 6, 6}, 0);
  img.at(3, 3, 3) = 7;
  RigidTransform t;
  t.translation = {0.4, 0, 0};
  const ImageL out = resample_rigid_labels(img, img, t);
  EXPECT_EQ(out.at(3, 3, 3), 7);  // 3.4 rounds back to 3
}

// The serial resample loops that the z-slab forms replaced, kept verbatim as
// the bit-exactness references.
ImageF reference_resample_rigid(const ImageF& moving, const ImageF& fixed_grid,
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
          continue;
        }
        out(i, j, k) = static_cast<float>(sample_trilinear(moving, v));
      }
    }
  }
  return out;
}

ImageL reference_resample_rigid_labels(const ImageL& moving, const ImageL& fixed_grid,
                                       const RigidTransform& transform,
                                       std::uint8_t outside) {
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

TEST(ResampleTest, RankInvariantMatchesReferenceLoopAtOneToFourRanks) {
  // A rotated, shifted transform maps part of each fixed grid outside the
  // moving volume, so both the sampled and the `outside` branches run.
  phantom::PhantomConfig pc;
  pc.dims = {27, 22, 19};
  pc.spacing = {3.0, 3.5, 4.0};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  RigidTransform t;
  t.rotation = {0.05, -0.08, 0.12};
  t.translation = {6.0, -4.5, 9.0};
  t.center = {40.0, 38.0, 35.0};
  for (const IVec3 dims : {IVec3{1, 1, 1}, IVec3{2, 3, 5}, IVec3{25, 24, 17}}) {
    const ImageF fixed(dims, 0.0f, {3.2, 3.1, 4.5}, {-2.0, 1.0, 0.5});
    const ImageL fixed_labels(dims, 0, fixed.spacing(), fixed.origin());
    const ImageF want = reference_resample_rigid(cas.preop, fixed, t, -7.0f);
    const ImageL want_labels =
        reference_resample_rigid_labels(cas.preop_labels, fixed_labels, t, 200);
    EXPECT_TRUE(bitwise_equal(resample_rigid(cas.preop, fixed, t, -7.0f), want));
    EXPECT_EQ(resample_rigid_labels(cas.preop_labels, fixed_labels, t, 200).data(),
              want_labels.data());
    for (int nranks = 1; nranks <= 4; ++nranks) {
      SCOPED_TRACE(testing::Message() << "dims " << dims << " ranks " << nranks);
      ImageF out(dims, 0.0f, fixed.spacing(), fixed.origin());
      ImageL out_labels(dims, 0, fixed.spacing(), fixed.origin());
      par::run_spmd(nranks, [&](par::Communicator& comm) {
        resample_rigid(cas.preop, t, -7.0f, out, &comm);
        resample_rigid_labels(cas.preop_labels, t, 200, out_labels, &comm);
      });
      EXPECT_TRUE(bitwise_equal(out, want));
      EXPECT_EQ(out_labels.data(), want_labels.data());
    }
  }
}

TEST(DownsampleTest, HalvesDimsPreservesMean) {
  ImageF img({8, 6, 4}, 0.0f, {1, 1, 1});
  for (auto& v : img.data()) v = 10.0f;
  const ImageF out = reg::downsample2(img);
  EXPECT_EQ(out.dims(), IVec3(4, 3, 2));
  EXPECT_DOUBLE_EQ(out.spacing().x, 2.0);
  for (const float v : out.data()) EXPECT_FLOAT_EQ(v, 10.0f);
}

TEST(DownsampleTest, OddDimsFoldIntoLastBlock) {
  ImageF img({5, 5, 5}, 1.0f);
  const ImageF out = reg::downsample2(img);
  EXPECT_EQ(out.dims(), IVec3(2, 2, 2));
  for (const float v : out.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace neuro
