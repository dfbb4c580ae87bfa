// Tests for deformation-field rasterization, inversion, extension, warping,
// the field statistics used by the evaluation module, and the pipeline's
// rank-parallel visualization resample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "base/check.h"
#include "core/deformation_field.h"
#include "core/pipeline.h"
#include "image/filters.h"
#include "mesh/mesher.h"
#include "obs/trace.h"

namespace neuro::core {
namespace {

mesh::TetMesh block_mesh(int n = 9, double spacing = 1.0, int stride = 2) {
  ImageL labels({n, n, n}, 1, {spacing, spacing, spacing});
  mesh::MesherConfig cfg;
  cfg.stride = stride;
  return mesh::mesh_labeled_volume(labels, cfg);
}

TEST(RasterizeTest, LinearNodalFieldIsExactInside) {
  // Linear interpolation over linear tets reproduces affine fields exactly.
  const mesh::TetMesh mesh = block_mesh();
  auto affine = [](const Vec3& p) {
    return Vec3{0.1 * p.x - 0.05 * p.y, 0.2 * p.z, 0.03 * p.x + 0.01 * p.z};
  };
  std::vector<Vec3> u(static_cast<std::size_t>(mesh.num_nodes()));
  for (const mesh::NodeId n : mesh.node_ids()) {
    u[n.index()] = affine(mesh.nodes[n]);
  }
  const ImageF grid({9, 9, 9});
  ImageL support;
  const ImageV field = rasterize_displacements(mesh, u, grid, &support);
  for (int k = 0; k < 9; ++k) {
    for (int j = 0; j < 9; ++j) {
      for (int i = 0; i < 9; ++i) {
        if (i > 8 || j > 8 || k > 8) continue;
        ASSERT_EQ(support(i, j, k), 1) << i << ',' << j << ',' << k;
        EXPECT_NEAR(norm(field(i, j, k) - affine(Vec3(i, j, k))), 0.0, 1e-9);
      }
    }
  }
}

TEST(RasterizeTest, OutsideMeshIsZeroAndUnsupported) {
  const mesh::TetMesh mesh = block_mesh(5, 1.0, 2);  // occupies [0,4]^3
  std::vector<Vec3> u(static_cast<std::size_t>(mesh.num_nodes()), Vec3{1, 1, 1});
  const ImageF grid({12, 12, 12});
  ImageL support;
  const ImageV field = rasterize_displacements(mesh, u, grid, &support);
  EXPECT_EQ(support(10, 10, 10), 0);
  EXPECT_EQ(norm(field(10, 10, 10)), 0.0);
  EXPECT_EQ(support(2, 2, 2), 1);
}

TEST(RasterizeTest, RejectsWrongCount) {
  const mesh::TetMesh mesh = block_mesh();
  const ImageF grid({9, 9, 9});
  std::vector<Vec3> u(3);
  EXPECT_THROW(rasterize_displacements(mesh, u, grid), CheckError);
}

TEST(InvertTest, InvertsSmoothField) {
  // Smooth analytic field with max displacement ~2 voxels; the fixed-point
  // inverse must satisfy |u(y + v(y)) + v(y)| ≈ 0.
  ImageV forward({20, 20, 20});
  for (int k = 0; k < 20; ++k) {
    for (int j = 0; j < 20; ++j) {
      for (int i = 0; i < 20; ++i) {
        const double w = std::exp(-0.02 * (norm2(Vec3(i - 10, j - 10, k - 10))));
        forward(i, j, k) = Vec3{2.0 * w, -1.5 * w, 1.0 * w};
      }
    }
  }
  const ImageV inverse = invert_displacement_field(forward, 20);
  for (int k = 4; k < 16; ++k) {
    for (int j = 4; j < 16; ++j) {
      for (int i = 4; i < 16; ++i) {
        const Vec3 y{static_cast<double>(i), static_cast<double>(j),
                     static_cast<double>(k)};
        const Vec3 v = inverse(i, j, k);
        const Vec3 u = sample_trilinear_vec(forward, y + v);
        EXPECT_LT(norm(u + v), 0.08) << i << ',' << j << ',' << k;
      }
    }
  }
}

TEST(InvertTest, ZeroFieldInvertsToZero) {
  ImageV zero({6, 6, 6});
  const ImageV inv = invert_displacement_field(zero);
  for (const auto& v : inv.data()) EXPECT_EQ(norm(v), 0.0);
}

TEST(ExtendTest, PropagatesWithDecay) {
  ImageV field({9, 9, 9});
  ImageL support({9, 9, 9}, 0);
  field(4, 4, 4) = Vec3{10, 0, 0};
  support(4, 4, 4) = 1;
  extend_displacement_field(field, support, 2, 0.5);
  EXPECT_NEAR(field(5, 4, 4).x, 5.0, 1e-12);   // one pass: 10 * 0.5
  EXPECT_NEAR(field(6, 4, 4).x, 2.5, 1e-12);   // two passes
  EXPECT_EQ(norm(field(8, 4, 4)), 0.0);        // beyond reach
  // Support voxels untouched.
  EXPECT_NEAR(field(4, 4, 4).x, 10.0, 1e-12);
}

TEST(ExtendTest, ZeroPassesIsNoop) {
  ImageV field({5, 5, 5});
  ImageL support({5, 5, 5}, 0);
  field(2, 2, 2) = Vec3{1, 2, 3};
  support(2, 2, 2) = 1;
  extend_displacement_field(field, support, 0);
  EXPECT_EQ(norm(field(3, 2, 2)), 0.0);
}

TEST(WarpTest, ZeroFieldIsIdentity) {
  ImageF img({8, 8, 8});
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = static_cast<float>(i % 97);
  }
  const ImageV zero({8, 8, 8});
  const ImageF out = warp_backward(img, zero);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(out.data()[i], img.data()[i], 1e-4);
  }
}

TEST(WarpTest, ConstantShiftMovesContent) {
  ImageF img({10, 10, 10}, 0.0f);
  img.at(6, 5, 5) = 100.0f;
  ImageV field({10, 10, 10}, Vec3{1, 0, 0});  // out(y) = img(y + x̂)
  const ImageF out = warp_backward(img, field);
  EXPECT_NEAR(out.at(5, 5, 5), 100.0f, 1e-3);
  EXPECT_NEAR(out.at(6, 5, 5), 0.0f, 1e-3);
}

TEST(WarpTest, LabelsNearestNeighbour) {
  ImageL labels({8, 8, 8}, 0);
  labels.at(4, 4, 4) = 7;
  ImageV field({8, 8, 8}, Vec3{0.4, 0, 0});
  const ImageL out = warp_backward_labels(labels, field);
  EXPECT_EQ(out.at(4, 4, 4), 7);  // rounds back
  ImageV big({8, 8, 8}, Vec3{1.0, 0, 0});
  EXPECT_EQ(warp_backward_labels(labels, big).at(3, 4, 4), 7);
}

TEST(WarpTest, OutsideSourceGetsFillValue) {
  ImageF img({6, 6, 6}, 50.0f);
  ImageV field({6, 6, 6}, Vec3{100, 0, 0});
  const ImageF out = warp_backward(img, field, -1.0f);
  for (const float v : out.data()) EXPECT_FLOAT_EQ(v, -1.0f);
}

TEST(FieldStatsTest, MeanMaxRms) {
  ImageV f({2, 1, 1});
  f(0, 0, 0) = Vec3{3, 0, 0};
  f(1, 0, 0) = Vec3{0, 4, 0};
  const FieldStats s = field_stats(f);
  EXPECT_DOUBLE_EQ(s.mean_mm, 3.5);
  EXPECT_DOUBLE_EQ(s.max_mm, 4.0);
  EXPECT_DOUBLE_EQ(s.rms_mm, std::sqrt((9.0 + 16.0) / 2.0));
}

TEST(FieldStatsTest, MaskRestricts) {
  ImageV f({2, 1, 1});
  f(0, 0, 0) = Vec3{3, 0, 0};
  f(1, 0, 0) = Vec3{0, 400, 0};
  ImageL mask({2, 1, 1}, 0);
  mask.at(0, 0, 0) = 1;
  const FieldStats s = field_stats(f, &mask);
  EXPECT_DOUBLE_EQ(s.max_mm, 3.0);
}

TEST(FieldErrorTest, IdenticalFieldsZeroError) {
  ImageV a({3, 3, 3}, Vec3{1, 2, 3});
  const FieldStats s = field_error(a, a);
  EXPECT_DOUBLE_EQ(s.mean_mm, 0.0);
  EXPECT_DOUBLE_EQ(s.max_mm, 0.0);
}

TEST(FieldErrorTest, MeasuresPointwiseDifference) {
  ImageV a({2, 1, 1}, Vec3{1, 0, 0});
  ImageV b({2, 1, 1}, Vec3{1, 0, 0});
  b(1, 0, 0) = Vec3{1, 2, 0};
  const FieldStats s = field_error(a, b);
  EXPECT_DOUBLE_EQ(s.max_mm, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_mm, 1.0);
}

TEST(RoundTripTest, RasterizeInvertWarpRecoversImage) {
  // End-to-end consistency: push an image through a mesh deformation and its
  // inverse; interior voxels must come back (bandlimited by interpolation).
  const mesh::TetMesh mesh = block_mesh(13, 1.0, 3);
  // Smooth small deformation at the nodes.
  std::vector<Vec3> u(static_cast<std::size_t>(mesh.num_nodes()));
  for (const mesh::NodeId n : mesh.node_ids()) {
    const Vec3& p = mesh.nodes[n];
    const double w = std::sin(0.3 * p.x) * std::sin(0.3 * p.y);
    u[n.index()] = Vec3{0.8 * w, -0.5 * w, 0.0};
  }
  ImageF img({13, 13, 13});
  for (int k = 0; k < 13; ++k)
    for (int j = 0; j < 13; ++j)
      for (int i = 0; i < 13; ++i)
        img(i, j, k) = static_cast<float>(std::sin(0.5 * i) + std::cos(0.4 * j) + k);

  ImageL support;
  const ImageV forward = rasterize_displacements(mesh, u, img, &support);
  const ImageV backward = invert_displacement_field(forward, 15);
  const ImageF warped = warp_backward(img, backward);
  // warped(y) = img(y + v(y)); re-warp with the forward field to undo.
  const ImageF back = warp_backward(warped, forward);
  double worst = 0;
  for (int k = 3; k < 10; ++k) {
    for (int j = 3; j < 10; ++j) {
      for (int i = 3; i < 10; ++i) {
        worst = std::max(worst,
                         std::abs(static_cast<double>(back(i, j, k)) - img(i, j, k)));
      }
    }
  }
  EXPECT_LT(worst, 0.15);
}

template <typename T>
bool same_bits(const Image3D<T>& a, const Image3D<T>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(T)) == 0;
}

// The visualization resample of a brain-like case: a ball meshed on a
// 32×32×31 grid (the odd z extent splits into uneven slabs at 2, 3 and 4
// ranks), a nodal field that sinks the top of the ball by up to 6 mm, and an
// image to warp. The field ends at the mesh, so the extended field has a
// zero region around it, as the pipeline's does.
struct ResampleCase {
  ImageF image;
  mesh::TetMesh mesh;
  std::vector<Vec3> u;
};

const ResampleCase& resample_case() {
  static const ResampleCase c = [] {
    const IVec3 d{32, 32, 31};
    const Vec3 sp{2.0, 2.0, 2.0};
    const Vec3 centre{31.0, 31.0, 30.0};
    ResampleCase r;
    r.image = ImageF(d, 0.0f, sp);
    ImageL labels(d, 0, sp);
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        for (int i = 0; i < d.x; ++i) {
          const Vec3 p = labels.voxel_to_physical(i, j, k);
          if (norm(p - centre) < 22.0) labels(i, j, k) = 1;
          r.image(i, j, k) =
              static_cast<float>(100.0 + 40.0 * std::sin(p.x / 7.0) * std::cos(p.y / 5.0) + p.z);
        }
      }
    }
    mesh::MesherConfig cfg;
    cfg.stride = 2;
    cfg.keep_labels = {1};
    r.mesh = mesh::mesh_labeled_volume(labels, cfg);
    r.u.resize(static_cast<std::size_t>(r.mesh.num_nodes()));
    for (const mesh::NodeId n : r.mesh.node_ids()) {
      const Vec3 q = (r.mesh.nodes[n] - centre) / 22.0;
      const double sink = std::max(0.0, q.z);
      r.u[n.index()] = Vec3{1.5 * sink * q.x, -1.0 * sink * q.y, -6.0 * sink * sink};
    }
    return r;
  }();
  return c;
}

// The serial chain resample_for_display must reproduce: the public functions,
// with the pipeline's pass count, on a copy of the forward field.
struct SerialResample {
  ImageV forward;
  ImageV extended;
  ImageV backward;
  ImageF warped;
};

SerialResample serial_resample(const ResampleCase& c) {
  SerialResample s;
  ImageL support;
  s.forward = rasterize_displacements(c.mesh, c.u, c.image, &support);
  s.extended = s.forward;
  const Vec3 sp = c.image.spacing();
  const int passes = std::min(
      24, static_cast<int>(field_stats(s.forward).max_mm / std::min({sp.x, sp.y, sp.z})) + 3);
  extend_displacement_field(s.extended, support, passes);
  s.backward = invert_displacement_field(s.extended);
  s.warped = warp_backward(c.image, s.backward);
  return s;
}

// The fixed-point inversion as it ran before the early exit: exactly
// `iterations` trilinear samples per voxel.
ImageV invert_fixed_samples(const ImageV& forward, int iterations) {
  ImageV inverse(forward.dims(), Vec3{}, forward.spacing(), forward.origin());
  const IVec3 d = forward.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const Vec3 y = forward.voxel_to_physical(i, j, k);
        Vec3 v{};
        for (int it = 0; it < iterations; ++it) {
          const Vec3 probe = forward.physical_to_voxel(y + v);
          v = -1.0 * sample_trilinear_vec(forward, probe);
        }
        inverse(i, j, k) = v;
      }
    }
  }
  return inverse;
}

TEST(ResampleTest, RankInvariantAtOneToFourRanks) {
  const ResampleCase& c = resample_case();
  const SerialResample serial = serial_resample(c);
  // The case exercises every phase: extension reaches past the mesh, so the
  // forward field has to be restored after the inversion.
  ASSERT_FALSE(same_bits(serial.extended, serial.forward));
  for (const int nranks : {1, 2, 3, 4}) {
    SCOPED_TRACE(nranks);
    const ResampledFields r = resample_for_display(c.mesh, c.u, c.image, c.image, nranks);
    EXPECT_TRUE(same_bits(r.forward_field, serial.forward));  // restored exactly
    EXPECT_TRUE(same_bits(r.backward_field, serial.backward));
    EXPECT_TRUE(same_bits(r.warped_preop, serial.warped));
  }
}

TEST(InvertTest, EarlyExitMatchesFixedSampleLoop) {
  const ImageV& extended = serial_resample(resample_case()).extended;
  const auto voxels = static_cast<std::int64_t>(extended.size());
  for (const int iterations : {1, 10, 25}) {
    SCOPED_TRACE(iterations);
    EXPECT_TRUE(same_bits(invert_displacement_field(extended, iterations),
                          invert_fixed_samples(extended, iterations)));
    ImageV inverse(extended.dims(), Vec3{}, extended.spacing(), extended.origin());
    const std::int64_t samples =
        invert_slab(extended, iterations, inverse, 0, extended.dims().z);
    if (iterations == 1) {
      EXPECT_EQ(samples, voxels);
    } else {
      // Voxels in the zero region stop after one sample, the others later.
      EXPECT_GT(samples, voxels);
      EXPECT_LT(samples, voxels * iterations / 2);
    }
  }
}

TEST(ResampleTest, InvertSpanCountsSerialSamples) {
  const ResampleCase& c = resample_case();
  const ImageV& extended = serial_resample(c).extended;
  ImageV inverse(extended.dims(), Vec3{}, extended.spacing(), extended.origin());
  const std::int64_t serial_samples =
      invert_slab(extended, kInvertIterations, inverse, 0, extended.dims().z);
  for (const int nranks : {1, 3}) {
    SCOPED_TRACE(nranks);
    obs::global().clear();
    obs::global().set_enabled(true);
    static_cast<void>(resample_for_display(c.mesh, c.u, c.image, c.image, nranks));
    obs::global().set_enabled(false);
    int spans = 0;
    std::int64_t samples = -1;
    std::int64_t ranks = -1;
    for (const auto& e : obs::global().snapshot()) {
      if (e.name != "pipeline.viz.invert") continue;
      ++spans;
      for (const auto& a : e.attrs) {
        if (a.key == "samples") samples = a.i;
        if (a.key == "ranks") ranks = a.i;
      }
    }
    obs::global().clear();
    EXPECT_EQ(spans, 1);
    EXPECT_EQ(samples, serial_samples);
    EXPECT_EQ(ranks, nranks);
  }
}

}  // namespace
}  // namespace neuro::core
