// Tests for the exact Euclidean distance transform, including a brute-force
// property sweep over random volumes (the EDT is the foundation of the
// paper's spatially varying localization prior, so exactness matters).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "base/rng.h"
#include "image/distance.h"
#include "par/communicator.h"

namespace neuro {
namespace {

/// O(n²) reference EDT.
ImageF brute_force_edt(const ImageL& mask, double saturation) {
  ImageF out(mask.dims(), 0.0f, mask.spacing(), mask.origin());
  const IVec3 d = mask.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (int kk = 0; kk < d.z; ++kk) {
          for (int jj = 0; jj < d.y; ++jj) {
            for (int ii = 0; ii < d.x; ++ii) {
              if (!mask(ii, jj, kk)) continue;
              const Vec3 a = mask.voxel_to_physical(i, j, k);
              const Vec3 b = mask.voxel_to_physical(ii, jj, kk);
              best = std::min(best, norm(a - b));
            }
          }
        }
        if (saturation > 0) best = std::min(best, saturation);
        out(i, j, k) = static_cast<float>(best);
      }
    }
  }
  return out;
}

TEST(EdtTest, SinglePointIsEuclidean) {
  ImageL mask({9, 9, 9}, 0);
  mask.at(4, 4, 4) = 1;
  const ImageF d = distance_from_mask(mask);
  EXPECT_FLOAT_EQ(d.at(4, 4, 4), 0.0f);
  EXPECT_NEAR(d.at(7, 4, 4), 3.0, 1e-5);
  EXPECT_NEAR(d.at(7, 8, 4), 5.0, 1e-5);  // 3-4-5 triangle
  EXPECT_NEAR(d.at(5, 5, 5), std::sqrt(3.0), 1e-5);
}

TEST(EdtTest, RespectsAnisotropicSpacing) {
  ImageL mask({9, 9, 9}, 0, {1.0, 2.0, 3.0});
  mask.at(4, 4, 4) = 1;
  const ImageF d = distance_from_mask(mask);
  EXPECT_NEAR(d.at(5, 4, 4), 1.0, 1e-5);
  EXPECT_NEAR(d.at(4, 5, 4), 2.0, 1e-5);
  EXPECT_NEAR(d.at(4, 4, 5), 3.0, 1e-5);
}

TEST(EdtTest, SaturationClamps) {
  ImageL mask({16, 4, 4}, 0);
  mask.at(0, 0, 0) = 1;
  const ImageF d = distance_from_mask(mask, 5.0);
  EXPECT_NEAR(d.at(15, 0, 0), 5.0, 1e-5);
  EXPECT_NEAR(d.at(3, 0, 0), 3.0, 1e-5);
}

TEST(EdtTest, AbsentClassSaturatesEverywhere) {
  ImageL mask({4, 4, 4}, 0);
  const ImageF d = distance_from_mask(mask, 7.0);
  for (const float v : d.data()) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(EdtTest, LabelSelector) {
  ImageL labels({5, 5, 5}, 1);
  labels.at(2, 2, 2) = 3;
  const ImageF d3 = distance_to_label(labels, 3);
  EXPECT_FLOAT_EQ(d3.at(2, 2, 2), 0.0f);
  EXPECT_NEAR(d3.at(4, 2, 2), 2.0, 1e-5);
  const ImageF d1 = distance_to_label(labels, 1);
  EXPECT_FLOAT_EQ(d1.at(0, 0, 0), 0.0f);
  EXPECT_NEAR(d1.at(2, 2, 2), 1.0, 1e-5);  // nearest non-center voxel
}

TEST(SignedDistanceTest, NegativeInsidePositiveOutside) {
  ImageL labels({12, 12, 12}, 0);
  for (int k = 4; k < 8; ++k)
    for (int j = 4; j < 8; ++j)
      for (int i = 4; i < 8; ++i) labels.at(i, j, k) = 1;
  const ImageF sd = signed_distance_to_label(labels, 1, 100.0);
  EXPECT_LT(sd.at(5, 5, 5), 0.0f);   // interior
  EXPECT_GT(sd.at(0, 0, 0), 0.0f);   // exterior
  EXPECT_NEAR(sd.at(9, 5, 5), 2.0, 1e-4);   // 2 voxels outside
  EXPECT_NEAR(sd.at(5, 5, 6), -2.0, 1e-4);  // 2 voxels inside
}

class EdtPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EdtPropertyTest, MatchesBruteForceOnRandomVolumes) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const IVec3 dims{static_cast<int>(4 + rng.uniform_index(8)),
                   static_cast<int>(4 + rng.uniform_index(8)),
                   static_cast<int>(4 + rng.uniform_index(8))};
  const Vec3 spacing{rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                     rng.uniform(0.5, 3.0)};
  ImageL mask(dims, 0, spacing);
  // Sparse features (~5%), guaranteed at least one.
  for (auto& v : mask.data()) v = rng.uniform() < 0.05 ? 1 : 0;
  mask.at(0, 0, 0) = 1;
  const double saturation = seed % 2 == 0 ? 0.0 : 6.0;

  const ImageF fast = distance_from_mask(mask, saturation);
  const ImageF ref = brute_force_edt(mask, saturation);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast.data()[i], ref.data()[i], 1e-4)
        << "seed=" << seed << " voxel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomVolumes, EdtPropertyTest, ::testing::Range(0, 12));

// The serial transform that the rank-split passes replaced, kept verbatim as
// the bit-exactness reference: per-line vectors, the x, y and z passes over
// the whole grid, then a finalize pass.
namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

void edt_1d(std::vector<double>& f, std::vector<double>& scratch_v,
            std::vector<double>& scratch_z, double step) {
  const int n = static_cast<int>(f.size());
  auto& v = scratch_v;
  auto& z = scratch_z;
  v.assign(static_cast<std::size_t>(n), 0.0);
  z.assign(static_cast<std::size_t>(n) + 1, 0.0);
  const double s2 = step * step;
  int q0 = 0;
  while (q0 < n && f[static_cast<std::size_t>(q0)] == kInf) ++q0;
  if (q0 == n) return;
  int k = 0;
  v[0] = q0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = q0 + 1; q < n; ++q) {
    if (f[static_cast<std::size_t>(q)] == kInf) continue;
    double s;
    while (true) {
      const int p = static_cast<int>(v[static_cast<std::size_t>(k)]);
      s = ((f[static_cast<std::size_t>(q)] + s2 * q * q) -
           (f[static_cast<std::size_t>(p)] + s2 * p * p)) /
          (2.0 * s2 * (q - p));
      if (s <= z[static_cast<std::size_t>(k)] && k > 0) {
        --k;
      } else {
        break;
      }
    }
    ++k;
    v[static_cast<std::size_t>(k)] = q;
    z[static_cast<std::size_t>(k)] = s;
    z[static_cast<std::size_t>(k) + 1] = kInf;
  }
  int kk = 0;
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    while (z[static_cast<std::size_t>(kk) + 1] < q) ++kk;
    const int p = static_cast<int>(v[static_cast<std::size_t>(kk)]);
    out[static_cast<std::size_t>(q)] =
        s2 * (q - p) * (q - p) + f[static_cast<std::size_t>(p)];
  }
  f = std::move(out);
}

void edt_3d(Image3D<double>& sq) {
  const IVec3 d = sq.dims();
  const Vec3 h = sq.spacing();
  std::vector<double> line, sv, sz;
  line.resize(static_cast<std::size_t>(d.x));
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      bool any = false;
      for (int i = 0; i < d.x; ++i) {
        line[static_cast<std::size_t>(i)] = sq(i, j, k);
        any = any || sq(i, j, k) < kInf;
      }
      if (!any) continue;
      edt_1d(line, sv, sz, h.x);
      for (int i = 0; i < d.x; ++i) sq(i, j, k) = line[static_cast<std::size_t>(i)];
    }
  }
  line.resize(static_cast<std::size_t>(d.y));
  for (int k = 0; k < d.z; ++k) {
    for (int i = 0; i < d.x; ++i) {
      bool any = false;
      for (int j = 0; j < d.y; ++j) {
        line[static_cast<std::size_t>(j)] = sq(i, j, k);
        any = any || sq(i, j, k) < kInf;
      }
      if (!any) continue;
      edt_1d(line, sv, sz, h.y);
      for (int j = 0; j < d.y; ++j) sq(i, j, k) = line[static_cast<std::size_t>(j)];
    }
  }
  line.resize(static_cast<std::size_t>(d.z));
  for (int j = 0; j < d.y; ++j) {
    for (int i = 0; i < d.x; ++i) {
      bool any = false;
      for (int k = 0; k < d.z; ++k) {
        line[static_cast<std::size_t>(k)] = sq(i, j, k);
        any = any || sq(i, j, k) < kInf;
      }
      if (!any) continue;
      edt_1d(line, sv, sz, h.z);
      for (int k = 0; k < d.z; ++k) sq(i, j, k) = line[static_cast<std::size_t>(k)];
    }
  }
}

ImageF finalize(Image3D<double>& sq, double saturation) {
  ImageF out(sq.dims(), 0.0f, sq.spacing(), sq.origin());
  for (std::size_t i = 0; i < sq.size(); ++i) {
    double dist = sq.data()[i] == kInf ? (saturation > 0 ? saturation : 1e30)
                                       : std::sqrt(sq.data()[i]);
    if (saturation > 0.0) dist = std::min(dist, saturation);
    out.data()[i] = static_cast<float>(dist);
  }
  return out;
}

template <typename Pred>
ImageF edt_where(const ImageL& labels, Pred is_feature, double saturation) {
  Image3D<double> sq(labels.dims(), kInf, labels.spacing(), labels.origin());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (is_feature(labels.data()[i])) sq.data()[i] = 0.0;
  }
  edt_3d(sq);
  return finalize(sq, saturation);
}

ImageF distance_to_label(const ImageL& labels, std::uint8_t label, double saturation) {
  return edt_where(labels, [label](std::uint8_t v) { return v == label; }, saturation);
}

ImageF signed_distance_to_label(const ImageL& labels, std::uint8_t label,
                                double saturation) {
  ImageF outside =
      edt_where(labels, [label](std::uint8_t v) { return v == label; }, saturation);
  ImageF inside =
      edt_where(labels, [label](std::uint8_t v) { return v != label; }, saturation);
  ImageF out(labels.dims(), 0.0f, labels.spacing(), labels.origin());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out.data()[i] = outside.data()[i] - inside.data()[i];
  }
  return out;
}

}  // namespace reference

bool bitwise_equal(const ImageF& a, const ImageF& b) {
  return a.same_grid(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

/// Labels 0-3 on uneven grids, sparse enough in label 1 that many lines of
/// every axis hold none of it. One line along each axis is all label 1, so
/// for signed_distance_to_label's inside transform it is a line with no
/// feature.
std::vector<ImageL> rank_test_volumes() {
  std::vector<ImageL> volumes;
  Rng rng(23);
  for (const IVec3 d : {IVec3{1, 1, 1}, IVec3{2, 3, 5}, IVec3{13, 7, 10}, IVec3{9, 17, 6},
                        IVec3{21, 19, 23}}) {
    ImageL labels(d, 0, {1.0, 1.5, 2.5}, {-3.0, 2.0, 7.0});
    for (auto& v : labels.data()) {
      const double u = rng.uniform();
      v = u < 0.04 ? 1 : (u < 0.07 ? 2 : (u < 0.5 ? 3 : 0));
    }
    for (int i = 0; i < d.x; ++i) labels(i, 0, 0) = 1;
    for (int j = 0; j < d.y; ++j) labels(d.x - 1, j, d.z - 1) = 1;
    for (int k = 0; k < d.z; ++k) labels(0, d.y - 1, k) = 1;
    volumes.push_back(std::move(labels));
  }
  return volumes;
}

TEST(EdtTest, SerialMatchesReferenceLoopBitwise) {
  for (const ImageL& labels : rank_test_volumes()) {
    for (const std::uint8_t label : {0, 1, 2, 3, 9}) {
      for (const double saturation : {0.0, 4.0}) {
        SCOPED_TRACE(testing::Message() << "dims " << labels.dims() << " label "
                                        << int{label} << " saturation " << saturation);
        EXPECT_TRUE(bitwise_equal(distance_to_label(labels, label, saturation),
                                  reference::distance_to_label(labels, label, saturation)));
        EXPECT_TRUE(
            bitwise_equal(signed_distance_to_label(labels, label, saturation),
                          reference::signed_distance_to_label(labels, label, saturation)));
      }
    }
  }
}

TEST(EdtTest, RankInvariantMatchesReferenceAtOneToFourRanks) {
  // Grids thinner than the rank count leave ranks with no planes or rows;
  // the other grids split unevenly. Label 9 is absent (no feature anywhere).
  for (const ImageL& labels : rank_test_volumes()) {
    for (const std::uint8_t label : {1, 3, 9}) {
      const double saturation = label == 3 ? 0.0 : 4.0;
      const ImageF want = reference::distance_to_label(labels, label, saturation);
      const ImageF want_signed =
          reference::signed_distance_to_label(labels, label, saturation);
      for (int nranks = 1; nranks <= 4; ++nranks) {
        SCOPED_TRACE(testing::Message() << "dims " << labels.dims() << " label "
                                        << int{label} << " ranks " << nranks);
        ImageF out(labels.dims(), -1.0f, labels.spacing(), labels.origin());
        ImageF out_signed = out;
        Image3D<double> squared(labels.dims(), 0.0, labels.spacing(), labels.origin());
        par::run_spmd(nranks, [&](par::Communicator& comm) {
          distance_to_label(labels, label, saturation, out, squared, &comm);
          signed_distance_to_label(labels, label, saturation, out_signed, squared, &comm);
        });
        EXPECT_TRUE(bitwise_equal(out, want));
        EXPECT_TRUE(bitwise_equal(out_signed, want_signed));
      }
    }
  }
}

}  // namespace
}  // namespace neuro
