// Tests for mutual information and MI-based rigid registration.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "obs/trace.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"
#include "reg/mutual_information.h"
#include "reg/rigid_registration.h"

namespace neuro::reg {
namespace {

TEST(JointHistogramTest, EntropiesOfUniformAndDelta) {
  JointHistogram h(4, 0, 4, 0, 4);
  // Four samples on the diagonal, one per bin: marginals uniform, joint
  // entropy = marginal entropy ⇒ MI = H.
  for (int i = 0; i < 4; ++i) h.add(i + 0.5, i + 0.5);
  EXPECT_NEAR(h.fixed_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.moving_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.joint_entropy(), std::log(4.0), 1e-12);
  EXPECT_NEAR(h.mutual_information(), std::log(4.0), 1e-12);
}

TEST(JointHistogramTest, IndependentVariablesHaveZeroMi) {
  JointHistogram h(2, 0, 2, 0, 2);
  // All four (fixed, moving) bin combinations equally likely.
  h.add(0.5, 0.5);
  h.add(0.5, 1.5);
  h.add(1.5, 0.5);
  h.add(1.5, 1.5);
  EXPECT_NEAR(h.mutual_information(), 0.0, 1e-12);
}

TEST(JointHistogramTest, EmptyHistogramIsZeroEntropy) {
  JointHistogram h(8, 0, 1, 0, 1);
  EXPECT_DOUBLE_EQ(h.joint_entropy(), 0.0);
  EXPECT_DOUBLE_EQ(h.mutual_information(), 0.0);
}

TEST(JointHistogramTest, ClearResets) {
  JointHistogram h(4, 0, 4, 0, 4);
  h.add(1, 1);
  EXPECT_EQ(h.samples(), 1u);
  h.clear();
  EXPECT_EQ(h.samples(), 0u);
}

TEST(JointHistogramTest, OutOfRangeValuesClampToEdgeBins) {
  JointHistogram h(4, 0, 4, 0, 4);
  h.add(-100, 100);  // must not crash or index out of bounds
  EXPECT_EQ(h.samples(), 1u);
}

TEST(JointHistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(JointHistogram(1, 0, 1, 0, 1), CheckError);
  EXPECT_THROW(JointHistogram(8, 1, 1, 0, 1), CheckError);
}

ImageF structured_volume(int n, std::uint64_t seed) {
  ImageF img({n, n, n});
  Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        // Smooth structure + noise: enough content for MI to be informative.
        img(i, j, k) = static_cast<float>(
            100.0 * std::sin(0.4 * i) * std::cos(0.3 * j) + 20.0 * std::sin(0.5 * k) +
            rng.normal());
      }
    }
  }
  return img;
}

TEST(MutualInformationTest, SelfAlignmentIsMaximal) {
  const ImageF img = structured_volume(24, 1);
  MiConfig cfg;
  const double aligned = mutual_information(img, img, RigidTransform{}, cfg);
  RigidTransform shifted;
  shifted.translation = {3.0, 0.0, 0.0};
  const double misaligned = mutual_information(img, img, shifted, cfg);
  EXPECT_GT(aligned, misaligned);
}

TEST(MutualInformationTest, DecreasesMonotonicallyNearOptimum) {
  const ImageF img = structured_volume(24, 2);
  MiConfig cfg;
  double prev = mutual_information(img, img, RigidTransform{}, cfg);
  for (double t : {1.0, 2.0, 4.0}) {
    RigidTransform shifted;
    shifted.translation = {t, 0.0, 0.0};
    const double mi = mutual_information(img, img, shifted, cfg);
    EXPECT_LT(mi, prev);
    prev = mi;
  }
}

TEST(MutualInformationTest, RobustToIntensityRemapping) {
  // MI (unlike SSD) must still peak at alignment when one image's
  // intensities are nonlinearly remapped — the multi-modality property the
  // paper relies on for preop/intraop matching.
  const ImageF a = structured_volume(24, 3);
  ImageF b = a;
  for (auto& v : b.data()) v = std::tanh(v / 50.0f) * 100.0f;  // monotone remap
  MiConfig cfg;
  const double aligned = mutual_information(a, b, RigidTransform{}, cfg);
  RigidTransform shifted;
  shifted.translation = {2.5, 1.0, 0.0};
  EXPECT_GT(aligned, mutual_information(a, b, shifted, cfg));
}

TEST(IntensityRangeTest, FindsMinMax) {
  ImageF img({2, 2, 2}, 5.0f);
  img.at(0, 0, 0) = -3.0f;
  img.at(1, 1, 1) = 9.0f;
  const auto [lo, hi] = intensity_range(img);
  EXPECT_DOUBLE_EQ(lo, -3.0);
  EXPECT_DOUBLE_EQ(hi, 9.0);
}

class RigidRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(RigidRecoveryTest, RecoversKnownOffset) {
  // Build a phantom pair whose only difference is a known rigid offset (no
  // brain shift), register, and check the offset is recovered.
  phantom::PhantomConfig cfg;
  cfg.dims = {36, 36, 36};
  cfg.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0.0;
  noshift.resection_collapse_mm = 0.0;
  noshift.resect_tumor = false;

  RigidTransform truth;
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  truth.translation = {rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-4, 4)};
  truth.rotation = {rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                    rng.uniform(-0.05, 0.05)};
  const auto cas = phantom::make_case(cfg, noshift, truth);

  RigidRegistrationConfig rcfg;
  rcfg.pyramid_levels = 2;
  rcfg.powell_iterations = 6;
  const auto result = register_rigid_mi(cas.intraop, cas.preop, rcfg);

  // The registration maps intraop→preop points; ground truth: intraop voxel y
  // sees preop anatomy at R⁻¹(y). Check agreement at scattered points.
  double worst = 0.0;
  for (int t = 0; t < 30; ++t) {
    const Vec3 p{rng.uniform(40, 90), rng.uniform(40, 90), rng.uniform(40, 90)};
    worst = std::max(worst,
                     norm(result.transform.apply(p) - truth.apply_inverse(p)));
  }
  EXPECT_LT(worst, 3.0) << "registration error (mm), seed " << seed;
  EXPECT_GT(result.metric_evaluations, 0);
  EXPECT_EQ(result.level_mi.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(OffsetSweep, RigidRecoveryTest, ::testing::Range(0, 4));

TEST(RigidRegistrationTest, IdentityCaseStaysPut) {
  phantom::PhantomConfig cfg;
  cfg.dims = {32, 32, 32};
  cfg.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0.0;
  noshift.resection_collapse_mm = 0.0;
  noshift.resect_tumor = false;
  const auto cas = phantom::make_case(cfg, noshift);
  RigidRegistrationConfig rcfg;
  rcfg.pyramid_levels = 1;
  rcfg.powell_iterations = 2;
  const auto result = register_rigid_mi(cas.intraop, cas.preop, rcfg);
  const auto p = result.transform.params();
  EXPECT_LT(std::abs(p[3]) + std::abs(p[4]) + std::abs(p[5]), 2.0);
  EXPECT_LT(std::abs(p[0]) + std::abs(p[1]) + std::abs(p[2]), 0.05);
}

phantom::PhantomCase offset_case(int n) {
  phantom::PhantomConfig cfg;
  cfg.dims = {n, n, n};
  cfg.spacing = {3.5, 3.5, 3.5};
  phantom::ShiftConfig noshift;
  noshift.max_sink_mm = 0.0;
  noshift.resection_collapse_mm = 0.0;
  noshift.resect_tumor = false;
  RigidTransform offset;
  offset.translation = {3.0, -2.0, 1.5};
  offset.rotation = {0.02, -0.03, 0.01};
  return phantom::make_case(cfg, noshift, offset);
}

bool bitwise_equal(const RigidRegistrationResult& a, const RigidRegistrationResult& b) {
  const auto pa = a.transform.params();
  const auto pb = b.transform.params();
  return std::memcmp(pa.data(), pb.data(), sizeof(pa)) == 0 &&
         std::memcmp(&a.transform.center, &b.transform.center, sizeof(Vec3)) == 0 &&
         std::memcmp(&a.mutual_information, &b.mutual_information, sizeof(double)) == 0 &&
         a.level_mi.size() == b.level_mi.size() &&
         std::memcmp(a.level_mi.data(), b.level_mi.data(),
                     a.level_mi.size() * sizeof(double)) == 0 &&
         a.metric_evaluations == b.metric_evaluations;
}

TEST(RigidRegistrationTest, RankInvariantAtOneTwoFourRanks) {
  // Each rank histograms its own slab of samples and only integer counts are
  // summed, so the Powell path — and every output bit — is the serial one.
  const auto cas = offset_case(28);
  RigidRegistrationConfig rcfg;
  rcfg.powell_iterations = 2;
  const RegistrationPyramid pyramid = build_registration_pyramid(cas.intraop, cas.preop, rcfg);
  const RigidRegistrationResult serial = register_rigid_mi(cas.intraop, cas.preop, rcfg);
  for (const int nranks : {1, 2, 4}) {
    std::vector<RigidRegistrationResult> per_rank(static_cast<std::size_t>(nranks));
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      per_rank[static_cast<std::size_t>(comm.rank())] =
          register_rigid_mi(pyramid, rcfg, {}, &comm);
    });
    for (int r = 0; r < nranks; ++r) {
      EXPECT_TRUE(bitwise_equal(per_rank[static_cast<std::size_t>(r)], serial))
          << "nranks " << nranks << " rank " << r;
    }
  }
}

TEST(RegistrationPyramidTest, RankInvariantAtOneToFourRanks) {
  // The smoothing splits z planes and y rows, the downsampling output planes:
  // 3 ranks split the 28-plane grid unevenly, and the third level (7 planes)
  // leaves a 4th rank one plane. Sigma 0 copies the inputs' slabs instead.
  const auto cas = offset_case(28);
  for (const double sigma : {1.0, 0.0}) {
    for (const int levels : {1, 3}) {
      RigidRegistrationConfig rcfg;
      rcfg.metric_smoothing_sigma = sigma;
      rcfg.pyramid_levels = levels;
      const RegistrationPyramid serial =
          build_registration_pyramid(cas.intraop, cas.preop, rcfg);
      ASSERT_EQ(serial.fixed.size(), static_cast<std::size_t>(levels));
      for (int nranks = 1; nranks <= 4; ++nranks) {
        RegistrationPyramid pyr = registration_pyramid_grids(cas.intraop, cas.preop, rcfg);
        par::run_spmd(nranks, [&](par::Communicator& comm) {
          build_registration_pyramid(cas.intraop, cas.preop, rcfg, pyr, &comm);
        });
        for (std::size_t l = 0; l < serial.fixed.size(); ++l) {
          for (const auto& [got, want] : {std::pair{&pyr.fixed[l], &serial.fixed[l]},
                                          std::pair{&pyr.moving[l], &serial.moving[l]}}) {
            ASSERT_TRUE(got->same_grid(*want));
            EXPECT_EQ(std::memcmp(got->data().data(), want->data().data(),
                                  want->size() * sizeof(float)),
                      0)
                << "sigma " << sigma << " ranks " << nranks << " level " << l;
          }
        }
        EXPECT_TRUE(std::memcmp(&pyr.center, &serial.center, sizeof(Vec3)) == 0);
      }
    }
  }
}

// MiSampler::evaluate's per-sample loop before the moving grid's geometry was
// hoisted and sample_trilinear's clamps dropped, kept verbatim (serial, over
// every sampled fixed voxel) as the bit-exactness reference.
double reference_mi(const ImageF& fixed, const ImageF& moving, const RigidTransform& transform,
                    const MiConfig& config) {
  const auto [flo, fhi] = intensity_range(fixed);
  const auto [mlo, mhi] = intensity_range(moving);
  JointHistogram hist(config.bins, flo, fhi, mlo, mhi);
  const Mat3 R = transform.rotation_matrix();
  const IVec3 d = fixed.dims();
  const IVec3 md = moving.dims();
  for (int k = 0; k < d.z; k += config.sample_stride) {
    for (int j = 0; j < d.y; j += config.sample_stride) {
      for (int i = 0; i < d.x; i += config.sample_stride) {
        const Vec3 v = moving.physical_to_voxel(
            transform.apply(R, fixed.voxel_to_physical(i, j, k)));
        if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
            v.z > md.z - 1) {
          continue;
        }
        hist.add_bins(hist.fixed_bin(static_cast<double>(fixed(i, j, k))),
                      hist.moving_bin(sample_trilinear(moving, v)));
      }
    }
  }
  return hist.mutual_information();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(MiSamplerTest, RankInvariantMatchesPerSampleLoopAtOneTwoThreeRanks) {
  // Two moving images: the fixed one itself, whose 25 voxels per axis put
  // identity samples exactly on the last voxel plane (the i1/j1/k1 edge
  // rule), and one with its own dims, spacing and origin, so the hoisted
  // geometry and strides differ on every axis. The random transforms push
  // many samples out of the volume.
  const ImageF fixed = structured_volume(25, 11);
  ImageF odd_grid({27, 22, 25}, 0.0f, {1.1, 1.3, 0.9}, {-1.5, 2.0, 0.5});
  Rng rng(12);
  for (auto& v : odd_grid.data()) v = static_cast<float>(rng.uniform(-80, 120));
  std::vector<RigidTransform> transforms(1);
  for (int t = 0; t < 24; ++t) {
    RigidTransform x;
    x.center = {12.0, 12.0, 12.0};
    x.translation = {rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(-12, 12)};
    x.rotation = {rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)};
    transforms.push_back(x);
  }
  const MiConfig cfg;
  for (const ImageF* moving : {&fixed, static_cast<const ImageF*>(&odd_grid)}) {
    const char* which = moving == &fixed ? "same grid" : "odd grid";
    std::vector<double> expected;
    for (const auto& t : transforms) expected.push_back(reference_mi(fixed, *moving, t, cfg));

    const MiSampler serial(fixed, *moving, cfg);
    for (std::size_t t = 0; t < transforms.size(); ++t) {
      EXPECT_TRUE(same_bits(serial.evaluate(transforms[t]), expected[t]))
          << which << " transform " << t;
    }
    for (const int nranks : {1, 2, 3}) {
      std::vector<std::vector<double>> got(static_cast<std::size_t>(nranks));
      par::run_spmd(nranks, [&](par::Communicator& comm) {
        const MiSampler sampler(fixed, *moving, cfg, &comm);
        for (const auto& t : transforms) {
          got[static_cast<std::size_t>(comm.rank())].push_back(sampler.evaluate(t));
        }
      });
      for (int r = 0; r < nranks; ++r) {
        for (std::size_t t = 0; t < transforms.size(); ++t) {
          EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(r)][t], expected[t]))
              << which << " nranks " << nranks << " rank " << r << " transform " << t;
        }
      }
    }
  }
}

// The Powell loop and line search before f(0) was passed in from the caller,
// kept verbatim (MI metric only) as the reference for register_rigid_mi.
struct ReferencePowell {
  std::array<double, 6> params{};
  std::vector<double> level_mi;
  int evals = 0;
  int line_searches = 0;
};

template <typename F>
std::pair<double, double> reference_line_search_max(F&& f, double step) {
  double t0 = -step, t1 = 0.0, t2 = step;
  double f0 = f(t0), f1 = f(t1), f2 = f(t2);
  int guard = 0;
  while (guard++ < 12) {
    if (f1 >= f0 && f1 >= f2) break;
    if (f0 > f2) {
      t2 = t1; f2 = f1;
      t1 = t0; f1 = f0;
      t0 = t1 - 2.0 * (t2 - t1);
      f0 = f(t0);
    } else {
      t0 = t1; f0 = f1;
      t1 = t2; f1 = f2;
      t2 = t1 + 2.0 * (t1 - t0);
      f2 = f(t2);
    }
  }
  constexpr double kInvPhi = 0.6180339887498949;
  double a = t0, b = t2;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double fx1 = f(x1), fx2 = f(x2);
  for (int it = 0; it < 18 && (b - a) > 1e-6 + 1e-3 * step; ++it) {
    if (fx1 >= fx2) {
      b = x2;
      x2 = x1; fx2 = fx1;
      x1 = b - kInvPhi * (b - a);
      fx1 = f(x1);
    } else {
      a = x1;
      x1 = x2; fx1 = fx2;
      x2 = a + kInvPhi * (b - a);
      fx2 = f(x2);
    }
  }
  return fx1 >= fx2 ? std::pair{x1, fx1} : std::pair{x2, fx2};
}

ReferencePowell reference_powell(const RegistrationPyramid& pyramid,
                                 const RigidRegistrationConfig& config) {
  const int levels = static_cast<int>(pyramid.fixed.size());
  ReferencePowell out;
  std::array<double, 6> params = RigidTransform{}.params();
  for (int l = levels - 1; l >= 0; --l) {
    const MiSampler sampler(pyramid.fixed[static_cast<std::size_t>(l)],
                            pyramid.moving[static_cast<std::size_t>(l)], config.mi);
    auto metric = [&](const std::array<double, 6>& p) {
      ++out.evals;
      return sampler.evaluate(RigidTransform::from_params(p, pyramid.center));
    };
    const double scale = std::pow(0.5, levels - 1 - l);
    double best = metric(params);
    for (int sweep = 0; sweep < config.powell_iterations; ++sweep) {
      const double before = best;
      for (int dim = 0; dim < 6; ++dim) {
        const double step =
            (dim < 3 ? config.initial_rot_step : config.initial_trans_step) * scale;
        auto line = [&](double t) {
          std::array<double, 6> p = params;
          p[static_cast<std::size_t>(dim)] += t;
          return metric(p);
        };
        ++out.line_searches;
        const auto [t, value] = reference_line_search_max(line, step);
        if (value > best) {
          best = value;
          params[static_cast<std::size_t>(dim)] += t;
        }
      }
      if (best - before < config.tolerance) break;
    }
    out.level_mi.push_back(best);
  }
  out.params = params;
  return out;
}

TEST(RigidRegistrationTest, PowellMatchesOldLoopWithOneEvaluationFewerPerLineSearch) {
  // f(0) of every line search is the metric at the current params, which the
  // loop already holds: passing it in leaves the path and every output bit
  // unchanged and saves exactly one MI evaluation per line search.
  for (const int n : {24, 28}) {
    const auto cas = offset_case(n);
    const RigidRegistrationConfig rcfg;
    const RegistrationPyramid pyramid =
        build_registration_pyramid(cas.intraop, cas.preop, rcfg);
    const ReferencePowell ref = reference_powell(pyramid, rcfg);
    const RigidRegistrationResult got = register_rigid_mi(pyramid, rcfg);
    const auto params = got.transform.params();
    EXPECT_EQ(std::memcmp(params.data(), ref.params.data(), sizeof(params)), 0) << "n " << n;
    ASSERT_EQ(got.level_mi.size(), ref.level_mi.size());
    for (std::size_t l = 0; l < ref.level_mi.size(); ++l) {
      EXPECT_TRUE(same_bits(got.level_mi[l], ref.level_mi[l])) << "n " << n << " level " << l;
    }
    EXPECT_GT(ref.line_searches, 0);
    EXPECT_EQ(got.metric_evaluations, ref.evals - ref.line_searches) << "n " << n;
  }
}

TEST(RigidRegistrationTest, TracedMiEvalSpansMatchEvaluationCount) {
#ifdef NEURO_OBS_DISABLED
  GTEST_SKIP() << "tracing compiled out";
#endif
  // One reg.mi_eval span per metric evaluation: the count perfbench reports
  // as reg.mi_evals is the number of MI passes actually made.
  const auto cas = offset_case(24);
  RigidRegistrationConfig rcfg;
  rcfg.powell_iterations = 2;
  obs::global().clear();
  obs::global().set_enabled(true);
  const RigidRegistrationResult result = register_rigid_mi(cas.intraop, cas.preop, rcfg);
  obs::global().set_enabled(false);
  int mi_evals = 0;
  int levels = 0;
  for (const auto& e : obs::global().snapshot()) {
    mi_evals += e.name == "reg.mi_eval";
    levels += e.name == "reg.level";
  }
  obs::global().clear();
  EXPECT_GT(result.metric_evaluations, 0);
  EXPECT_EQ(mi_evals, result.metric_evaluations);
  EXPECT_EQ(levels, rcfg.pyramid_levels);
}

// MiSampler with the pyramid's tables at each rank count, against the
// reference loop, for every transform; rank 0's tables are checked against a
// serial build. `check` names the case in failure messages.
void expect_tables_sampler_matches_reference(const ImageF& fixed, const ImageF& moving,
                                             const MiConfig& cfg,
                                             const std::vector<RigidTransform>& transforms,
                                             const std::string& check) {
  std::vector<double> expected;
  for (const auto& t : transforms) expected.push_back(reference_mi(fixed, moving, t, cfg));
  MiTables serial = mi_tables_grid(moving, cfg);
  build_mi_tables(fixed, moving, cfg, serial, nullptr);
  const MiSampler own(fixed, moving, cfg);
  for (std::size_t t = 0; t < transforms.size(); ++t) {
    EXPECT_TRUE(same_bits(own.evaluate(transforms[t]), expected[t]))
        << check << " serial transform " << t;
  }
  for (const int nranks : {1, 2, 4}) {
    MiTables tables = mi_tables_grid(moving, cfg);
    std::vector<std::vector<double>> got(static_cast<std::size_t>(nranks));
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      build_mi_tables(fixed, moving, cfg, tables, &comm);
      const MiSampler sampler(fixed, moving, tables, cfg, &comm);
      for (const auto& t : transforms) {
        got[static_cast<std::size_t>(comm.rank())].push_back(sampler.evaluate(t));
      }
    });
    EXPECT_EQ(tables.cells, serial.cells) << check << " nranks " << nranks;
    EXPECT_EQ(tables.single_bin_cells, serial.single_bin_cells) << check;
    EXPECT_TRUE(tables.moving_range == serial.moving_range &&
                tables.fixed_range == serial.fixed_range)
        << check << " nranks " << nranks;
    for (int r = 0; r < nranks; ++r) {
      for (std::size_t t = 0; t < transforms.size(); ++t) {
        EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(r)][t], expected[t]))
            << check << " nranks " << nranks << " rank " << r << " transform " << t;
      }
    }
  }
}

TEST(MiSamplerTest, RankInvariantSingleBinCellsOnBinEdges) {
  // Constant 2x2x2 blocks whose values sit exactly on bin edges of the
  // moving range [0, 32] (32 bins of width 1, so the edges are the integers)
  // or one float ulp either side of one, plus all-zero blocks. In a first
  // cell (i0, j0 or k0 = 0) below 0.5, 1 - fx rounds, and the lerps of a
  // constant cell can land one double ulp below its edge value: only the
  // widened bound keeps such a cell off the table. The odd dims leave a
  // one-plane block on each far face, whose cells read the far-face corner
  // rule.
  const IVec3 dims{17, 15, 13};
  std::vector<float> values{0.0f};
  for (int b = 0; b <= 32; ++b) {
    const auto edge = static_cast<float>(b);
    values.push_back(edge);
    if (b > 0) values.push_back(std::nextafter(edge, -1.0f));
    if (b < 32) values.push_back(std::nextafter(edge, 64.0f));
    values.push_back(0.0f);
  }
  ImageF moving(dims, 0.0f, {1.0, 1.0, 1.0}, {0.0, 0.0, 0.0});
  for (int k = 0; k < dims.z; ++k) {
    for (int j = 0; j < dims.y; ++j) {
      for (int i = 0; i < dims.x; ++i) {
        const int block = (i / 2) * 7 + (j / 2) * 13 + (k / 2) * 29;
        moving(i, j, k) = values[static_cast<std::size_t>(block) % values.size()];
      }
    }
  }
  moving(dims.x - 1, dims.y - 1, dims.z - 1) = 32.0f;
  ImageF fixed(dims, 0.0f, {1.0, 1.0, 1.0}, {0.0, 0.0, 0.0});
  Rng rng(27);
  for (auto& v : fixed.data()) v = static_cast<float>(rng.uniform(0, 100));

  // The identity puts samples exactly on voxel planes, the far faces
  // included; whole- and half-voxel shifts put them on and just inside the
  // far faces; small non-dyadic shifts give first-cell fractions whose
  // 1 - fx rounds; the rest land anywhere in the cells.
  std::vector<RigidTransform> transforms(1);
  for (const double shift : {1.0, -1.0, 0.5, -0.5, 0.25}) {
    for (int axis = 0; axis < 3; ++axis) {
      RigidTransform x;
      x.translation[static_cast<std::size_t>(axis)] = shift;
      transforms.push_back(x);
    }
  }
  for (int t = 1; t <= 8; ++t) {
    RigidTransform x;
    x.translation = {t / 20.0, t / 17.0, (9 - t) / 19.0};
    transforms.push_back(x);
  }
  for (int t = 0; t < 20; ++t) {
    RigidTransform x;
    x.center = {8.0, 7.0, 6.0};
    x.translation = {rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
    x.rotation = {rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)};
    transforms.push_back(x);
  }
  MiConfig cfg;
  cfg.sample_stride = 1;
  MiTables tables = mi_tables_grid(moving, cfg);
  build_mi_tables(fixed, moving, cfg, tables, nullptr);
  ASSERT_EQ(tables.moving_range, (std::pair{0.0, 32.0}));
  EXPECT_GT(tables.single_bin_cells, 0);
  EXPECT_LT(tables.single_bin_cells, static_cast<std::int64_t>(moving.size()));
  expect_tables_sampler_matches_reference(fixed, moving, cfg, transforms, "bin edges");
}

TEST(MiSamplerTest, RankInvariantFig6PyramidMatchesReference) {
  // The Fig. 6 registration pyramid (96^3 at 2.5 mm, default config), levels
  // 0 and 1, with the tables the collective pyramid build makes at 1, 2 and 4
  // ranks. Whole-voxel shifts put stride-2 samples on the far faces, the
  // identity puts them on voxel planes, and the random transforms span the
  // steps Powell's line searches take.
  phantom::PhantomConfig pc;
  pc.dims = {96, 96, 96};
  pc.spacing = {2.5, 2.5, 2.5};
  const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
  const RigidRegistrationConfig rcfg;
  const RegistrationPyramid serial = build_registration_pyramid(cas.intraop, cas.preop, rcfg);
  for (const int nranks : {2, 4}) {
    RegistrationPyramid pyr = registration_pyramid_grids(cas.intraop, cas.preop, rcfg);
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      build_registration_pyramid(cas.intraop, cas.preop, rcfg, pyr, &comm);
    });
    for (std::size_t l = 0; l < serial.mi.size(); ++l) {
      EXPECT_EQ(pyr.mi[l].cells, serial.mi[l].cells) << "nranks " << nranks << " level " << l;
      EXPECT_EQ(pyr.mi[l].single_bin_cells, serial.mi[l].single_bin_cells);
    }
  }
  Rng rng(2701);
  for (std::size_t l = 0; l < 2; ++l) {
    const double voxel = serial.fixed[l].spacing().x;
    std::vector<RigidTransform> transforms(1, RigidTransform{});
    transforms[0].center = serial.center;
    for (const double shift : {1.0, -1.0, 0.5}) {
      for (int axis = 0; axis < 3; ++axis) {
        RigidTransform x;
        x.center = serial.center;
        x.translation[static_cast<std::size_t>(axis)] = shift * voxel;
        transforms.push_back(x);
      }
    }
    for (int t = 0; t < 32; ++t) {
      RigidTransform x;
      x.center = serial.center;
      x.translation = {rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8)};
      x.rotation = {rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08),
                    rng.uniform(-0.08, 0.08)};
      transforms.push_back(x);
    }
    ASSERT_GE(transforms.size(), 40u);
    EXPECT_GT(serial.mi[l].single_bin_cells, 0);
    expect_tables_sampler_matches_reference(serial.fixed[l], serial.moving[l], rcfg.mi,
                                            transforms, "level " + std::to_string(l));
  }
}

TEST(MiSamplerTest, RankInvariantAtTwoAndMostBins) {
  // The fewest bins, and the most a table entry can hold; one more is
  // rejected, as is one bin.
  const ImageF fixed = structured_volume(21, 5);
  const ImageF moving = structured_volume(21, 6);
  Rng rng(31);
  std::vector<RigidTransform> transforms(1);
  for (int t = 0; t < 12; ++t) {
    RigidTransform x;
    x.center = {10.0, 10.0, 10.0};
    x.translation = {rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)};
    x.rotation = {rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)};
    transforms.push_back(x);
  }
  for (const int bins : {2, MiTables::kMaxBins}) {
    MiConfig cfg;
    cfg.bins = bins;
    cfg.sample_stride = 1;
    expect_tables_sampler_matches_reference(fixed, moving, cfg, transforms,
                                            "bins " + std::to_string(bins));
  }
  for (const int bins : {1, MiTables::kMaxBins + 1}) {
    MiConfig cfg;
    cfg.bins = bins;
    EXPECT_THROW(mi_tables_grid(moving, cfg), CheckError) << "bins " << bins;
    EXPECT_THROW(MiSampler(fixed, moving, cfg), CheckError) << "bins " << bins;
  }
}

TEST(RigidRegistrationTest, TracedLineSearchAndLevelSpansCountEvaluations) {
#ifdef NEURO_OBS_DISABLED
  GTEST_SKIP() << "tracing compiled out";
#endif
  // Each level makes one evaluation before its sweeps, and every other one
  // inside a line search: the reg.line_search evals plus one per level are
  // the reg.level evals, which sum to metric_evaluations.
  const auto cas = offset_case(24);
  RigidRegistrationConfig rcfg;
  rcfg.powell_iterations = 2;
  const RegistrationPyramid pyramid = build_registration_pyramid(cas.intraop, cas.preop, rcfg);
  obs::global().clear();
  obs::global().set_enabled(true);
  const RigidRegistrationResult result = register_rigid_mi(pyramid, rcfg);
  obs::global().set_enabled(false);
  auto int_attr = [](const obs::TraceEvent& e, std::string_view key) -> std::int64_t {
    for (const auto& a : e.attrs) {
      if (a.key == key) return a.i;
    }
    ADD_FAILURE() << e.name << " has no " << key;
    return 0;
  };
  std::int64_t line_evals = 0, level_evals = 0, levels = 0, line_searches = 0;
  for (const auto& e : obs::global().snapshot()) {
    if (e.name == "reg.line_search") {
      ++line_searches;
      line_evals += int_attr(e, "evals");
      const std::int64_t dim = int_attr(e, "dim");
      EXPECT_TRUE(dim >= 0 && dim < 6);
    } else if (e.name == "reg.level") {
      ++levels;
      level_evals += int_attr(e, "evals");
      const auto l = static_cast<std::size_t>(int_attr(e, "level"));
      EXPECT_EQ(int_attr(e, "single_bin_cells"), pyramid.mi[l].single_bin_cells);
      EXPECT_GT(int_attr(e, "samples"), 0);
    } else if (e.name == "reg.mi_eval") {
      const std::int64_t interpolated = int_attr(e, "interpolated");
      EXPECT_TRUE(interpolated >= 0 && interpolated <= int_attr(e, "samples"));
    }
  }
  obs::global().clear();
  EXPECT_EQ(levels, rcfg.pyramid_levels);
  EXPECT_GT(line_searches, 0);
  EXPECT_EQ(level_evals, result.metric_evaluations);
  EXPECT_EQ(line_evals + levels, result.metric_evaluations);
}

}  // namespace
}  // namespace neuro::reg
