// Tests for mutual information and MI-based rigid registration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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
  for (const MetricKind metric :
       {MetricKind::kMutualInformation, MetricKind::kMeanSquaredDifference}) {
    RigidRegistrationConfig rcfg;
    rcfg.metric = metric;
    rcfg.powell_iterations = 2;
    const RegistrationPyramid pyramid =
        build_registration_pyramid(cas.intraop, cas.preop, rcfg);
    const RigidRegistrationResult serial =
        register_rigid_mi(cas.intraop, cas.preop, rcfg);
    for (const int nranks : {1, 2, 4}) {
      std::vector<RigidRegistrationResult> per_rank(static_cast<std::size_t>(nranks));
      par::run_spmd(nranks, [&](par::Communicator& comm) {
        per_rank[static_cast<std::size_t>(comm.rank())] =
            register_rigid_mi(pyramid, rcfg, {}, &comm);
      });
      for (int r = 0; r < nranks; ++r) {
        EXPECT_TRUE(bitwise_equal(per_rank[static_cast<std::size_t>(r)], serial))
            << "metric " << static_cast<int>(metric) << " nranks " << nranks
            << " rank " << r;
      }
    }
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

}  // namespace
}  // namespace neuro::reg
