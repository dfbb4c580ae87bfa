// Tests for the k-NN tissue classification stack and the intraoperative
// segmentation driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "base/check.h"
#include "obs/trace.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"
#include "seg/intraop.h"
#include "seg/knn.h"

namespace neuro::seg {
namespace {

using phantom::Tissue;

TEST(FeatureStackTest, StoresChannelsWithWeights) {
  FeatureStack stack;
  stack.add_channel(ImageF({2, 2, 2}, 3.0f), 2.0);
  stack.add_channel(ImageF({2, 2, 2}, 5.0f), 1.0);
  EXPECT_EQ(stack.channels(), 2u);
  std::vector<double> f;
  stack.feature_at(0, 0, 0, f);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], 6.0);  // weighted
  EXPECT_DOUBLE_EQ(f[1], 5.0);
}

TEST(FeatureStackTest, RejectsMismatchedDims) {
  FeatureStack stack;
  stack.add_channel(ImageF({2, 2, 2}));
  EXPECT_THROW(stack.add_channel(ImageF({3, 3, 3})), CheckError);
  EXPECT_THROW(stack.add_channel(ImageF({2, 2, 2}), 0.0), CheckError);
}

FeatureStack two_class_stack(ImageL& truth) {
  // Class 1 on the left half (intensity 10), class 2 on the right (intensity
  // 100) — trivially separable by the single intensity channel.
  truth = ImageL({8, 8, 8}, 1);
  ImageF intensity({8, 8, 8}, 10.0f);
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 4; i < 8; ++i) {
        truth(i, j, k) = 2;
        intensity(i, j, k) = 100.0f;
      }
    }
  }
  FeatureStack stack;
  stack.add_channel(std::move(intensity));
  return stack;
}

TEST(PrototypeTest, SelectsPerClassCounts) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 10, rng);
  int c1 = 0, c2 = 0;
  for (const auto& p : protos) {
    c1 += p.label == 1;
    c2 += p.label == 2;
  }
  EXPECT_EQ(c1, 10);
  EXPECT_EQ(c2, 10);
}

TEST(PrototypeTest, DeterministicForSeed) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng1(5), rng2(5);
  const auto a = select_prototypes(truth, stack, 5, rng1);
  const auto b = select_prototypes(truth, stack, 5, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].voxel, b[i].voxel);
  }
}

TEST(PrototypeTest, ExcludeSkipsClasses) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 5, rng, {2});
  for (const auto& p : protos) EXPECT_NE(p.label, 2);
  EXPECT_EQ(protos.size(), 5u);
}

TEST(PrototypeTest, CapsAtClassPopulation) {
  ImageL truth({3, 1, 1}, 1);
  truth.at(0, 0, 0) = 2;  // class 2 has one voxel
  FeatureStack stack;
  stack.add_channel(ImageF({3, 1, 1}, 1.0f));
  Rng rng(1);
  const auto protos = select_prototypes(truth, stack, 10, rng);
  int c2 = 0;
  for (const auto& p : protos) c2 += p.label == 2;
  EXPECT_EQ(c2, 1);
}

TEST(PrototypeTest, RefreshRereadsFeaturesAtRecordedLocations) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(1);
  auto protos = select_prototypes(truth, stack, 3, rng);
  // New scan with shifted intensities; locations persist.
  FeatureStack stack2;
  stack2.add_channel(ImageF({8, 8, 8}, 42.0f));
  refresh_prototypes(protos, stack2);
  for (const auto& p : protos) {
    EXPECT_DOUBLE_EQ(p.features.at(0), 42.0);
  }
}

TEST(KnnTest, ClassifiesSeparableClasses) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(2);
  KnnClassifier knn(select_prototypes(truth, stack, 20, rng), 3);
  EXPECT_EQ(knn.classify({15.0}), 1);
  EXPECT_EQ(knn.classify({90.0}), 2);
}

TEST(KnnTest, KOneIsNearestNeighbour) {
  std::vector<Prototype> protos(2);
  protos[0] = {{0, 0, 0}, 1, {0.0}};
  protos[1] = {{1, 0, 0}, 2, {10.0}};
  KnnClassifier knn(std::move(protos), 1);
  EXPECT_EQ(knn.classify({4.9}), 1);
  EXPECT_EQ(knn.classify({5.1}), 2);
}

TEST(KnnTest, MajorityBeatsSingleCloser) {
  // One very close prototype of class 1, two slightly farther of class 2:
  // with k=3 the majority (class 2) wins.
  std::vector<Prototype> protos(3);
  protos[0] = {{0, 0, 0}, 1, {0.0}};
  protos[1] = {{1, 0, 0}, 2, {2.0}};
  protos[2] = {{2, 0, 0}, 2, {3.0}};
  KnnClassifier knn(std::move(protos), 3);
  EXPECT_EQ(knn.classify({0.5}), 2);
}

TEST(KnnTest, VolumeClassificationMatchesTruth) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(3);
  KnnClassifier knn(select_prototypes(truth, stack, 10, rng), 3);
  const ImageL result = knn.classify_volume(stack);
  EXPECT_DOUBLE_EQ(label_agreement(result, truth), 1.0);
}

TEST(KnnTest, ParallelMatchesSerial) {
  ImageL truth;
  FeatureStack stack = two_class_stack(truth);
  Rng rng(3);
  KnnClassifier knn(select_prototypes(truth, stack, 10, rng), 3);
  const ImageL serial = knn.classify_volume(stack);
  for (const int P : {2, 3, 5}) {
    ImageL parallel;
    par::run_spmd(P, [&](par::Communicator& comm) {
      const ImageL mine = knn.classify_volume_parallel(stack, comm);
      if (comm.rank() == 0) parallel = mine;
    });
    EXPECT_EQ(parallel.data(), serial.data()) << "P=" << P;
  }
}

// The brute-force rule the classifier must reproduce bit for bit: full
// distances, a sorted k-best vector with lower_bound insertion, std::map
// tallies iterated in ascending label order.
std::uint8_t brute_force_label(const std::vector<Prototype>& protos,
                               const std::vector<double>& f, int k_req) {
  struct Hit {
    double d2;
    std::uint8_t label;
  };
  const int k = std::min<int>(k_req, static_cast<int>(protos.size()));
  std::vector<Hit> best;
  for (const auto& p : protos) {
    double d2 = 0.0;
    for (std::size_t c = 0; c < f.size(); ++c) {
      const double diff = f[c] - p.features[c];
      d2 += diff * diff;
    }
    if (static_cast<int>(best.size()) < k || d2 < best.back().d2) {
      const Hit h{d2, p.label};
      best.insert(std::lower_bound(best.begin(), best.end(), h,
                                   [](const Hit& a, const Hit& b) { return a.d2 < b.d2; }),
                  h);
      if (static_cast<int>(best.size()) > k) best.pop_back();
    }
  }
  std::map<std::uint8_t, int> votes;
  for (const auto& h : best) ++votes[h.label];
  int max_votes = 0;
  for (const auto& [label, v] : votes) max_votes = std::max(max_votes, v);
  for (const auto& h : best) {
    if (votes[h.label] == max_votes) return h.label;
  }
  return best.front().label;
}

// Classifies `stack` by brute force, serially, on 1, 2 and 4 ranks, and
// expects the three to agree voxel for voxel.
void expect_matches_brute_force(const FeatureStack& stack,
                                const std::vector<Prototype>& protos, int k,
                                std::initializer_list<int> ranks) {
  ImageL reference(stack.dims());
  std::vector<double> f;
  const IVec3 d = stack.dims();
  for (int z = 0; z < d.z; ++z) {
    for (int y = 0; y < d.y; ++y) {
      for (int x = 0; x < d.x; ++x) {
        stack.feature_at(x, y, z, f);
        reference(x, y, z) = brute_force_label(protos, f, k);
      }
    }
  }
  const KnnClassifier knn(protos, k);
  EXPECT_EQ(knn.classify_volume(stack).data(), reference.data());
  for (const int P : ranks) {
    std::vector<ImageL> per_rank(static_cast<std::size_t>(P));
    par::run_spmd(P, [&](par::Communicator& comm) {
      per_rank[static_cast<std::size_t>(comm.rank())] =
          knn.classify_volume_parallel(stack, comm);
    });
    for (const auto& labels_of_rank : per_rank) {
      EXPECT_EQ(labels_of_rank.data(), reference.data()) << "P=" << P;
    }
  }
}

TEST(KnnTest, RankInvariantAndMatchesBruteForce) {
  // Small-integer features make equal distances (ties in both the k-best
  // insertion and the votes) common; k runs from 1 past the prototype count.
  // On this grid many voxels share a localization tuple and an intensity, so
  // block bounds often equal prototype distances exactly; a tail of exact
  // duplicates with different labels puts equal rows among one block's
  // candidates.
  Rng rng(11);
  FeatureStack stack;
  for (int c = 0; c < 3; ++c) {
    ImageF channel({9, 7, 11});
    for (auto& v : channel.data()) v = static_cast<float>(rng.uniform_index(4));
    stack.add_channel(std::move(channel), c == 0 ? 1.0 : 1.5);
  }
  const std::uint8_t labels[] = {1, 2, 3, 9};
  for (const int nprotos : {12, 50, 300, 1000}) {
    std::vector<Prototype> protos;
    for (int p = 0; p < nprotos; ++p) {
      Prototype proto;
      proto.label = labels[rng.uniform_index(4)];
      for (int c = 0; c < 3; ++c) {
        proto.features.push_back(static_cast<double>(rng.uniform_index(4)) *
                                 (c == 0 ? 1.0 : 1.5));
      }
      protos.push_back(std::move(proto));
    }
    for (int p = 0; p < nprotos / 4; ++p) {
      Prototype copy = protos[rng.uniform_index(protos.size())];
      copy.label = labels[(std::find(std::begin(labels), std::end(labels), copy.label) -
                           std::begin(labels) + 1) % 4];
      protos.push_back(std::move(copy));
    }
    for (const int k : {1, 2, 4, 5, 12, 40, 64}) {
      SCOPED_TRACE(testing::Message() << "prototypes " << protos.size() << " k " << k);
      expect_matches_brute_force(stack, protos, k, {1, 2, 3, 5});
    }
  }
}

// The pipeline's feature space on a phantom: the intraoperative scan plus
// five saturated-DT channels, and its robustly selected prototypes.
struct PhantomKnnCase {
  FeatureStack stack;
  std::vector<Prototype> prototypes;
};

PhantomKnnCase make_phantom_knn_case(const IVec3& dims, const Vec3& spacing) {
  phantom::PhantomConfig pcfg;
  pcfg.dims = dims;
  pcfg.spacing = spacing;
  const auto ph = phantom::make_case(pcfg, phantom::ShiftConfig{});
  IntraopSegmentationConfig cfg;
  cfg.classes = {phantom::label(Tissue::kBackground), phantom::label(Tissue::kSkin),
                 phantom::label(Tissue::kSkullGap), phantom::label(Tissue::kBrain),
                 phantom::label(Tissue::kVentricle)};
  cfg.exclude_classes = {phantom::label(Tissue::kFalx), phantom::label(Tissue::kTumor)};
  PhantomKnnCase c;
  c.stack = build_feature_stack(ph.intraop, ph.preop_labels, cfg);
  c.prototypes = model_prototypes(c.stack, ph.preop_labels, cfg);
  return c;
}

const PhantomKnnCase& phantom_knn_case() {
  static const PhantomKnnCase cas = make_phantom_knn_case({32, 32, 32}, {6.0, 6.0, 5.0});
  return cas;
}

TEST(KnnTest, IndexMatchesBruteForceOnPhantomStack) {
  const PhantomKnnCase& cas = phantom_knn_case();
  ASSERT_EQ(cas.stack.channels(), 6u);
  ASSERT_GT(cas.prototypes.size(), 200u);
  for (const int k : {1, 5, 32}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    expect_matches_brute_force(cas.stack, cas.prototypes, k, {2, 4});
  }
}

// Every voxel its own block group: channels 1..C−1 are continuous, so no two
// voxels share their localization bits. 19 planes make a partial last chunk
// and uneven chunk runs across the ranks. Every third prototype copies a
// voxel's features, so exact zero distances reach the bounds and the votes.
TEST(KnnTest, BlockSearchMatchesBruteForceOnContinuousChannels) {
  Rng rng(21);
  FeatureStack stack;
  for (int c = 0; c < 4; ++c) {
    ImageF channel({7, 6, 19});
    for (auto& v : channel.data()) v = static_cast<float>(rng.uniform(0.0, 10.0));
    stack.add_channel(std::move(channel), c == 0 ? 1.0 : 2.0);
  }
  const std::uint8_t labels[] = {1, 2, 5};
  std::vector<Prototype> protos;
  for (int p = 0; p < 60; ++p) {
    Prototype proto;
    proto.label = labels[rng.uniform_index(3)];
    proto.voxel = {static_cast<int>(rng.uniform_index(7)),
                   static_cast<int>(rng.uniform_index(6)),
                   static_cast<int>(rng.uniform_index(19))};
    if (p % 3 == 0) {
      stack.feature_at(proto.voxel.x, proto.voxel.y, proto.voxel.z, proto.features);
    } else {
      for (int c = 0; c < 4; ++c) {
        proto.features.push_back(rng.uniform(0.0, 10.0) * (c == 0 ? 1.0 : 2.0));
      }
    }
    protos.push_back(std::move(proto));
  }
  for (const int k : {1, 5, 32}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    expect_matches_brute_force(stack, protos, k, {1, 2, 3, 4});
  }
}

// One localization tuple for every voxel and four intensity values: each
// chunk is a single group, and its runs of one intensity have equal lower and
// upper bounds, so prototypes sit exactly on the candidate cut. Integer
// prototype features and duplicated rows under other labels make equal
// distances common.
TEST(KnnTest, BlockSearchMatchesBruteForceOnTiedIntensities) {
  Rng rng(22);
  FeatureStack stack;
  ImageF intensity({9, 8, 17});
  for (auto& v : intensity.data()) v = static_cast<float>(rng.uniform_index(4));
  stack.add_channel(std::move(intensity));
  for (const float tuple : {1.0f, 3.0f, 0.0f}) stack.add_channel(ImageF({9, 8, 17}, tuple), 1.5);
  const std::uint8_t labels[] = {2, 3, 7, 8};
  std::vector<Prototype> protos;
  for (int p = 0; p < 80; ++p) {
    Prototype proto;
    proto.label = labels[rng.uniform_index(4)];
    proto.features.push_back(static_cast<double>(rng.uniform_index(4)));
    for (int c = 1; c < 4; ++c) {
      proto.features.push_back(1.5 * static_cast<double>(rng.uniform_index(4)));
    }
    protos.push_back(std::move(proto));
  }
  for (int p = 0; p < 20; ++p) {
    Prototype copy = protos[rng.uniform_index(protos.size())];
    copy.label = labels[rng.uniform_index(4)];
    protos.push_back(std::move(copy));
  }
  for (const int k : {1, 5, 32}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    expect_matches_brute_force(stack, protos, k, {1, 2, 3, 4});
  }
}

// The service's largest tenant shape, 48³ at 2.8 mm, in the pipeline's
// feature space.
TEST(KnnTest, BlockSearchMatchesBruteForceOnTenantPhantom) {
  const PhantomKnnCase cas = make_phantom_knn_case({48, 48, 48}, {2.8, 2.8, 2.8});
  ASSERT_EQ(cas.stack.channels(), 6u);
  for (const int k : {1, 5, 32}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    expect_matches_brute_force(cas.stack, cas.prototypes, k, {1, 2, 3, 4});
  }
}

TEST(KnnTest, SlabSpansSumToSerialCount) {
#ifdef NEURO_OBS_DISABLED
  GTEST_SKIP() << "tracing compiled out";
#endif
  // One seg.knn span per rank slab; the distance evaluations of the slabs
  // add up to those of the serial pass, and the index skips most rows.
  const PhantomKnnCase& cas = phantom_knn_case();
  const KnnClassifier knn(cas.prototypes, 5);
  auto knn_spans = [&](int nranks) {
    std::int64_t voxels = 0;
    std::int64_t evals = 0;
    int spans = 0;
    obs::global().clear();
    obs::global().set_enabled(true);
    if (nranks == 0) {
      static_cast<void>(knn.classify_volume(cas.stack));
    } else {
      par::run_spmd(nranks, [&](par::Communicator& comm) {
        static_cast<void>(knn.classify_volume_parallel(cas.stack, comm));
      });
    }
    obs::global().set_enabled(false);
    for (const auto& e : obs::global().snapshot()) {
      if (e.name != "seg.knn") continue;
      ++spans;
      for (const auto& a : e.attrs) {
        if (a.key == "voxels") voxels += a.i;
        if (a.key == "distance_evals") evals += a.i;
      }
    }
    obs::global().clear();
    return std::array<std::int64_t, 3>{spans, voxels, evals};
  };
  const auto serial = knn_spans(0);
  const auto total_voxels = static_cast<std::int64_t>(cas.stack.voxels());
  EXPECT_EQ(serial[0], 1);
  EXPECT_EQ(serial[1], total_voxels);
  EXPECT_GT(serial[2], total_voxels);
  EXPECT_LT(serial[2],
            total_voxels * static_cast<std::int64_t>(cas.prototypes.size()) / 4);
  for (const int P : {2, 3}) {
    const auto parallel = knn_spans(P);
    EXPECT_EQ(parallel[0], P);
    EXPECT_EQ(parallel[1], serial[1]);
    EXPECT_EQ(parallel[2], serial[2]);
  }
}

TEST(KnnTest, RejectsNonFiniteFeatures) {
  std::vector<Prototype> protos = {{{0, 0, 0}, 1, {0.0, 0.0}},
                                   {{1, 0, 0}, 2, {1.0, 1.0}}};
  const KnnClassifier knn(protos, 1);
  EXPECT_THROW((void)knn.classify({std::nan(""), 0.0}), CheckError);
  FeatureStack stack;
  for (int c = 0; c < 2; ++c) {
    ImageF channel({4, 4, 4}, 0.5f);
    if (c == 1) channel(2, 1, 3) = std::numeric_limits<float>::quiet_NaN();
    stack.add_channel(std::move(channel));
  }
  EXPECT_THROW((void)knn.classify_volume(stack), CheckError);
  protos[1].features[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(KnnClassifier(protos, 1), CheckError);
}

TEST(MetricsTest, DiceOfIdenticalIsOne) {
  ImageL a({4, 4, 4}, 0);
  a.at(1, 1, 1) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, a, 1), 1.0);
}

TEST(MetricsTest, DiceOfDisjointIsZero) {
  ImageL a({4, 4, 4}, 0), b({4, 4, 4}, 0);
  a.at(0, 0, 0) = 1;
  b.at(1, 0, 0) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, b, 1), 0.0);
}

TEST(MetricsTest, DiceHalfOverlap) {
  ImageL a({4, 1, 1}, 0), b({4, 1, 1}, 0);
  a.at(0, 0, 0) = a.at(1, 0, 0) = 1;
  b.at(1, 0, 0) = b.at(2, 0, 0) = 1;
  EXPECT_DOUBLE_EQ(dice_coefficient(a, b, 1), 0.5);
}

TEST(MaskTest, SelectsRequestedLabels) {
  ImageL labels({3, 1, 1}, 0);
  labels.at(0, 0, 0) = 3;
  labels.at(1, 0, 0) = 4;
  labels.at(2, 0, 0) = 5;
  const ImageL mask = mask_of_labels(labels, {3, 5});
  EXPECT_EQ(mask.at(0, 0, 0), 1);
  EXPECT_EQ(mask.at(1, 0, 0), 0);
  EXPECT_EQ(mask.at(2, 0, 0), 1);
}

class IntraopSegTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig cfg;
    cfg.dims = {40, 40, 40};
    cfg.spacing = {3.0, 3.0, 3.0};
    case_ = new phantom::PhantomCase(phantom::make_case(cfg, phantom::ShiftConfig{}));
  }
  static void TearDownTestSuite() {
    delete case_;
    case_ = nullptr;
  }
  static IntraopSegmentationConfig config() {
    IntraopSegmentationConfig c;
    c.classes = {phantom::label(Tissue::kBackground), phantom::label(Tissue::kSkin),
                 phantom::label(Tissue::kSkullGap), phantom::label(Tissue::kBrain),
                 phantom::label(Tissue::kVentricle)};
    c.exclude_classes = {phantom::label(Tissue::kFalx),
                         phantom::label(Tissue::kTumor)};
    c.dt_saturation_mm = 10.0;
    c.dt_weight = 1.5;
    return c;
  }
  static phantom::PhantomCase* case_;
};
phantom::PhantomCase* IntraopSegTest::case_ = nullptr;

TEST_F(IntraopSegTest, BrainMaskMatchesTruth) {
  const auto seg = segment_intraop(case_->intraop, case_->preop_labels, config());
  const std::vector<std::uint8_t> brainish = {3, 4, 5, 6};
  const ImageL mask = mask_of_labels(seg.labels, brainish);
  const ImageL truth = mask_of_labels(case_->intraop_labels, brainish);
  EXPECT_GT(dice_coefficient(mask, truth, 1), 0.85);
}

TEST_F(IntraopSegTest, PrototypeReuseReproducesModel) {
  const auto cfg = config();
  const auto first = segment_intraop(case_->intraop, case_->preop_labels, cfg);
  const auto second = segment_intraop(case_->intraop, case_->preop_labels, cfg,
                                      nullptr, &first.prototypes);
  // Same scan + same (refreshed) prototypes ⇒ same classification.
  EXPECT_EQ(second.labels.data(), first.labels.data());
}

TEST_F(IntraopSegTest, ParallelDriverMatchesSerial) {
  const auto cfg = config();
  const auto serial = segment_intraop(case_->intraop, case_->preop_labels, cfg);
  ImageL parallel;
  par::run_spmd(3, [&](par::Communicator& comm) {
    const auto seg = segment_intraop(case_->intraop, case_->preop_labels, cfg, &comm);
    if (comm.rank() == 0) parallel = seg.labels;
  });
  EXPECT_EQ(parallel.data(), serial.labels.data());
}

TEST_F(IntraopSegTest, LocalizationRankInvariantAtOneToFourRanks) {
  const auto cfg = config();
  const ImageL& labels = case_->preop_labels;
  const FeatureStack serial = build_localization_channels(labels, cfg);
  ASSERT_EQ(serial.channels(), cfg.classes.size());
  for (int nranks = 1; nranks <= 4; ++nranks) {
    std::vector<std::shared_ptr<ImageF>> channels;
    for (std::size_t c = 0; c < cfg.classes.size(); ++c) {
      channels.push_back(std::make_shared<ImageF>(labels.dims(), 0.0f, labels.spacing(),
                                                  labels.origin()));
    }
    Image3D<double> squared(labels.dims(), 0.0, labels.spacing(), labels.origin());
    std::vector<FeatureStack> per_rank(static_cast<std::size_t>(nranks));
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      per_rank[static_cast<std::size_t>(comm.rank())] =
          build_localization_channels(labels, cfg, channels, squared, &comm);
    });
    for (const FeatureStack& stack : per_rank) {
      ASSERT_EQ(stack.channels(), serial.channels());
      for (std::size_t c = 0; c < stack.channels(); ++c) {
        EXPECT_EQ(&stack.channel(c), channels[c].get());
        EXPECT_EQ(stack.weight(c), serial.weight(c));
        EXPECT_EQ(std::memcmp(stack.channel(c).data().data(), serial.channel(c).data().data(),
                              serial.channel(c).size() * sizeof(float)),
                  0)
            << "ranks " << nranks << " channel " << c;
      }
    }
  }
}

TEST_F(IntraopSegTest, ExcludedClassesNeverAppear) {
  const auto seg = segment_intraop(case_->intraop, case_->preop_labels, config());
  for (const auto l : seg.labels.data()) {
    EXPECT_NE(l, phantom::label(Tissue::kFalx));
    EXPECT_NE(l, phantom::label(Tissue::kTumor));
  }
}

}  // namespace
}  // namespace neuro::seg
