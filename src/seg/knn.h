// k-NN tissue classification over multichannel feature vectors.
//
// The paper (§2) represents each voxel by a vector of the intraoperative MR
// intensity plus the spatially varying tissue-localization model (saturated
// distance transforms of the preoperative segmentation) and classifies it with
// k-NN against a small set of prototype voxels of known tissue type, selected
// once per surgery (< 5 min interaction) and reused — their *spatial
// locations* are recorded so the statistical model updates automatically on
// later scans. We reproduce that structure: prototypes are (feature, label)
// pairs with recorded voxel locations; classification is exact k-NN that
// bounds the prototypes over blocks of voxels sharing their localization
// features, parallelized over chunks of image planes with neuro::par.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "image/image3d.h"
#include "par/communicator.h"

namespace neuro::seg {

/// A stack of aligned scalar channels forming the classification feature space.
/// Channels are immutable once added and held by shared ownership, so stacks
/// built over the same channels (and the ranks classifying one stack) share
/// their storage instead of copying volumes.
class FeatureStack {
 public:
  void add_channel(ImageF channel, double weight = 1.0);
  /// Appends a channel that the stack shares with other owners.
  void add_channel(std::shared_ptr<const ImageF> channel, double weight = 1.0);
  /// Appends every channel of `other`, with its weight, sharing the storage.
  void add_channels(const FeatureStack& other);

  [[nodiscard]] std::size_t channels() const { return channels_.size(); }
  [[nodiscard]] IVec3 dims() const;
  [[nodiscard]] std::size_t voxels() const;

  /// Feature vector (weighted) of voxel (i,j,k), written into `out`
  /// (resized to channels()).
  void feature_at(int i, int j, int k, std::vector<double>& out) const;

  [[nodiscard]] const ImageF& channel(std::size_t c) const { return *channels_[c]; }
  [[nodiscard]] double weight(std::size_t c) const { return weights_[c]; }

 private:
  std::vector<std::shared_ptr<const ImageF>> channels_;
  std::vector<double> weights_;
};

/// A labeled prototype voxel: its recorded location and cached feature vector.
struct Prototype {
  IVec3 voxel;
  std::uint8_t label = 0;
  std::vector<double> features;
};

/// Selects up to `per_class` prototypes per label present in `truth`,
/// uniformly at random (deterministic in `rng`), mimicking the expert's
/// selection of "groups of prototypical voxels". Features are sampled from
/// `stack`. Labels listed in `exclude` get no prototypes.
std::vector<Prototype> select_prototypes(const ImageL& truth, const FeatureStack& stack,
                                         int per_class, Rng& rng,
                                         const std::vector<std::uint8_t>& exclude = {});

/// Robust prototype selection standing in for the paper's expert interaction
/// ("groups of prototypical voxels which represent the tissue classes"): the
/// expert picks *obviously representative* voxels on the new scan. Two
/// safeguards replicate that judgement when selection is driven by the
/// (pre-deformation) preoperative labels:
///  * interior margin — candidates must lie at least `margin_mm` inside their
///    class (away from any other label), where brain shift cannot have moved
///    a different tissue under the recorded location (falls back to half the
///    margin, then to no margin, for classes too thin to satisfy it);
///  * intensity trimming — prototypes whose channel-0 signal deviates from
///    their class median by more than `trim_mads` median-absolute-deviations
///    are discarded (no class is trimmed below a quarter of its prototypes).
std::vector<Prototype> select_prototypes_robust(
    const ImageL& truth, const FeatureStack& stack, int per_class, Rng& rng,
    const std::vector<std::uint8_t>& exclude, double margin_mm, double trim_mads);

/// Re-samples the feature vectors of existing prototypes from a new feature
/// stack (the paper's automatic model update when a new scan arrives: the
/// prototype *locations* persist, their signals are re-read).
void refresh_prototypes(std::vector<Prototype>& prototypes, const FeatureStack& stack);

/// Exact k-NN classifier. Voxels are classified in blocks: within a fixed
/// chunk of z planes, the voxels sharing the exact bits of channels 1..C−1
/// (the localization channels) form a group, and each group is a block. Per
/// block, every prototype gets a lower and an upper bound on its distance;
/// only the prototypes whose lower bound is ≤ the k-th smallest upper bound
/// can be among a voxel's k nearest. When they all carry one label the block
/// takes it; otherwise the block is halved in channel-0 order, and the voxels
/// of a small block replay the linear scan's decision rule on its candidates.
/// Labels are bit-identical to that scan: squared distances summed in channel
/// order, equal distances ordered later prototype first, the same votes and
/// tie breaks (docs/perf.md, "Block search"). Prototype features must be
/// finite.
class KnnClassifier {
 public:
  KnnClassifier(const std::vector<Prototype>& prototypes, int k);

  /// Label of a single feature vector (among the k nearest prototypes;
  /// majority ties break toward the nearest member of the tied labels).
  [[nodiscard]] std::uint8_t classify(const std::vector<double>& feature) const;

  /// Classifies a whole feature stack serially.
  [[nodiscard]] ImageL classify_volume(const FeatureStack& stack) const;

  /// SPMD classification: the fixed chunks of planes are dealt whole, as
  /// contiguous runs, to the ranks; results are allgathered so every rank
  /// returns the full label volume. The work done does not depend on the
  /// rank count.
  [[nodiscard]] ImageL classify_volume_parallel(const FeatureStack& stack,
                                                par::Communicator& comm) const;

  [[nodiscard]] int k() const { return k_; }

 private:
  struct Hit {
    double d2;
    std::uint8_t label;
  };
  struct Rows;
  struct Scratch;

  /// The localization terms of every prototype (scratch.all) for one group:
  /// the squared difference in each channel c ≥ 1 to `feature`.
  void group_terms(const double* feature, Scratch& scratch) const;
  /// Bounds the prototypes of `rows` over a block whose channel-0 features lie
  /// in [lo, hi] and keeps the candidates (rows, ascending) in
  /// scratch.candidates. Returns true when they all carry one label, written
  /// to `label`.
  bool block_candidates(const Rows& rows, double lo, double hi, Scratch& scratch,
                        std::uint8_t& label) const;
  /// Copies the rows `cands` of `from` into `to`.
  void keep_candidates(const Rows& from, Rows& to,
                       const std::vector<std::uint32_t>& cands) const;
  /// The linear scan's rule for one voxel of a block, over the block's
  /// candidates `rows`.
  [[nodiscard]] std::uint8_t classify_voxel(const Rows& rows, double f0,
                                            Scratch& scratch) const;
  /// Classifies slices [k_begin, k_end), which start a chunk, under a
  /// "seg.knn" span; returns the number of prototype rows measured.
  std::int64_t classify_slab(const FeatureStack& stack, int k_begin, int k_end,
                             ImageL& out) const;

  std::size_t channels_;
  std::vector<double> columns_;       ///< prototype features, channel-major
  std::vector<std::uint8_t> labels_;  ///< one per prototype, prototype order
  int k_;
};

/// Fraction of voxels where `a == b` (optionally restricted to mask != 0).
double label_agreement(const ImageL& a, const ImageL& b, const ImageL* mask = nullptr);

/// Dice overlap coefficient of label `l` between two label maps.
double dice_coefficient(const ImageL& a, const ImageL& b, std::uint8_t l);

/// Per-label confusion statistics between a predicted and a truth label map —
/// the standard way to report which tissue pairs the classifier confuses
/// (e.g. resection cavity vs. ventricle, the failure mode §2's priors target).
class ConfusionMatrix {
 public:
  /// Builds from (predicted, truth); only labels present in either map get rows.
  ConfusionMatrix(const ImageL& predicted, const ImageL& truth);

  /// Voxels with truth `t` classified as `p`.
  [[nodiscard]] std::size_t count(std::uint8_t truth_label,
                                  std::uint8_t predicted_label) const;
  /// Recall (sensitivity) of a truth label; 1.0 when the label is absent.
  [[nodiscard]] double recall(std::uint8_t truth_label) const;
  /// Precision of a predicted label; 1.0 when never predicted.
  [[nodiscard]] double precision(std::uint8_t predicted_label) const;
  /// Overall voxel accuracy.
  [[nodiscard]] double accuracy() const;
  /// Labels appearing in either map, ascending.
  [[nodiscard]] const std::vector<std::uint8_t>& labels() const { return labels_; }

  /// Prints rows = truth, columns = predicted, plus recall/precision.
  void print(std::ostream& os) const;

 private:
  std::vector<std::uint8_t> labels_;
  std::vector<std::size_t> counts_;  ///< labels_.size()² row-major (truth, pred)
  std::size_t total_ = 0;
  std::size_t correct_ = 0;

  [[nodiscard]] int index_of(std::uint8_t label) const;
};

}  // namespace neuro::seg
