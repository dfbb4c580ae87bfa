// k-NN tissue classification over multichannel feature vectors.
//
// The paper (§2) represents each voxel by a vector of the intraoperative MR
// intensity plus the spatially varying tissue-localization model (saturated
// distance transforms of the preoperative segmentation) and classifies it with
// k-NN against a small set of prototype voxels of known tissue type, selected
// once per surgery (< 5 min interaction) and reused — their *spatial
// locations* are recorded so the statistical model updates automatically on
// later scans. We reproduce that structure: prototypes are (feature, label)
// pairs with recorded voxel locations; classification is exact k-NN over a
// k-d tree of the prototype features, parallelized over image slabs with
// neuro::par.
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

/// Exact k-NN classifier. The prototype features are indexed by a k-d tree
/// built once per classifier; a voxel's search measures only the prototypes
/// whose leaf boxes could hold one of its k nearest, then replays the linear
/// scan's decision rule on them. Labels are bit-identical to that scan:
/// squared distances summed in channel order, equal distances ordered later
/// prototype first, the same votes and tie breaks (docs/perf.md,
/// "Registration and classification"). Prototype features must be finite.
class KnnClassifier {
 public:
  /// How the k nearest prototypes combine into a decision.
  enum class Voting {
    kMajority,          ///< one prototype, one vote (the classical rule)
    kDistanceWeighted,  ///< votes weighted by 1/(d² + ε) — smoother decision
                        ///< boundaries under class-imbalanced prototype sets
  };

  KnnClassifier(const std::vector<Prototype>& prototypes, int k,
                Voting voting = Voting::kMajority);

  /// Label of a single feature vector (among the k nearest prototypes;
  /// majority ties break toward the nearest member of the tied labels).
  [[nodiscard]] std::uint8_t classify(const std::vector<double>& feature) const;

  /// Classifies a whole feature stack serially.
  [[nodiscard]] ImageL classify_volume(const FeatureStack& stack) const;

  /// SPMD classification: each rank classifies a contiguous slab of slices,
  /// results are allgathered so every rank returns the full label volume.
  /// The tree is shared read-only by the ranks.
  [[nodiscard]] ImageL classify_volume_parallel(const FeatureStack& stack,
                                                par::Communicator& comm) const;

  [[nodiscard]] int k() const { return k_; }

 private:
  struct Hit {
    double d2;
    std::uint8_t label;
  };
  /// A prototype measured by the search, by its index in the prototype list.
  struct Candidate {
    std::uint32_t prototype;
    double d2;
  };
  /// A k-d tree node over rows [begin, end) of features_. Nodes are stored in
  /// preorder, so an internal node's left child is the next node.
  struct Node {
    std::uint32_t begin;
    std::uint32_t end;
    std::int32_t right;  ///< right child; negative for a leaf
    std::uint32_t dim;   ///< split channel and value: the search first
    double split;        ///< visits the side of `split` holding the voxel
  };
  struct Scratch;

  std::size_t build_node(std::vector<std::uint32_t>& order, std::uint32_t begin,
                         std::uint32_t end, const std::vector<Prototype>& prototypes);
  [[nodiscard]] double box_bound(std::size_t node, const double* feature) const;
  void search(std::size_t node, const double* feature, Scratch& scratch) const;
  [[nodiscard]] std::uint8_t classify_features(const double* feature,
                                               Scratch& scratch) const;
  /// Classifies slices [k_begin, k_end) under a "seg.knn" span; returns the
  /// number of prototype distances the searches evaluated.
  std::int64_t classify_slab(const FeatureStack& stack, int k_begin, int k_end,
                             ImageL& out) const;

  std::size_t channels_;
  std::vector<double> features_;       ///< prototype rows of channels_ values, tree order
  std::vector<std::uint32_t> row_prototype_;  ///< prototype index of each row
  std::vector<std::uint8_t> labels_;   ///< one per prototype, prototype order
  std::vector<Node> nodes_;            ///< preorder; nodes_[0] is the root
  std::vector<double> boxes_;          ///< per node: channels_ lows, then highs
  int k_;
  Voting voting_;
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
