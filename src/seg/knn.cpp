#include "seg/knn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "base/check.h"
#include "base/numerics_annotations.h"
#include "image/distance.h"
#include "obs/trace.h"

namespace neuro::seg {

void FeatureStack::add_channel(ImageF channel, double weight) {
  NEURO_REQUIRE(weight > 0.0, "FeatureStack: channel weight must be positive");
  if (!channels_.empty()) {
    NEURO_REQUIRE(channel.dims() == dims(),
                  "FeatureStack: channel dims mismatch");
  }
  channels_.push_back(std::make_shared<const ImageF>(std::move(channel)));
  weights_.push_back(weight);
}

void FeatureStack::add_channels(const FeatureStack& other) {
  for (std::size_t c = 0; c < other.channels(); ++c) {
    if (!channels_.empty()) {
      NEURO_REQUIRE(other.channel(c).dims() == dims(),
                    "FeatureStack: channel dims mismatch");
    }
    channels_.push_back(other.channels_[c]);
    weights_.push_back(other.weights_[c]);
  }
}

IVec3 FeatureStack::dims() const {
  NEURO_REQUIRE(!channels_.empty(), "FeatureStack: no channels");
  return channels_.front()->dims();
}

std::size_t FeatureStack::voxels() const {
  NEURO_REQUIRE(!channels_.empty(), "FeatureStack: no channels");
  return channels_.front()->size();
}

void FeatureStack::feature_at(int i, int j, int k, std::vector<double>& out) const {
  out.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    out[c] = weights_[c] * static_cast<double>((*channels_[c])(i, j, k));
  }
}

std::vector<Prototype> select_prototypes(const ImageL& truth, const FeatureStack& stack,
                                         int per_class, Rng& rng,
                                         const std::vector<std::uint8_t>& exclude) {
  NEURO_REQUIRE(per_class > 0, "select_prototypes: per_class must be positive");
  NEURO_REQUIRE(truth.dims() == stack.dims(), "select_prototypes: dims mismatch");

  // Bucket voxel indices by label.
  std::map<std::uint8_t, std::vector<IVec3>> by_label;
  const IVec3 d = truth.dims();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const std::uint8_t l = truth(i, j, k);
        if (std::find(exclude.begin(), exclude.end(), l) != exclude.end()) continue;
        by_label[l].push_back({i, j, k});
      }
    }
  }

  std::vector<Prototype> prototypes;
  for (auto& [lbl, voxels] : by_label) {
    const int n = std::min<int>(per_class, static_cast<int>(voxels.size()));
    for (int s = 0; s < n; ++s) {
      // Sampling without replacement via partial Fisher–Yates.
      const std::size_t pick =
          static_cast<std::size_t>(s) +
          rng.uniform_index(voxels.size() - static_cast<std::size_t>(s));
      std::swap(voxels[static_cast<std::size_t>(s)], voxels[pick]);
      Prototype p;
      p.voxel = voxels[static_cast<std::size_t>(s)];
      p.label = lbl;
      stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
      prototypes.push_back(std::move(p));
    }
  }
  return prototypes;
}

std::vector<Prototype> select_prototypes_robust(
    const ImageL& truth, const FeatureStack& stack, int per_class, Rng& rng,
    const std::vector<std::uint8_t>& exclude, double margin_mm, double trim_mads) {
  NEURO_REQUIRE(per_class > 0, "select_prototypes_robust: per_class must be positive");
  NEURO_REQUIRE(truth.dims() == stack.dims(), "select_prototypes_robust: dims mismatch");

  // Distinct labels (minus exclusions).
  std::vector<std::uint8_t> classes;
  {
    std::array<bool, 256> seen{};
    for (const auto l : truth.data()) seen[l] = true;
    for (int l = 0; l < 256; ++l) {
      if (seen[static_cast<std::size_t>(l)] &&
          std::find(exclude.begin(), exclude.end(), static_cast<std::uint8_t>(l)) ==
              exclude.end()) {
        classes.push_back(static_cast<std::uint8_t>(l));
      }
    }
  }

  const IVec3 d = truth.dims();
  std::vector<Prototype> prototypes;
  for (const std::uint8_t cls : classes) {
    // Distance from every voxel to the nearest *other*-label voxel: inside
    // the class this is the interior depth.
    ImageL other(d, 0, truth.spacing(), truth.origin());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      other.data()[i] = truth.data()[i] != cls ? 1 : 0;
    }
    const ImageF depth = distance_from_mask(other, 4.0 * margin_mm + 1.0);

    std::vector<IVec3> candidates;
    for (const double margin : {margin_mm, margin_mm / 2.0, 0.0}) {
      candidates.clear();
      for (int k = 0; k < d.z; ++k) {
        for (int j = 0; j < d.y; ++j) {
          for (int i = 0; i < d.x; ++i) {
            if (truth(i, j, k) == cls && depth(i, j, k) >= margin) {
              candidates.push_back({i, j, k});
            }
          }
        }
      }
      if (static_cast<int>(candidates.size()) >= per_class) break;
    }
    if (candidates.empty()) continue;

    // Sample without replacement.
    const int n = std::min<int>(per_class, static_cast<int>(candidates.size()));
    std::vector<Prototype> cls_protos;
    for (int s = 0; s < n; ++s) {
      const std::size_t pick =
          static_cast<std::size_t>(s) +
          rng.uniform_index(candidates.size() - static_cast<std::size_t>(s));
      std::swap(candidates[static_cast<std::size_t>(s)], candidates[pick]);
      Prototype p;
      p.voxel = candidates[static_cast<std::size_t>(s)];
      p.label = cls;
      stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
      cls_protos.push_back(std::move(p));
    }

    // Trim intensity outliers (channel 0) by median ± trim_mads * MAD.
    if (trim_mads > 0.0 && cls_protos.size() >= 4) {
      std::vector<double> intensities;
      intensities.reserve(cls_protos.size());
      for (const auto& p : cls_protos) intensities.push_back(p.features[0]);
      auto median_of = [](std::vector<double> v) {
        const std::size_t mid = v.size() / 2;
        std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
        return v[mid];
      };
      const double med = median_of(intensities);
      std::vector<double> deviations;
      deviations.reserve(intensities.size());
      for (const double v : intensities) deviations.push_back(std::abs(v - med));
      const double mad = std::max(median_of(deviations), 1e-6);

      std::vector<Prototype> kept;
      for (auto& p : cls_protos) {
        if (std::abs(p.features[0] - med) <= trim_mads * mad) {
          kept.push_back(std::move(p));
        }
      }
      if (kept.size() >= cls_protos.size() / 4) cls_protos = std::move(kept);
    }

    for (auto& p : cls_protos) prototypes.push_back(std::move(p));
  }
  NEURO_CHECK_MSG(!prototypes.empty(),
                  "select_prototypes_robust: no prototypes selectable");
  return prototypes;
}

void refresh_prototypes(std::vector<Prototype>& prototypes, const FeatureStack& stack) {
  for (auto& p : prototypes) {
    NEURO_REQUIRE(p.voxel.x >= 0 && p.voxel.x < stack.dims().x &&
                      p.voxel.y >= 0 && p.voxel.y < stack.dims().y &&
                      p.voxel.z >= 0 && p.voxel.z < stack.dims().z,
                  "refresh_prototypes: recorded location outside the new stack");
    stack.feature_at(p.voxel.x, p.voxel.y, p.voxel.z, p.features);
  }
}

// Per-slab working memory of the voxel kernel: the running k smallest
// distances, the prototypes the search measured, the replayed k-best list and
// the vote tallies. The tallies are indexed by label and reset after every
// voxel, touching only the labels voted for.
struct KnnClassifier::Scratch {
  Scratch(int k, std::size_t prototypes)
      : kth_best(std::min(static_cast<std::size_t>(k), prototypes)),
        hits(kth_best.size()) {
    candidates.reserve(prototypes);
  }

  /// The k smallest distances measured so far, ascending, padded with +inf;
  /// back() is the running k-th best.
  std::vector<double> kth_best;
  std::vector<Candidate> candidates;
  std::vector<Hit> hits;
  std::array<int, 256> votes{};
  std::array<double, 256> weights{};
  std::array<std::uint8_t, 256> voted{};  ///< distinct labels among the hits
  std::int64_t distance_evals = 0;
};

namespace {

// Rows per k-d tree leaf.
constexpr std::uint32_t kLeafSize = 16;

}  // namespace

KnnClassifier::KnnClassifier(const std::vector<Prototype>& prototypes, int k,
                             Voting voting)
    : channels_(prototypes.empty() ? 0 : prototypes.front().features.size()),
      k_(k),
      voting_(voting) {
  NEURO_REQUIRE(k_ > 0, "KnnClassifier: k must be positive");
  NEURO_REQUIRE(!prototypes.empty(), "KnnClassifier: need at least one prototype");
  NEURO_REQUIRE(prototypes.size() <= std::numeric_limits<std::int32_t>::max(),
                "KnnClassifier: too many prototypes");
  labels_.reserve(prototypes.size());
  for (const auto& p : prototypes) {
    NEURO_REQUIRE(p.features.size() == channels_,
                  "KnnClassifier: inconsistent prototype feature sizes");
    NEURO_REQUIRE(std::all_of(p.features.begin(), p.features.end(),
                              [](double v) { return std::isfinite(v); }),
                  "KnnClassifier: non-finite prototype feature");
    labels_.push_back(p.label);
  }
  std::vector<std::uint32_t> order(prototypes.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) order[p] = p;
  build_node(order, 0, static_cast<std::uint32_t>(order.size()), prototypes);
  features_.reserve(prototypes.size() * channels_);
  for (const std::uint32_t p : order) {
    features_.insert(features_.end(), prototypes[p].features.begin(),
                     prototypes[p].features.end());
  }
  row_prototype_ = std::move(order);
}

// Splits at the median of the widest channel of the node's bounding box. The
// split only orders the search; pruning uses the tight boxes, so rows equal to
// the split value may fall on either side. The (value, index) order makes the
// tree the same on every platform.
std::size_t KnnClassifier::build_node(std::vector<std::uint32_t>& order,
                                      std::uint32_t begin, std::uint32_t end,
                                      const std::vector<Prototype>& prototypes) {
  const std::size_t node = nodes_.size();
  nodes_.push_back({begin, end, -1, 0, 0.0});
  const std::size_t box = boxes_.size();
  boxes_.resize(box + 2 * channels_);
  double* lo = boxes_.data() + box;
  double* hi = lo + channels_;
  const std::vector<double>& first = prototypes[order[begin]].features;
  std::copy(first.begin(), first.end(), lo);
  std::copy(first.begin(), first.end(), hi);
  for (std::uint32_t r = begin + 1; r < end; ++r) {
    const std::vector<double>& f = prototypes[order[r]].features;
    for (std::size_t c = 0; c < channels_; ++c) {
      lo[c] = std::min(lo[c], f[c]);
      hi[c] = std::max(hi[c], f[c]);
    }
  }
  std::size_t dim = 0;
  for (std::size_t c = 1; c < channels_; ++c) {
    if (hi[c] - lo[c] > hi[dim] - lo[dim]) dim = c;
  }
  if (end - begin <= kLeafSize || !(hi[dim] > lo[dim])) return node;

  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(order.begin() + begin, order.begin() + mid, order.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     const double va = prototypes[a].features[dim];
                     const double vb = prototypes[b].features[dim];
                     return va < vb || (!(vb < va) && a < b);
                   });
  nodes_[node].dim = static_cast<std::uint32_t>(dim);
  nodes_[node].split = prototypes[order[mid]].features[dim];
  build_node(order, begin, mid, prototypes);
  nodes_[node].right = static_cast<std::int32_t>(build_node(order, mid, end, prototypes));
  return node;
}

// Squared distance from `feature` to the node's box, summed in channel order.
// For any row in the box each term is ≤ that row's term of d2 (rounding is
// monotone), and adding non-negative terms never lowers a double, so the
// bound is ≤ the row's computed d2.
NEURO_BITEXACT
double KnnClassifier::box_bound(std::size_t node, const double* feature) const {
  const double* lo = boxes_.data() + 2 * channels_ * node;
  const double* hi = lo + channels_;
  double bound = 0.0;
  for (std::size_t c = 0; c < channels_; ++c) {
    double gap = 0.0;
    if (feature[c] < lo[c]) {
      gap = lo[c] - feature[c];
    } else if (feature[c] > hi[c]) {
      gap = feature[c] - hi[c];
    }
    bound += gap * gap;
  }
  return bound;
}

// Measures every prototype whose distance could be ≤ the running k-th best and
// keeps each one whose distance was ≤ it when measured. The near child is
// searched first; the far one is skipped only when its box bound is strictly
// greater than the running k-th best, which never falls below the final one,
// so every prototype at or inside the final k-th distance is kept.
NEURO_BITEXACT
void KnnClassifier::search(std::size_t node, const double* feature,
                           Scratch& scratch) const {
  const Node& n = nodes_[node];
  std::vector<double>& kth_best = scratch.kth_best;
  if (n.right < 0) {
    const double* row = features_.data() + n.begin * channels_;
    for (std::uint32_t r = n.begin; r < n.end; ++r, row += channels_) {
      ++scratch.distance_evals;
      double d2 = 0.0;
      for (std::size_t c = 0; c < channels_; ++c) {
        const double diff = feature[c] - row[c];
        d2 += diff * diff;
      }
      if (d2 > kth_best.back()) continue;
      scratch.candidates.push_back({row_prototype_[r], d2});
      if (!(d2 < kth_best.back())) continue;
      std::size_t q = kth_best.size() - 1;
      for (; q > 0 && kth_best[q - 1] > d2; --q) kth_best[q] = kth_best[q - 1];
      kth_best[q] = d2;
    }
    return;
  }
  std::size_t near = node + 1;
  std::size_t far = static_cast<std::size_t>(n.right);
  if (!(feature[n.dim] < n.split)) std::swap(near, far);
  search(near, feature, scratch);
  if (box_bound(far, feature) <= kth_best.back()) search(far, feature, scratch);
}

// The linear scan's result depends only on the prototypes whose d2 is ≤ the
// final k-th best, taken in prototype order: a farther one may enter its
// k-best list, but only behind all of them, and is pushed out by the end. The
// search keeps a superset of them, so replaying the scan's lower_bound
// insertion (equal distances: later prototype first) over the kept
// prototypes in index order, then the same vote, gives the scan's label.
NEURO_BITEXACT
std::uint8_t KnnClassifier::classify_features(const double* feature,
                                              Scratch& scratch) const {
  std::fill(scratch.kth_best.begin(), scratch.kth_best.end(),
            std::numeric_limits<double>::infinity());
  scratch.candidates.clear();
  search(0, feature, scratch);
  const double kth = scratch.kth_best.back();
  auto& cands = scratch.candidates;
  cands.erase(std::remove_if(cands.begin(), cands.end(),
                             [kth](const Candidate& c) { return c.d2 > kth; }),
              cands.end());
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    return a.prototype < b.prototype;
  });

  const int k = static_cast<int>(scratch.hits.size());
  Hit* best = scratch.hits.data();
  int held = 0;
  for (const Candidate& cand : cands) {
    if (held < k || cand.d2 < best[k - 1].d2) {
      const Hit h{cand.d2, labels_[cand.prototype]};
      const int pos = static_cast<int>(
          std::lower_bound(best, best + held, h,
                           [](const Hit& a, const Hit& b) { return a.d2 < b.d2; }) -
          best);
      if (pos < k) {
        for (int q = std::min(held, k - 1); q > pos; --q) best[q] = best[q - 1];
        best[pos] = h;
      }
      if (held < k) ++held;
    }
  }

  std::uint8_t winner = best[0].label;
  if (voting_ == Voting::kDistanceWeighted) {
    // Inverse-square-distance weights (ε regularizes exact hits), summed per
    // label in distance order; labels compete in ascending order.
    constexpr double kEps = 1e-9;
    int distinct = 0;
    for (int q = 0; q < held; ++q) {
      const std::uint8_t l = best[q].label;
      if (scratch.votes[l]++ == 0) scratch.voted[static_cast<std::size_t>(distinct++)] = l;
      scratch.weights[l] += 1.0 / (best[q].d2 + kEps);
    }
    std::sort(scratch.voted.begin(), scratch.voted.begin() + distinct);
    double max_w = -1.0;
    for (int q = 0; q < distinct; ++q) {
      const std::uint8_t l = scratch.voted[static_cast<std::size_t>(q)];
      if (scratch.weights[l] > max_w) {
        max_w = scratch.weights[l];
        winner = l;
      }
      scratch.weights[l] = 0.0;
      scratch.votes[l] = 0;
    }
    return winner;
  }

  // Majority vote; ties go to the label whose nearest hit is closest.
  int max_votes = 0;
  for (int q = 0; q < held; ++q) {
    max_votes = std::max(max_votes, ++scratch.votes[best[q].label]);
  }
  for (int q = 0; q < held; ++q) {  // best is distance-sorted
    if (scratch.votes[best[q].label] == max_votes) {
      winner = best[q].label;
      break;
    }
  }
  for (int q = 0; q < held; ++q) scratch.votes[best[q].label] = 0;
  return winner;
}

std::uint8_t KnnClassifier::classify(const std::vector<double>& feature) const {
  NEURO_REQUIRE(feature.size() == channels_,
                "KnnClassifier::classify: feature size mismatch");
  NEURO_REQUIRE(std::all_of(feature.begin(), feature.end(),
                            [](double v) { return std::isfinite(v); }),
                "KnnClassifier::classify: non-finite feature");
  Scratch scratch(k_, labels_.size());
  return classify_features(feature.data(), scratch);
}

std::int64_t KnnClassifier::classify_slab(const FeatureStack& stack, int k_begin,
                                          int k_end, ImageL& out) const {
  NEURO_REQUIRE(stack.channels() == channels_,
                "KnnClassifier: stack/prototype channel count mismatch");
  obs::Span span = obs::global_span("seg.knn");
  Scratch scratch(k_, labels_.size());
  std::vector<const float*> data(channels_);
  for (std::size_t c = 0; c < channels_; ++c) data[c] = stack.channel(c).data().data();
  std::vector<double> feature(channels_);
  const std::size_t begin = out.index(0, 0, k_begin);
  const std::size_t end = out.index(0, 0, k_end);
  for (std::size_t v = begin; v < end; ++v) {
    for (std::size_t c = 0; c < channels_; ++c) {
      feature[c] = stack.weight(c) * static_cast<double>(data[c][v]);
      NEURO_REQUIRE(std::isfinite(feature[c]), "KnnClassifier: non-finite feature");
    }
    out.data()[v] = classify_features(feature.data(), scratch);
  }
  if (span.active()) {
    span.attr("voxels", static_cast<std::int64_t>(end - begin));
    span.attr("distance_evals", scratch.distance_evals);
  }
  return scratch.distance_evals;
}

ImageL KnnClassifier::classify_volume(const FeatureStack& stack) const {
  const ImageF& ref = stack.channel(0);
  ImageL out(ref.dims(), 0, ref.spacing(), ref.origin());
  classify_slab(stack, 0, ref.dims().z, out);
  return out;
}

ImageL KnnClassifier::classify_volume_parallel(const FeatureStack& stack,
                                               par::Communicator& comm) const {
  const ImageF& ref = stack.channel(0);
  const IVec3 d = ref.dims();
  // Contiguous slice slabs, remainder spread over the first ranks.
  const par::BlockRange slab = par::block_range(d.z, comm.rank(), comm.size());

  ImageL out(d, 0, ref.spacing(), ref.origin());
  const std::int64_t evals = classify_slab(stack, slab.begin, slab.end, out);
  comm.work().add_flops(static_cast<double>(evals) *
                        (3.0 * static_cast<double>(channels_)));

  // Gather the slabs: each rank contributes its slice range.
  const std::size_t slab_begin = out.index(0, 0, slab.begin);
  const std::size_t slab_len = out.index(0, 0, slab.end) - slab_begin;
  auto parts = comm.allgather_parts(std::span<const std::uint8_t>(
      out.data().data() + slab_begin, slab_len));
  std::size_t offset = 0;
  for (const auto& part : parts) {
    std::copy(part.begin(), part.end(), out.data().begin() + static_cast<long>(offset));
    offset += part.size();
  }
  NEURO_CHECK(offset == out.size());
  return out;
}

double label_agreement(const ImageL& a, const ImageL& b, const ImageL* mask) {
  NEURO_REQUIRE(a.dims() == b.dims(), "label_agreement: dims mismatch");
  std::size_t total = 0, same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mask != nullptr && mask->data()[i] == 0) continue;
    ++total;
    if (a.data()[i] == b.data()[i]) ++same;
  }
  return total == 0 ? 1.0 : static_cast<double>(same) / static_cast<double>(total);
}

ConfusionMatrix::ConfusionMatrix(const ImageL& predicted, const ImageL& truth) {
  NEURO_REQUIRE(predicted.dims() == truth.dims(), "ConfusionMatrix: dims mismatch");
  std::array<bool, 256> seen{};
  for (const auto v : predicted.data()) seen[v] = true;
  for (const auto v : truth.data()) seen[v] = true;
  for (int l = 0; l < 256; ++l) {
    if (seen[static_cast<std::size_t>(l)]) {
      labels_.push_back(static_cast<std::uint8_t>(l));
    }
  }
  const std::size_t n = labels_.size();
  counts_.assign(n * n, 0);
  std::array<int, 256> index{};
  index.fill(-1);
  for (std::size_t i = 0; i < n; ++i) index[labels_[i]] = static_cast<int>(i);
  for (std::size_t v = 0; v < truth.size(); ++v) {
    const auto t = static_cast<std::size_t>(index[truth.data()[v]]);
    const auto p = static_cast<std::size_t>(index[predicted.data()[v]]);
    ++counts_[t * n + p];
    ++total_;
    correct_ += truth.data()[v] == predicted.data()[v];
  }
}

int ConfusionMatrix::index_of(std::uint8_t label) const {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) return -1;
  return static_cast<int>(it - labels_.begin());
}

std::size_t ConfusionMatrix::count(std::uint8_t truth_label,
                                   std::uint8_t predicted_label) const {
  const int t = index_of(truth_label);
  const int p = index_of(predicted_label);
  if (t < 0 || p < 0) return 0;
  return counts_[static_cast<std::size_t>(t) * labels_.size() +
                 static_cast<std::size_t>(p)];
}

double ConfusionMatrix::recall(std::uint8_t truth_label) const {
  const int t = index_of(truth_label);
  if (t < 0) return 1.0;
  std::size_t row_total = 0;
  for (std::size_t p = 0; p < labels_.size(); ++p) {
    row_total += counts_[static_cast<std::size_t>(t) * labels_.size() + p];
  }
  if (row_total == 0) return 1.0;
  return static_cast<double>(count(truth_label, truth_label)) /
         static_cast<double>(row_total);
}

double ConfusionMatrix::precision(std::uint8_t predicted_label) const {
  const int p = index_of(predicted_label);
  if (p < 0) return 1.0;
  std::size_t col_total = 0;
  for (std::size_t t = 0; t < labels_.size(); ++t) {
    col_total += counts_[t * labels_.size() + static_cast<std::size_t>(p)];
  }
  if (col_total == 0) return 1.0;
  return static_cast<double>(count(predicted_label, predicted_label)) /
         static_cast<double>(col_total);
}

double ConfusionMatrix::accuracy() const {
  return total_ == 0 ? 1.0 : static_cast<double>(correct_) / static_cast<double>(total_);
}

void ConfusionMatrix::print(std::ostream& os) const {
  // Format into a local stream so the caller's flags are never disturbed.
  std::ostringstream oss;
  oss << "  " << std::setw(10) << "truth\\pred";
  for (const auto l : labels_) oss << ' ' << std::setw(8) << static_cast<int>(l);
  oss << "   recall\n" << std::fixed << std::setprecision(3);
  for (const auto t : labels_) {
    oss << "  " << std::setw(10) << static_cast<int>(t);
    for (const auto p : labels_) {
      oss << ' ' << std::setw(8) << count(t, p);
    }
    oss << "   " << recall(t) << '\n';
  }
  oss << "  " << std::setw(10) << "precision";
  for (const auto p : labels_) oss << ' ' << std::setw(8) << precision(p);
  oss << "   acc " << accuracy() << '\n';
  os << oss.str();
}

double dice_coefficient(const ImageL& a, const ImageL& b, std::uint8_t l) {
  NEURO_REQUIRE(a.dims() == b.dims(), "dice_coefficient: dims mismatch");
  std::size_t na = 0, nb = 0, inter = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool ia = a.data()[i] == l;
    const bool ib = b.data()[i] == l;
    na += ia;
    nb += ib;
    inter += (ia && ib);
  }
  const std::size_t denom = na + nb;
  return denom == 0 ? 1.0 : 2.0 * static_cast<double>(inter) / static_cast<double>(denom);
}

}  // namespace neuro::seg
