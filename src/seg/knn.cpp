#include "seg/knn.h"

#include <algorithm>
#include <array>
#include <bit>
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
  add_channel(std::make_shared<const ImageF>(std::move(channel)), weight);
}

void FeatureStack::add_channel(std::shared_ptr<const ImageF> channel, double weight) {
  NEURO_REQUIRE(weight > 0.0, "FeatureStack: channel weight must be positive");
  if (!channels_.empty()) {
    NEURO_REQUIRE(channel->dims() == dims(),
                  "FeatureStack: channel dims mismatch");
  }
  channels_.push_back(std::move(channel));
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

// A subset of the prototypes in prototype order, as the bounds read them: the
// prototype numbers, their channel-0 features and their localization terms
// against the current group's tuple. Columns have a stride of the prototype
// count, so a subset fits in the storage of the full set.
struct KnnClassifier::Rows {
  Rows(std::size_t channels, std::size_t prototypes)
      : ids(prototypes), r0(prototypes), terms((channels - 1) * prototypes) {}

  std::size_t size = 0;
  std::vector<std::uint32_t> ids;
  std::vector<double> r0;
  std::vector<double> terms;  ///< channel c ≥ 1 of row q at (c − 1) · stride + q
};

// Per-call working memory of the block kernel, sized by the prototypes: all
// prototypes and the candidates of each block being split as row sets, the
// bounds and candidates of the current block, the k-best list and the vote
// tallies. The tallies are indexed by label and reset after every voxel,
// touching only the labels voted for.
struct KnnClassifier::Scratch {
  explicit Scratch(const KnnClassifier& knn)
      : channels(knn.channels_),
        all(knn.channels_, knn.labels_.size()),
        lower(knn.labels_.size()),
        upper(knn.labels_.size()),
        kth_upper(std::min(static_cast<std::size_t>(knn.k_), knn.labels_.size())),
        hits(kth_upper.size()) {
    const std::size_t n = knn.labels_.size();
    all.size = n;
    for (std::uint32_t p = 0; p < n; ++p) all.ids[p] = p;
    std::copy(knn.columns_.begin(), knn.columns_.begin() + static_cast<long>(n),
              all.r0.begin());
    candidates.reserve(n);
  }

  /// The candidates kept by a block at depth d of the halving.
  Rows& level(std::size_t d) {
    if (levels.size() == d) levels.push_back(std::make_unique<Rows>(channels, all.size));
    return *levels[d];
  }

  std::size_t channels;
  Rows all;  ///< every prototype
  std::vector<std::unique_ptr<Rows>> levels;
  std::vector<double> lower;  ///< per row of the set being bounded
  std::vector<double> upper;
  std::vector<double> kth_upper;  ///< the k smallest upper bounds, ascending
  std::vector<std::uint32_t> candidates;  ///< rows of that set, ascending
  std::vector<Hit> hits;
  std::array<int, 256> votes{};
  std::int64_t distance_evals = 0;
  std::int64_t blocks = 0;
  std::int64_t uniform_voxels = 0;
};

namespace {

// z planes per chunk. Chunks are the unit dealt to ranks, so the blocks, and
// the work counted, are the same at every rank count.
constexpr int kChunkPlanes = 8;
// Blocks of at most this many voxels take the per-voxel rule instead of halving.
constexpr std::size_t kLeafVoxels = 4;
// Channel-0 bins of a chunk's counting sort; a block's bounds use the exact
// extremes of its voxels, so the bins only decide which voxels share a block.
constexpr std::size_t kBins = 4096;
constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

// Numbers the distinct bit tuples of channels 1..C−1 over voxels
// [v0, v0 + n) in order of first appearance: group_of[i] is the group of voxel
// v0 + i, first[g] the first voxel of group g. `table` is an open-addressing
// hash of group numbers, grown as needed and reused from chunk to chunk.
void assign_groups(const std::vector<const float*>& data, std::size_t v0, std::size_t n,
                   std::uint32_t* group_of, std::vector<std::size_t>& first,
                   std::vector<std::uint32_t>& table) {
  const std::size_t channels = data.size();
  auto same = [&](std::size_t a, std::size_t b) {
    for (std::size_t c = 1; c < channels; ++c) {
      if (bits_of(data[c][a]) != bits_of(data[c][b])) return false;
    }
    return true;
  };
  auto slot_of = [&](std::size_t v) {
    std::uint64_t h = 0x9e3779b97f4a7c15u;
    for (std::size_t c = 1; c < channels; ++c) {
      h = (h ^ bits_of(data[c][v])) * 0xff51afd7ed558ccdu;
    }
    return static_cast<std::size_t>(h ^ (h >> 32)) & (table.size() - 1);
  };
  auto insert = [&](std::uint32_t g) {
    std::size_t slot = slot_of(first[g]);
    while (table[slot] != kNoGroup) slot = (slot + 1) & (table.size() - 1);
    table[slot] = g;
  };
  first.clear();
  std::fill(table.begin(), table.end(), kNoGroup);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t v = v0 + i;
    if (i > 0 && same(v, v - 1)) {
      group_of[i] = group_of[i - 1];
      continue;
    }
    std::size_t slot = slot_of(v);
    std::uint32_t g = table[slot];
    while (g != kNoGroup && !same(first[g], v)) {
      slot = (slot + 1) & (table.size() - 1);
      g = table[slot];
    }
    if (g == kNoGroup) {
      g = static_cast<std::uint32_t>(first.size());
      first.push_back(v);
      table[slot] = g;
      if (2 * first.size() > table.size()) {  // keep the load at most 1/2
        table.assign(2 * table.size(), kNoGroup);
        for (std::uint32_t h = 0; h <= g; ++h) insert(h);
      }
    }
    group_of[i] = g;
  }
}

}  // namespace

KnnClassifier::KnnClassifier(const std::vector<Prototype>& prototypes, int k)
    : channels_(prototypes.empty() ? 0 : prototypes.front().features.size()), k_(k) {
  NEURO_REQUIRE(k_ > 0, "KnnClassifier: k must be positive");
  NEURO_REQUIRE(!prototypes.empty(), "KnnClassifier: need at least one prototype");
  NEURO_REQUIRE(channels_ > 0, "KnnClassifier: prototypes have no features");
  NEURO_REQUIRE(prototypes.size() < std::numeric_limits<std::uint32_t>::max(),
                "KnnClassifier: too many prototypes");
  const std::size_t n = prototypes.size();
  labels_.reserve(n);
  columns_.resize(n * channels_);
  for (std::size_t p = 0; p < n; ++p) {
    const Prototype& proto = prototypes[p];
    NEURO_REQUIRE(proto.features.size() == channels_,
                  "KnnClassifier: inconsistent prototype feature sizes");
    NEURO_REQUIRE(std::all_of(proto.features.begin(), proto.features.end(),
                              [](double v) { return std::isfinite(v); }),
                  "KnnClassifier: non-finite prototype feature");
    for (std::size_t c = 0; c < channels_; ++c) columns_[c * n + p] = proto.features[c];
    labels_.push_back(proto.label);
  }
}

NEURO_BITEXACT
void KnnClassifier::group_terms(const double* feature, Scratch& scratch) const {
  const std::size_t n = labels_.size();
  for (std::size_t c = 1; c < channels_; ++c) {
    const double* column = columns_.data() + c * n;
    double* terms = scratch.all.terms.data() + (c - 1) * n;
    for (std::size_t p = 0; p < n; ++p) {
      const double diff = feature[c] - column[p];
      terms[p] = diff * diff;
    }
  }
}

// A voxel's d2 to prototype p is ((diff0² + t1) + t2) + …, where diff0 is its
// channel-0 difference and t_c the group's exact terms. Over the block,
// fl(f0 − r) lies between fl(lo − r) and fl(hi − r), because rounding is
// monotone; so the squared gap of [lo, hi] to r and the larger square of the
// two ends bound diff0², and adding the same terms in the same order keeps
// both bounds. If k prototypes have an upper bound ≤ U, every voxel's k-th
// best is ≤ U, so a prototype within any voxel's k-th best has a lower bound
// ≤ U and is kept. A prototype left out of `rows` by a wider block's bounds
// has an upper bound here above U, so it changes neither U nor the set kept.
NEURO_BITEXACT
bool KnnClassifier::block_candidates(const Rows& rows, double lo, double hi,
                                     Scratch& scratch, std::uint8_t& label) const {
  const std::size_t n = rows.size;
  const std::size_t stride = labels_.size();
  double* lower = scratch.lower.data();
  double* upper = scratch.upper.data();
  for (std::size_t q = 0; q < n; ++q) {
    const double below = lo - rows.r0[q];
    const double above = hi - rows.r0[q];
    const double gap = std::max(std::max(below, -above), 0.0);
    const double wide = std::max(-below, above);
    lower[q] = gap * gap;
    upper[q] = wide * wide;
  }
  for (std::size_t c = 1; c < channels_; ++c) {
    const double* terms = rows.terms.data() + (c - 1) * stride;
    for (std::size_t q = 0; q < n; ++q) {
      lower[q] += terms[q];
      upper[q] += terms[q];
    }
  }
  std::vector<double>& kth = scratch.kth_upper;
  std::fill(kth.begin(), kth.end(), std::numeric_limits<double>::infinity());
  for (std::size_t q = 0; q < n; ++q) {
    if (!(upper[q] < kth.back())) continue;
    std::size_t i = kth.size() - 1;
    for (; i > 0 && kth[i - 1] > upper[q]; --i) kth[i] = kth[i - 1];
    kth[i] = upper[q];
  }
  const double bound = kth.back();
  std::vector<std::uint32_t>& cands = scratch.candidates;
  cands.clear();
  bool uniform = true;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (lower[q] <= bound) {
      uniform = uniform &&
                (cands.empty() || labels_[rows.ids[q]] == labels_[rows.ids[cands.front()]]);
      cands.push_back(q);
    }
  }
  ++scratch.blocks;
  scratch.distance_evals += static_cast<std::int64_t>(n);
  label = labels_[rows.ids[cands.front()]];
  return uniform;
}

void KnnClassifier::keep_candidates(const Rows& from, Rows& to,
                                    const std::vector<std::uint32_t>& cands) const {
  const std::size_t stride = labels_.size();
  to.size = cands.size();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    to.ids[i] = from.ids[cands[i]];
    to.r0[i] = from.r0[cands[i]];
  }
  for (std::size_t c = 1; c < channels_; ++c) {
    const double* src = from.terms.data() + (c - 1) * stride;
    double* dst = to.terms.data() + (c - 1) * stride;
    for (std::size_t i = 0; i < cands.size(); ++i) dst[i] = src[cands[i]];
  }
}

// The linear scan's result depends only on the prototypes whose d2 is ≤ the
// final k-th best, taken in prototype order: a farther one may enter its
// k-best list, but only behind all of them, and is pushed out by the end. A
// block's candidates are a superset of them in prototype order, so replaying
// the scan's lower_bound insertion (equal distances: later prototype first)
// over them, then the same vote, gives the scan's label.
NEURO_BITEXACT
std::uint8_t KnnClassifier::classify_voxel(const Rows& rows, double f0,
                                           Scratch& scratch) const {
  const std::size_t stride = labels_.size();
  const int k = static_cast<int>(scratch.hits.size());
  Hit* best = scratch.hits.data();
  int held = 0;
  for (std::size_t q = 0; q < rows.size; ++q) {
    const double diff = f0 - rows.r0[q];
    double d2 = diff * diff;
    for (std::size_t c = 1; c < channels_; ++c) d2 += rows.terms[(c - 1) * stride + q];
    if (held < k || d2 < best[k - 1].d2) {
      const Hit h{d2, labels_[rows.ids[q]]};
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
  scratch.distance_evals += static_cast<std::int64_t>(rows.size);

  std::uint8_t winner = best[0].label;
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
  Scratch scratch(*this);
  group_terms(feature.data(), scratch);
  std::uint8_t label = 0;
  if (block_candidates(scratch.all, feature[0], feature[0], scratch, label)) return label;
  Rows& kept = scratch.level(0);
  keep_candidates(scratch.all, kept, scratch.candidates);
  return classify_voxel(kept, feature[0], scratch);
}

std::int64_t KnnClassifier::classify_slab(const FeatureStack& stack, int k_begin,
                                          int k_end, ImageL& out) const {
  NEURO_REQUIRE(stack.channels() == channels_,
                "KnnClassifier: stack/prototype channel count mismatch");
  obs::Span span = obs::global_span("seg.knn");
  Scratch scratch(*this);
  std::vector<const float*> data(channels_);
  for (std::size_t c = 0; c < channels_; ++c) data[c] = stack.channel(c).data().data();
  const float* x = data[0];
  const double w0 = stack.weight(0);
  const std::size_t plane = out.index(0, 0, 1);
  // Chunk-sized scratch, allocated once per call: each voxel's group, and the
  // chunk's voxel offsets sorted by channel-0 bin, then stably by group.
  const std::size_t capacity =
      plane * static_cast<std::size_t>(std::min(kChunkPlanes, k_end - k_begin));
  std::vector<std::uint32_t> group_of(capacity);
  std::vector<std::uint32_t> by_bin(capacity);
  std::vector<std::uint32_t> by_group(capacity);
  std::vector<std::uint32_t> ends(kBins);
  std::vector<std::uint32_t> counts;
  std::vector<std::size_t> first;
  std::vector<std::uint32_t> table(1024);
  std::vector<double> feature(channels_);
  std::uint8_t* labels = out.data().data();

  // Classifies the block of the current chunk's voxels at offsets
  // order[begin, end) against `rows`: one label when its candidates share it,
  // else the per-voxel rule on a block of at most kLeafVoxels, else each half
  // of the block, in channel-0 order, against the block's candidates.
  std::size_t v0 = 0;
  const std::uint32_t* order = by_group.data();
  auto classify_block = [&](auto& self, const Rows& rows, std::size_t depth, std::size_t begin,
                          std::size_t end) -> void {
    float lo = x[v0 + order[begin]];
    float hi = lo;
    for (std::size_t q = begin + 1; q < end; ++q) {
      lo = std::min(lo, x[v0 + order[q]]);
      hi = std::max(hi, x[v0 + order[q]]);
    }
    std::uint8_t label = 0;
    if (block_candidates(rows, w0 * static_cast<double>(lo), w0 * static_cast<double>(hi),
                         scratch, label)) {
      for (std::size_t q = begin; q < end; ++q) labels[v0 + order[q]] = label;
      scratch.uniform_voxels += static_cast<std::int64_t>(end - begin);
      return;
    }
    Rows& kept = scratch.level(depth);
    keep_candidates(rows, kept, scratch.candidates);
    if (end - begin <= kLeafVoxels) {
      for (std::size_t q = begin; q < end; ++q) {
        const std::size_t v = v0 + order[q];
        labels[v] = classify_voxel(kept, w0 * static_cast<double>(x[v]), scratch);
      }
      return;
    }
    const std::size_t mid = begin + (end - begin) / 2;
    self(self, kept, depth + 1, begin, mid);
    self(self, kept, depth + 1, mid, end);
  };

  for (int kc = k_begin; kc < k_end; kc += kChunkPlanes) {
    v0 = out.index(0, 0, kc);
    const std::size_t n = plane * static_cast<std::size_t>(std::min(kChunkPlanes, k_end - kc));
    float x_min = x[v0];
    float x_max = x[v0];
    for (std::size_t i = 0; i < n; ++i) {
      NEURO_REQUIRE(std::isfinite(w0 * static_cast<double>(x[v0 + i])),
                    "KnnClassifier: non-finite feature");
      x_min = std::min(x_min, x[v0 + i]);
      x_max = std::max(x_max, x[v0 + i]);
    }
    const double scale =
        x_max > x_min ? static_cast<double>(kBins - 1) /
                            (static_cast<double>(x_max) - static_cast<double>(x_min))
                      : 0.0;
    auto bin = [&](std::size_t i) {
      const double t = (static_cast<double>(x[v0 + i]) - static_cast<double>(x_min)) * scale;
      return std::min(static_cast<std::size_t>(t), kBins - 1);
    };
    // Counting sorts: by bin, then stably by group; ends[] is one past each
    // key's last slot once a pass has placed it.
    std::fill(ends.begin(), ends.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++ends[bin(i)];
    std::uint32_t total = 0;
    for (std::uint32_t& e : ends) {
      total += e;
      e = total - e;
    }
    for (std::size_t i = 0; i < n; ++i) by_bin[ends[bin(i)]++] = static_cast<std::uint32_t>(i);
    assign_groups(data, v0, n, group_of.data(), first, table);
    counts.assign(first.size(), 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[group_of[i]];
    total = 0;
    for (std::uint32_t& e : counts) {
      total += e;
      e = total - e;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t off = by_bin[i];
      by_group[counts[group_of[off]]++] = off;
    }

    for (std::size_t g = 0; g < first.size(); ++g) {
      for (std::size_t c = 1; c < channels_; ++c) {
        feature[c] = stack.weight(c) * static_cast<double>(data[c][first[g]]);
        NEURO_REQUIRE(std::isfinite(feature[c]), "KnnClassifier: non-finite feature");
      }
      group_terms(feature.data(), scratch);
      classify_block(classify_block, scratch.all, 0, g == 0 ? 0 : counts[g - 1], counts[g]);
    }
  }
  if (span.active()) {
    span.attr("voxels", static_cast<std::int64_t>(out.index(0, 0, k_end) -
                                                  out.index(0, 0, k_begin)));
    span.attr("distance_evals", scratch.distance_evals);
    span.attr("blocks", scratch.blocks);
    span.attr("uniform_voxels", scratch.uniform_voxels);
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
  // Whole chunks per rank, the remainder spread over the first ranks.
  const int chunks = (d.z + kChunkPlanes - 1) / kChunkPlanes;
  const par::BlockRange mine = par::block_range(chunks, comm.rank(), comm.size());
  const int k_begin = std::min(mine.begin * kChunkPlanes, d.z);
  const int k_end = std::min(mine.end * kChunkPlanes, d.z);

  ImageL out(d, 0, ref.spacing(), ref.origin());
  const std::int64_t evals = classify_slab(stack, k_begin, k_end, out);
  comm.work().add_flops(static_cast<double>(evals) *
                        (3.0 * static_cast<double>(channels_)));

  // Gather the slabs: each rank contributes its slice range.
  const std::size_t slab_begin = out.index(0, 0, k_begin);
  const std::size_t slab_len = out.index(0, 0, k_end) - slab_begin;
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
