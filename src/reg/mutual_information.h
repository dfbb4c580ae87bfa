// Mutual-information image similarity (paper's rigid-registration metric,
// after Wells et al., its ref. [20]).
//
// MI(A,B) = H(A) + H(B) - H(A,B) estimated from a joint intensity histogram
// over sampled fixed-image voxels mapped into the moving image. MI is the
// metric of choice here because the preoperative and intraoperative scans
// have globally consistent but not identical intensity characteristics
// (scanner drift, different noise realizations).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "image/image3d.h"
#include "image/transform.h"
#include "par/communicator.h"

namespace neuro::reg {

struct MiConfig {
  int bins = 32;
  int sample_stride = 2;  ///< use every stride-th voxel along each axis
};

/// Joint histogram between a fixed and a transformed moving image. Counts
/// are integers, so histograms filled over disjoint sample sets sum exactly:
/// the rank-parallel MI adds the ranks' counts with one allreduce and gets
/// the serial histogram bit for bit.
class JointHistogram {
 public:
  JointHistogram(int bins, double fixed_lo, double fixed_hi, double moving_lo,
                 double moving_hi);

  void add(double fixed_value, double moving_value) {
    add_bins(fixed_bin(fixed_value), moving_bin(moving_value));
  }
  void add_bins(int fixed_bin, int moving_bin) {
    ++joint_[static_cast<std::size_t>(fixed_bin) * static_cast<std::size_t>(bins_) +
             static_cast<std::size_t>(moving_bin)];
    ++samples_;
  }
  [[nodiscard]] int fixed_bin(double v) const { return bin(v, fixed_lo_, fixed_hi_); }
  [[nodiscard]] int moving_bin(double v) const { return bin(v, moving_lo_, moving_hi_); }
  void clear();

  /// Replaces every rank's counts with the sum over all ranks.
  void allreduce(par::Communicator& comm);

  [[nodiscard]] std::size_t samples() const { return static_cast<std::size_t>(samples_); }

  /// Shannon entropies (nats). Empty histogram ⇒ all zero.
  [[nodiscard]] double fixed_entropy() const;
  [[nodiscard]] double moving_entropy() const;
  [[nodiscard]] double joint_entropy() const;
  [[nodiscard]] double mutual_information() const {
    return fixed_entropy() + moving_entropy() - joint_entropy();
  }

 private:
  [[nodiscard]] int bin(double v, double lo, double hi) const {
    const double t = (v - lo) / (hi - lo);
    const int b = static_cast<int>(t * bins_);
    return std::clamp(b, 0, bins_ - 1);
  }

  int bins_;
  double fixed_lo_, fixed_hi_, moving_lo_, moving_hi_;
  std::vector<std::int64_t> joint_;  // bins x bins, row = fixed bin
  std::int64_t samples_ = 0;
};

/// Intensity range (min, max) of an image.
std::pair<double, double> intensity_range(const ImageF& img);

/// The transform-independent tables of MI(fixed, moving ∘ T) beyond the
/// images: the bin count, both intensity ranges, and the moving image's
/// single-bin cell table. Cell (i0, j0, k0) is the trilinear interpolation
/// cell whose low corner is that voxel; its entry, at the voxel's index, is
/// the moving bin of every value the interpolation can produce inside it when
/// the corners pin one bin, and kMixedCell otherwise.
struct MiTables {
  static constexpr std::uint8_t kMixedCell = 255;
  /// The most bins a table entry (and a sampler's fixed bin) can hold.
  static constexpr int kMaxBins = kMixedCell;

  int bins = 0;
  std::pair<double, double> fixed_range;
  std::pair<double, double> moving_range;
  std::vector<std::uint8_t> cells;    ///< one per moving voxel
  std::int64_t single_bin_cells = 0;  ///< entries other than kMixedCell
};

/// The tables build_mi_tables fills, with the cell table allocated for
/// `moving` and not yet filled.
MiTables mi_tables_grid(const ImageF& moving, const MiConfig& config);

/// Fills `tables` (from mi_tables_grid for the same moving grid and config)
/// for the pair. A cell is single-bin when moving_bin(min − eps) equals
/// moving_bin(max + eps) over its 8 interpolation corners, with
/// eps = 2^-40 · max|corner|: every lerp rounds within a few ulps of the
/// corner range, and moving_bin is monotone, so the bin is pinned. With a
/// communicator the call is collective: the ranks split the z planes of the
/// range scans and of the cells, and `tables` holds the serial result on
/// every rank when the call returns. The caller allocates `tables` on its own
/// thread before the rank region starts.
void build_mi_tables(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
                     MiTables& tables, par::Communicator* comm);

/// The transform-independent half of MI(fixed, moving ∘ T), computed once per
/// image pair: the sample grid's physical coordinates, factored per axis, and
/// the fixed intensity bin of every sampled fixed voxel. Each evaluate() is
/// then one pass over the sample rows; a sample whose moving cell is
/// single-bin takes the table's bin instead of interpolating. With a
/// communicator, the sampler keeps only this rank's slab of sample planes
/// (par::block_range over the z planes of the sampling grid) and evaluate()
/// allreduces the integer counts, so every rank returns the serial MI bit for
/// bit. `moving`, `tables` and `comm` must outlive it; one sampler serves one
/// thread, since evaluate() fills scratch the sampler owns.
class MiSampler {
 public:
  /// Builds its own tables for the pair (serially, on every rank).
  MiSampler(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
            par::Communicator* comm = nullptr);
  /// Reads `tables`, which build_mi_tables filled for this pair and config.
  MiSampler(const ImageF& fixed, const ImageF& moving, const MiTables& tables,
            const MiConfig& config, par::Communicator* comm = nullptr);

  MiSampler(const MiSampler&) = delete;
  MiSampler& operator=(const MiSampler&) = delete;

  /// MI of `fixed` vs `moving ∘ transform`. Collective when built with a
  /// communicator: every rank calls it with the same transform.
  [[nodiscard]] double evaluate(const RigidTransform& transform) const;

  /// This rank's sample count.
  [[nodiscard]] std::size_t samples() const { return fixed_bins_.size(); }

 private:
  void init(const ImageF& fixed, const MiConfig& config);

  const ImageF* moving_;
  par::Communicator* comm_;
  MiTables own_tables_;      ///< filled only by the first constructor
  const MiTables* tables_;
  std::size_t columns_ = 0;  ///< sample columns per row
  std::vector<double> xs_;   ///< sample column x positions, padded to whole blocks
  std::vector<double> ys_;   ///< sample row y positions
  std::vector<double> zs_;   ///< this rank's sample plane z positions
  std::vector<std::uint8_t> fixed_bins_;  ///< per sample, planes then rows then columns
  // Per-evaluation scratch: the counts and the column products m[r]·vx.
  mutable JointHistogram hist_;
  mutable std::vector<double> col_x_, col_y_, col_z_;
};

/// MI of `fixed` vs `moving ∘ transform` (transform maps fixed-space physical
/// points into moving space). Samples outside the moving volume are skipped.
double mutual_information(const ImageF& fixed, const ImageF& moving,
                          const RigidTransform& transform, const MiConfig& config);

/// Mean squared intensity difference over the same sampling scheme (the
/// classical mono-modality metric). Exposed as the MI baseline: unlike MI it
/// degrades under the scan-to-scan intensity drift / remapping that
/// intraoperative imaging exhibits — the reason the paper registers with MI.
double mean_squared_difference(const ImageF& fixed, const ImageF& moving,
                               const RigidTransform& transform,
                               const MiConfig& config);

}  // namespace neuro::reg
