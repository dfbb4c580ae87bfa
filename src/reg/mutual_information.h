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

/// The transform-independent half of MI(fixed, moving ∘ T), computed once per
/// image pair: both intensity ranges, and the physical position and fixed
/// intensity bin of every sampled fixed voxel. Each evaluate() is then one
/// pass over these samples. With a communicator, the sampler keeps only this
/// rank's slab of sample planes (par::block_range over the z planes of the
/// sampling grid) and evaluate() allreduces the integer counts, so every rank
/// returns the serial MI bit for bit. `moving` and `comm` must outlive it.
class MiSampler {
 public:
  MiSampler(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
            par::Communicator* comm = nullptr);

  /// MI of `fixed` vs `moving ∘ transform`. Collective when built with a
  /// communicator: every rank calls it with the same transform.
  [[nodiscard]] double evaluate(const RigidTransform& transform) const;

 private:
  struct Sample {
    Vec3 position;  ///< physical position of the fixed voxel
    int fixed_bin;
  };

  const ImageF* moving_;
  par::Communicator* comm_;
  JointHistogram empty_;  ///< bins and intensity ranges, no counts
  std::vector<Sample> samples_;
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
