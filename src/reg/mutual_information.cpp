#include "reg/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "base/check.h"
#include "base/numerics_annotations.h"
#include "obs/trace.h"

namespace neuro::reg {

JointHistogram::JointHistogram(int bins, double fixed_lo, double fixed_hi,
                               double moving_lo, double moving_hi)
    : bins_(bins),
      fixed_lo_(fixed_lo),
      fixed_hi_(fixed_hi),
      moving_lo_(moving_lo),
      moving_hi_(moving_hi) {
  NEURO_REQUIRE(bins >= 2, "JointHistogram: need at least 2 bins");
  NEURO_REQUIRE(fixed_hi > fixed_lo && moving_hi > moving_lo,
                "JointHistogram: empty intensity range");
  joint_.assign(static_cast<std::size_t>(bins) * static_cast<std::size_t>(bins), 0);
}

void JointHistogram::clear() {
  std::fill(joint_.begin(), joint_.end(), 0);
  samples_ = 0;
}

void JointHistogram::allreduce(par::Communicator& comm) {
  comm.allreduce_sum(std::span<std::int64_t>(joint_));
  samples_ = std::accumulate(joint_.begin(), joint_.end(), std::int64_t{0});
}

namespace {
// Counts convert to doubles exactly (far below 2^53), so these are the
// entropies of the same probabilities a floating-point histogram would hold.
double entropy_of(const std::vector<std::int64_t>& counts, std::int64_t total) {
  if (total <= 0) return 0.0;
  const double n = static_cast<double>(total);
  double h = 0.0;
  for (const std::int64_t c : counts) {
    if (c > 0) {
      const double q = static_cast<double>(c) / n;
      h -= q * std::log(q);
    }
  }
  return h;
}
}  // namespace

double JointHistogram::fixed_entropy() const {
  std::vector<std::int64_t> marg(static_cast<std::size_t>(bins_), 0);
  for (int f = 0; f < bins_; ++f) {
    for (int m = 0; m < bins_; ++m) {
      marg[static_cast<std::size_t>(f)] +=
          joint_[static_cast<std::size_t>(f) * static_cast<std::size_t>(bins_) +
                 static_cast<std::size_t>(m)];
    }
  }
  return entropy_of(marg, samples_);
}

double JointHistogram::moving_entropy() const {
  std::vector<std::int64_t> marg(static_cast<std::size_t>(bins_), 0);
  for (int f = 0; f < bins_; ++f) {
    for (int m = 0; m < bins_; ++m) {
      marg[static_cast<std::size_t>(m)] +=
          joint_[static_cast<std::size_t>(f) * static_cast<std::size_t>(bins_) +
                 static_cast<std::size_t>(m)];
    }
  }
  return entropy_of(marg, samples_);
}

double JointHistogram::joint_entropy() const { return entropy_of(joint_, samples_); }

std::pair<double, double> intensity_range(const ImageF& img) {
  double lo = 1e300, hi = -1e300;
  for (const float v : img.data()) {
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  if (hi <= lo) hi = lo + 1.0;
  return {lo, hi};
}

namespace {
JointHistogram empty_histogram(const ImageF& fixed, const ImageF& moving,
                               const MiConfig& config) {
  NEURO_REQUIRE(config.sample_stride >= 1, "mutual_information: bad sample stride");
  const auto [flo, fhi] = intensity_range(fixed);
  const auto [mlo, mhi] = intensity_range(moving);
  return JointHistogram(config.bins, flo, fhi, mlo, mhi);
}
}  // namespace

MiSampler::MiSampler(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
                     par::Communicator* comm)
    : moving_(&moving), comm_(comm), empty_(empty_histogram(fixed, moving, config)) {
  const int stride = config.sample_stride;
  const IVec3 d = fixed.dims();
  const int planes = (d.z + stride - 1) / stride;
  const par::BlockRange slab = par::block_range(planes, comm);
  samples_.reserve(static_cast<std::size_t>(slab.end - slab.begin) *
                   static_cast<std::size_t>((d.y + stride - 1) / stride) *
                   static_cast<std::size_t>((d.x + stride - 1) / stride));
  for (int k = slab.begin * stride; k < slab.end * stride; k += stride) {
    for (int j = 0; j < d.y; j += stride) {
      for (int i = 0; i < d.x; i += stride) {
        samples_.push_back({fixed.voxel_to_physical(i, j, k),
                            empty_.fixed_bin(static_cast<double>(fixed(i, j, k)))});
      }
    }
  }
}

// The per-sample arithmetic is the serial loop's, in the serial order within
// each slab; only integer counts cross ranks, so the MI is rank-count
// invariant. The moving grid's geometry is read once per evaluation: the voxel
// coordinates are physical_to_voxel's expressions, and the interpolation is
// sample_trilinear's (same edge rule, same lerps) without its clamps, which
// are no-ops past the in-bounds test (-0.0 included).
NEURO_BITEXACT
double MiSampler::evaluate(const RigidTransform& transform) const {
  obs::Span span = obs::global_span("reg.mi_eval");
  if (span.active()) span.attr("samples", static_cast<std::int64_t>(samples_.size()));
  JointHistogram hist = empty_;
  const Mat3 R = transform.rotation_matrix();
  const ImageF& moving = *moving_;
  const Vec3 origin = moving.origin();
  const Vec3 spacing = moving.spacing();
  const IVec3 md = moving.dims();
  const double x_max = md.x - 1, y_max = md.y - 1, z_max = md.z - 1;
  const float* data = moving.data().data();
  const std::size_t sy = static_cast<std::size_t>(md.x);
  const std::size_t sz = sy * static_cast<std::size_t>(md.y);
  for (const Sample& s : samples_) {
    const Vec3 p = transform.apply(R, s.position);
    const double x = (p.x - origin.x) / spacing.x;
    const double y = (p.y - origin.y) / spacing.y;
    const double z = (p.z - origin.z) / spacing.z;
    if (x < 0 || y < 0 || z < 0 || x > x_max || y > y_max || z > z_max) continue;
    const int i0 = static_cast<int>(x), j0 = static_cast<int>(y), k0 = static_cast<int>(z);
    const std::size_t di = i0 + 1 < md.x ? 1 : 0;
    const std::size_t dj = j0 + 1 < md.y ? sy : 0;
    const std::size_t dk = k0 + 1 < md.z ? sz : 0;
    const double fx = x - i0, fy = y - j0, fz = z - k0;
    const float* c = data + static_cast<std::size_t>(i0) + sy * static_cast<std::size_t>(j0) +
                     sz * static_cast<std::size_t>(k0);
    auto v = [c](std::size_t off) { return static_cast<double>(c[off]); };
    const double c00 = v(0) * (1 - fx) + v(di) * fx;
    const double c10 = v(dj) * (1 - fx) + v(dj + di) * fx;
    const double c01 = v(dk) * (1 - fx) + v(dk + di) * fx;
    const double c11 = v(dk + dj) * (1 - fx) + v(dk + dj + di) * fx;
    const double c0 = c00 * (1 - fy) + c10 * fy;
    const double c1 = c01 * (1 - fy) + c11 * fy;
    hist.add_bins(s.fixed_bin, hist.moving_bin(c0 * (1 - fz) + c1 * fz));
  }
  if (comm_ != nullptr) hist.allreduce(*comm_);
  return hist.mutual_information();
}

double mutual_information(const ImageF& fixed, const ImageF& moving,
                          const RigidTransform& transform, const MiConfig& config) {
  return MiSampler(fixed, moving, config).evaluate(transform);
}

double mean_squared_difference(const ImageF& fixed, const ImageF& moving,
                               const RigidTransform& transform,
                               const MiConfig& config) {
  NEURO_REQUIRE(config.sample_stride >= 1, "mean_squared_difference: bad stride");
  const IVec3 d = fixed.dims();
  const IVec3 md = moving.dims();
  const Mat3 R = transform.rotation_matrix();
  double sum = 0.0;
  std::size_t n = 0;
  for (int k = 0; k < d.z; k += config.sample_stride) {
    for (int j = 0; j < d.y; j += config.sample_stride) {
      for (int i = 0; i < d.x; i += config.sample_stride) {
        const Vec3 p = fixed.voxel_to_physical(i, j, k);
        const Vec3 v = moving.physical_to_voxel(transform.apply(R, p));
        if (v.x < 0 || v.y < 0 || v.z < 0 || v.x > md.x - 1 || v.y > md.y - 1 ||
            v.z > md.z - 1) {
          continue;
        }
        const double diff =
            static_cast<double>(fixed(i, j, k)) - sample_trilinear(moving, v);
        sum += diff * diff;
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace neuro::reg
