#include "reg/mutual_information.h"

#include <algorithm>
#include <array>
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
// The marginals are summed per bin on the fly: integer sums, taken in bin
// order, so no marginal vector is allocated.
void add_entropy_term(double& h, std::int64_t c, double n) {
  if (c > 0) {
    const double q = static_cast<double>(c) / n;
    h -= q * std::log(q);
  }
}
}  // namespace

double JointHistogram::fixed_entropy() const {
  if (samples_ <= 0) return 0.0;
  const auto bins = static_cast<std::size_t>(bins_);
  double h = 0.0;
  for (std::size_t f = 0; f < bins; ++f) {
    std::int64_t c = 0;
    for (std::size_t m = 0; m < bins; ++m) c += joint_[f * bins + m];
    add_entropy_term(h, c, static_cast<double>(samples_));
  }
  return h;
}

double JointHistogram::moving_entropy() const {
  if (samples_ <= 0) return 0.0;
  const auto bins = static_cast<std::size_t>(bins_);
  double h = 0.0;
  for (std::size_t m = 0; m < bins; ++m) {
    std::int64_t c = 0;
    for (std::size_t f = 0; f < bins; ++f) c += joint_[f * bins + m];
    add_entropy_term(h, c, static_cast<double>(samples_));
  }
  return h;
}

double JointHistogram::joint_entropy() const {
  if (samples_ <= 0) return 0.0;
  double h = 0.0;
  for (const std::int64_t c : joint_) add_entropy_term(h, c, static_cast<double>(samples_));
  return h;
}

namespace {

/// intensity_range over the whole image; with a communicator each rank scans
/// its z slab and the extremes are reduced (min and max are exact in any
/// order).
std::pair<double, double> collective_range(const ImageF& img, par::Communicator* comm) {
  const std::size_t plane = img.size() / static_cast<std::size_t>(img.dims().z);
  const par::BlockRange slab = par::block_range(img.dims().z, comm);
  const float* data = img.data().data();
  double lo = 1e300, hi = -1e300;
  for (std::size_t v = plane * static_cast<std::size_t>(slab.begin);
       v < plane * static_cast<std::size_t>(slab.end); ++v) {
    lo = std::min(lo, static_cast<double>(data[v]));
    hi = std::max(hi, static_cast<double>(data[v]));
  }
  if (comm != nullptr) {
    lo = comm->allreduce_min(lo);
    hi = comm->allreduce_max(hi);
  }
  if (hi <= lo) hi = lo + 1.0;
  return {lo, hi};
}

/// Fills the cell table entries of moving z planes [k_begin, k_end) and
/// returns how many are single-bin. The corners are the ones evaluate()
/// interpolates: the next voxel along each axis, or the same one on the last
/// plane.
std::int64_t fill_cells(const ImageF& moving, const JointHistogram& bins, int k_begin,
                        int k_end, std::uint8_t* cells) {
  // Each lerp rounds within about 4 ulps of max|corner| beyond the range of
  // its two inputs, so three levels stay within about 2^-49 · max|corner| of
  // [min, max]; the slack is 2^9 times that.
  constexpr double kSlack = 0x1p-40;
  const IVec3 md = moving.dims();
  const float* data = moving.data().data();
  const std::size_t sy = static_cast<std::size_t>(md.x);
  const std::size_t sz = sy * static_cast<std::size_t>(md.y);
  std::int64_t single = 0;
  for (int k0 = k_begin; k0 < k_end; ++k0) {
    const std::size_t dk = k0 + 1 < md.z ? sz : 0;
    for (int j0 = 0; j0 < md.y; ++j0) {
      const std::size_t dj = j0 + 1 < md.y ? sy : 0;
      for (int i0 = 0; i0 < md.x; ++i0) {
        const std::size_t di = i0 + 1 < md.x ? 1 : 0;
        const std::size_t cell = static_cast<std::size_t>(i0) +
                                 sy * static_cast<std::size_t>(j0) +
                                 sz * static_cast<std::size_t>(k0);
        const float* c = data + cell;
        double lo = c[0], hi = c[0], amax = 0.0, sum = 0.0;
        for (const std::size_t off : {std::size_t{0}, di, dj, dj + di, dk, dk + di, dk + dj,
                                      dk + dj + di}) {
          const double v = c[off];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
          amax = std::max(amax, std::abs(v));
          sum += v;  // finite exactly when every corner is
        }
        std::uint8_t entry = MiTables::kMixedCell;
        if (std::isfinite(sum)) {
          const double eps = kSlack * amax;
          const int b = bins.moving_bin(lo - eps);
          if (b == bins.moving_bin(hi + eps) && b < MiTables::kMixedCell) {
            entry = static_cast<std::uint8_t>(b);
            ++single;
          }
        }
        cells[cell] = entry;
      }
    }
  }
  return single;
}

JointHistogram histogram_of(const MiTables& tables) {
  return JointHistogram(tables.bins, tables.fixed_range.first, tables.fixed_range.second,
                        tables.moving_range.first, tables.moving_range.second);
}

MiTables own_tables(const ImageF& fixed, const ImageF& moving, const MiConfig& config) {
  MiTables tables = mi_tables_grid(moving, config);
  build_mi_tables(fixed, moving, config, tables, nullptr);
  return tables;
}

/// evaluate() maps the sample columns in blocks of this many.
constexpr std::size_t kBlock = 8;

}  // namespace

std::pair<double, double> intensity_range(const ImageF& img) {
  return collective_range(img, nullptr);
}

MiTables mi_tables_grid(const ImageF& moving, const MiConfig& config) {
  NEURO_REQUIRE(config.bins >= 2 && config.bins <= MiTables::kMaxBins,
                "mutual_information: bins must lie in [2, 255]");
  MiTables tables;
  tables.bins = config.bins;
  tables.cells.assign(moving.size(), MiTables::kMixedCell);
  return tables;
}

void build_mi_tables(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
                     MiTables& tables, par::Communicator* comm) {
  NEURO_REQUIRE(tables.bins == config.bins && tables.cells.size() == moving.size(),
                "build_mi_tables: tables not from mi_tables_grid for this image and config");
  const auto fixed_range = collective_range(fixed, comm);
  const auto moving_range = collective_range(moving, comm);
  const JointHistogram bins(config.bins, fixed_range.first, fixed_range.second,
                            moving_range.first, moving_range.second);
  const par::BlockRange slab = par::block_range(moving.dims().z, comm);
  std::int64_t single = fill_cells(moving, bins, slab.begin, slab.end, tables.cells.data());
  if (comm != nullptr) single = comm->allreduce_sum(single);
  if (comm == nullptr || comm->rank() == 0) {
    tables.fixed_range = fixed_range;
    tables.moving_range = moving_range;
    tables.single_bin_cells = single;
  }
  par::barrier(comm);  // every rank reads every rank's cells and rank 0's fields
}

MiSampler::MiSampler(const ImageF& fixed, const ImageF& moving, const MiConfig& config,
                     par::Communicator* comm)
    : moving_(&moving),
      comm_(comm),
      own_tables_(own_tables(fixed, moving, config)),
      tables_(&own_tables_),
      hist_(histogram_of(own_tables_)) {
  init(fixed, config);
}

MiSampler::MiSampler(const ImageF& fixed, const ImageF& moving, const MiTables& tables,
                     const MiConfig& config, par::Communicator* comm)
    : moving_(&moving), comm_(comm), tables_(&tables), hist_(histogram_of(tables)) {
  init(fixed, config);
}

void MiSampler::init(const ImageF& fixed, const MiConfig& config) {
  NEURO_REQUIRE(config.sample_stride >= 1, "mutual_information: bad sample stride");
  NEURO_REQUIRE(tables_->bins == config.bins && tables_->cells.size() == moving_->size(),
                "MiSampler: tables not built for this moving image and config");
  const int stride = config.sample_stride;
  const IVec3 d = fixed.dims();
  const Vec3 o = fixed.origin();
  const Vec3 s = fixed.spacing();
  const par::BlockRange slab = par::block_range((d.z + stride - 1) / stride, comm_);
  // voxel_to_physical's expressions, one axis at a time.
  columns_ = static_cast<std::size_t>((d.x + stride - 1) / stride);
  xs_.assign((columns_ + kBlock - 1) / kBlock * kBlock, 0.0);
  for (std::size_t c = 0; c < columns_; ++c) {
    xs_[c] = o.x + static_cast<double>(static_cast<int>(c) * stride) * s.x;
  }
  for (int j = 0; j < d.y; j += stride) ys_.push_back(o.y + static_cast<double>(j) * s.y);
  for (int k = slab.begin * stride; k < slab.end * stride; k += stride) {
    zs_.push_back(o.z + static_cast<double>(k) * s.z);
  }
  fixed_bins_.reserve(zs_.size() * ys_.size() * columns_);
  for (int k = slab.begin * stride; k < slab.end * stride; k += stride) {
    for (int j = 0; j < d.y; j += stride) {
      for (int i = 0; i < d.x; i += stride) {
        fixed_bins_.push_back(static_cast<std::uint8_t>(
            hist_.fixed_bin(static_cast<double>(fixed(i, j, k)))));
      }
    }
  }
  col_x_.resize(xs_.size());
  col_y_.resize(xs_.size());
  col_z_.resize(xs_.size());
}

// The per-sample arithmetic is the serial loop's, in the serial order within
// each slab; only integer counts cross ranks, so the MI is rank-count
// invariant. RigidTransform::apply(R, p) rounds row r of R·(p − c) as
// (m[3r]·vx + m[3r+1]·vy) + m[3r+2]·vz, then adds c and t; the kernel forms
// the same products and sums in the same order, but takes the vx products once
// per column and the vy and vz products once per row. The voxel coordinates
// are physical_to_voxel's expressions, computed for blocks of kBlock columns
// on stack arrays (the compiler vectorizes them with the same IEEE
// operations). The interpolation is sample_trilinear's (same edge rule, same
// lerps) without its clamps, which are no-ops past the in-bounds test (-0.0
// included); a sample whose cell is single-bin takes the table's bin, which
// is the bin of any value the lerps can produce there.
NEURO_BITEXACT
double MiSampler::evaluate(const RigidTransform& transform) const {
  obs::Span span = obs::global_span("reg.mi_eval");
  if (span.active()) span.attr("samples", static_cast<std::int64_t>(samples()));
  hist_.clear();
  const std::array<double, 9> m = transform.rotation_matrix().m;
  const Vec3 center = transform.center;
  const Vec3 shift{transform.translation[0], transform.translation[1],
                   transform.translation[2]};
  const ImageF& moving = *moving_;
  const Vec3 origin = moving.origin();
  const Vec3 spacing = moving.spacing();
  const IVec3 md = moving.dims();
  const double x_max = md.x - 1, y_max = md.y - 1, z_max = md.z - 1;
  const float* data = moving.data().data();
  const std::uint8_t* cells = tables_->cells.data();
  const std::size_t sy = static_cast<std::size_t>(md.x);
  const std::size_t sz = sy * static_cast<std::size_t>(md.y);
  double* const col_x = col_x_.data();
  double* const col_y = col_y_.data();
  double* const col_z = col_z_.data();
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const double vx = xs_[i] - center.x;
    col_x[i] = m[0] * vx;
    col_y[i] = m[3] * vx;
    col_z[i] = m[6] * vx;
  }
  std::int64_t interpolated = 0;
  const std::uint8_t* fixed_bin = fixed_bins_.data();
  for (const double pz : zs_) {
    const double vz = pz - center.z;
    const double zx = m[2] * vz, zy = m[5] * vz, zz = m[8] * vz;
    for (const double py : ys_) {
      const double vy = py - center.y;
      const double yx = m[1] * vy, yy = m[4] * vy, yz = m[7] * vy;
      for (std::size_t i0 = 0; i0 < columns_; i0 += kBlock) {
        double xb[kBlock], yb[kBlock], zb[kBlock];
        for (std::size_t l = 0; l < kBlock; ++l) {
          xb[l] = (col_x[i0 + l] + yx + zx + center.x + shift.x - origin.x) / spacing.x;
          yb[l] = (col_y[i0 + l] + yy + zy + center.y + shift.y - origin.y) / spacing.y;
          zb[l] = (col_z[i0 + l] + yz + zz + center.z + shift.z - origin.z) / spacing.z;
        }
        const std::size_t n = std::min(kBlock, columns_ - i0);
        for (std::size_t l = 0; l < n; ++l) {
          const double x = xb[l], y = yb[l], z = zb[l];
          if (x < 0 || y < 0 || z < 0 || x > x_max || y > y_max || z > z_max) continue;
          const int i = static_cast<int>(x), j = static_cast<int>(y), k = static_cast<int>(z);
          const std::size_t cell = static_cast<std::size_t>(i) +
                                   sy * static_cast<std::size_t>(j) +
                                   sz * static_cast<std::size_t>(k);
          if (cells[cell] != MiTables::kMixedCell) {
            hist_.add_bins(fixed_bin[l], cells[cell]);
            continue;
          }
          ++interpolated;
          const std::size_t di = i + 1 < md.x ? 1 : 0;
          const std::size_t dj = j + 1 < md.y ? sy : 0;
          const std::size_t dk = k + 1 < md.z ? sz : 0;
          const double fx = x - i, fy = y - j, fz = z - k;
          const float* c = data + cell;
          auto v = [c](std::size_t off) { return static_cast<double>(c[off]); };
          const double c00 = v(0) * (1 - fx) + v(di) * fx;
          const double c10 = v(dj) * (1 - fx) + v(dj + di) * fx;
          const double c01 = v(dk) * (1 - fx) + v(dk + di) * fx;
          const double c11 = v(dk + dj) * (1 - fx) + v(dk + dj + di) * fx;
          const double c0 = c00 * (1 - fy) + c10 * fy;
          const double c1 = c01 * (1 - fy) + c11 * fy;
          hist_.add_bins(fixed_bin[l], hist_.moving_bin(c0 * (1 - fz) + c1 * fz));
        }
        fixed_bin += n;
      }
    }
  }
  if (comm_ != nullptr) hist_.allreduce(*comm_);
  if (span.active()) span.attr("interpolated", interpolated);
  return hist_.mutual_information();
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
