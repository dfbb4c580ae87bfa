#include "image/filters.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/numerics_annotations.h"

namespace neuro {

namespace {

std::vector<double> gaussian_kernel(double sigma) {
  NEURO_REQUIRE(sigma > 0.0, "gaussian_smooth: sigma must be positive");
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<double> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-0.5 * (i * i) / (sigma * sigma));
    k[static_cast<std::size_t>(i + radius)] = w;
    sum += w;
  }
  for (auto& w : k) w /= sum;
  return k;
}

/// Convolves along one axis (0=x, 1=y, 2=z) with replicate boundaries. Every
/// output voxel sums kernel[t + r] * img(index + t, clamped along the axis) for
/// t = -r..r in that order, starting from 0.0, so each voxel gets the bits of
/// the plain per-voxel, per-tap loop. The x pass clamps only the x index, and
/// only near the row ends. The y and z passes add one x-row segment per tap
/// into a run of accumulators. The accumulators live on the stack: a small
/// heap buffer freed here lands above the output image in the heap and keeps
/// later freed images from going back to the system, which shows in peak RSS.
NEURO_BITEXACT
ImageF convolve_axis(const ImageF& img, const std::vector<double>& kernel, int axis) {
  ImageF out(img.dims(), 0.0f, img.spacing(), img.origin());
  const IVec3 d = img.dims();
  const int radius = static_cast<int>(kernel.size() / 2);
  const float* src = img.data().data();
  float* dst = out.data().data();
  if (axis == 0) {
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        const float* row = src + img.index(0, j, k);
        float* out_row = dst + img.index(0, j, k);
        for (int i = 0; i < d.x; ++i) {
          double acc = 0.0;
          if (i >= radius && i + radius < d.x) {
            const float* taps = row + (i - radius);
            for (std::size_t t = 0; t < kernel.size(); ++t) {
              acc += kernel[t] * static_cast<double>(taps[t]);
            }
          } else {
            for (int t = -radius; t <= radius; ++t) {
              acc += kernel[static_cast<std::size_t>(t + radius)] *
                     static_cast<double>(row[std::clamp(i + t, 0, d.x - 1)]);
            }
          }
          out_row[i] = static_cast<float>(acc);
        }
      }
    }
    return out;
  }
  constexpr int kSegment = 256;
  double acc[kSegment];
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      float* out_row = dst + img.index(0, j, k);
      for (int i0 = 0; i0 < d.x; i0 += kSegment) {
        const int n = std::min(kSegment, d.x - i0);
        std::fill_n(acc, n, 0.0);
        for (int t = -radius; t <= radius; ++t) {
          const int jj = axis == 1 ? std::clamp(j + t, 0, d.y - 1) : j;
          const int kk = axis == 2 ? std::clamp(k + t, 0, d.z - 1) : k;
          const float* row = src + img.index(i0, jj, kk);
          const double w = kernel[static_cast<std::size_t>(t + radius)];
          for (int i = 0; i < n; ++i) acc[i] += w * static_cast<double>(row[i]);
        }
        for (int i = 0; i < n; ++i) out_row[i0 + i] = static_cast<float>(acc[i]);
      }
    }
  }
  return out;
}

}  // namespace

ImageF gaussian_smooth(const ImageF& img, double sigma) {
  const auto kernel = gaussian_kernel(sigma);
  ImageF out = convolve_axis(img, kernel, 0);
  out = convolve_axis(out, kernel, 1);
  out = convolve_axis(out, kernel, 2);
  return out;
}

ImageV gradient(const ImageF& img) {
  ImageV out(img.dims(), Vec3{}, img.spacing(), img.origin());
  const IVec3 d = img.dims();
  const Vec3 inv2h{0.5 / img.spacing().x, 0.5 / img.spacing().y, 0.5 / img.spacing().z};
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        const double gx = (img.clamped(i + 1, j, k) - img.clamped(i - 1, j, k)) * inv2h.x;
        const double gy = (img.clamped(i, j + 1, k) - img.clamped(i, j - 1, k)) * inv2h.y;
        const double gz = (img.clamped(i, j, k + 1) - img.clamped(i, j, k - 1)) * inv2h.z;
        out(i, j, k) = {gx, gy, gz};
      }
    }
  }
  return out;
}

ImageF gradient_magnitude(const ImageF& img) {
  ImageV g = gradient(img);
  ImageF out(img.dims(), 0.0f, img.spacing(), img.origin());
  for (std::size_t i = 0; i < g.size(); ++i) {
    out.data()[i] = static_cast<float>(norm(g.data()[i]));
  }
  return out;
}

Vec3 sample_trilinear_vec(const ImageV& img, const Vec3& ijk) {
  const IVec3 d = img.dims();
  double x = ijk.x, y = ijk.y, z = ijk.z;
  x = x < 0 ? 0 : (x > d.x - 1 ? d.x - 1 : x);
  y = y < 0 ? 0 : (y > d.y - 1 ? d.y - 1 : y);
  z = z < 0 ? 0 : (z > d.z - 1 ? d.z - 1 : z);
  const int i0 = static_cast<int>(x), j0 = static_cast<int>(y), k0 = static_cast<int>(z);
  const int i1 = i0 + 1 < d.x ? i0 + 1 : i0;
  const int j1 = j0 + 1 < d.y ? j0 + 1 : j0;
  const int k1 = k0 + 1 < d.z ? k0 + 1 : k0;
  const double fx = x - i0, fy = y - j0, fz = z - k0;
  auto lerp = [](const Vec3& a, const Vec3& b, double t) { return a * (1 - t) + b * t; };
  const Vec3 c00 = lerp(img(i0, j0, k0), img(i1, j0, k0), fx);
  const Vec3 c10 = lerp(img(i0, j1, k0), img(i1, j1, k0), fx);
  const Vec3 c01 = lerp(img(i0, j0, k1), img(i1, j0, k1), fx);
  const Vec3 c11 = lerp(img(i0, j1, k1), img(i1, j1, k1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

void add_rician_noise(ImageF& img, double sigma, Rng& rng) {
  NEURO_REQUIRE(sigma >= 0.0, "add_rician_noise: sigma must be non-negative");
  // NEURO_NONDET_OK(sentinel check: exact 0.0 means "noise disabled", not a computed value)
  if (sigma == 0.0) return;
  for (auto& v : img.data()) {
    const double a = static_cast<double>(v) + sigma * rng.normal();
    const double b = sigma * rng.normal();
    v = static_cast<float>(std::sqrt(a * a + b * b));
  }
}

void apply_intensity_drift(ImageF& img, double amplitude) {
  const IVec3 d = img.dims();
  for (int k = 0; k < d.z; ++k) {
    const double gain =
        1.0 + amplitude * std::cos(3.14159265358979323846 * k / std::max(1, d.z));
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        img(i, j, k) = static_cast<float>(img(i, j, k) * gain);
      }
    }
  }
}

ImageL dilate_label(const ImageL& labels, std::uint8_t label, int radius) {
  NEURO_REQUIRE(radius >= 0, "dilate_label: radius must be non-negative");
  ImageL current(labels.dims(), 0, labels.spacing(), labels.origin());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    current.data()[i] = labels.data()[i] == label ? 1 : 0;
  }
  const IVec3 d = labels.dims();
  for (int step = 0; step < radius; ++step) {
    ImageL next = current;
    for (int k = 0; k < d.z; ++k) {
      for (int j = 0; j < d.y; ++j) {
        for (int i = 0; i < d.x; ++i) {
          if (current(i, j, k)) continue;
          const bool touch = (i > 0 && current(i - 1, j, k)) ||
                             (i + 1 < d.x && current(i + 1, j, k)) ||
                             (j > 0 && current(i, j - 1, k)) ||
                             (j + 1 < d.y && current(i, j + 1, k)) ||
                             (k > 0 && current(i, j, k - 1)) ||
                             (k + 1 < d.z && current(i, j, k + 1));
          if (touch) next(i, j, k) = 1;
        }
      }
    }
    current = std::move(next);
  }
  return current;
}

ImageF resample_to_grid(const ImageF& img, IVec3 new_dims) {
  NEURO_REQUIRE(new_dims.x > 0 && new_dims.y > 0 && new_dims.z > 0,
                "resample_to_grid: dims must be positive");
  const IVec3 d = img.dims();
  // Preserve the physical extent: new_spacing * new_dims = spacing * dims.
  const Vec3 new_spacing{img.spacing().x * d.x / new_dims.x,
                         img.spacing().y * d.y / new_dims.y,
                         img.spacing().z * d.z / new_dims.z};
  ImageF out(new_dims, 0.0f, new_spacing, img.origin());
  for (int k = 0; k < new_dims.z; ++k) {
    for (int j = 0; j < new_dims.y; ++j) {
      for (int i = 0; i < new_dims.x; ++i) {
        const Vec3 p = out.voxel_to_physical(i, j, k);
        out(i, j, k) = static_cast<float>(sample_physical(img, p));
      }
    }
  }
  return out;
}

ImageF match_histogram(const ImageF& moving, const ImageF& reference, int bins) {
  NEURO_REQUIRE(bins >= 2, "match_histogram: need at least 2 bins");
  auto range_of = [](const ImageF& im) {
    double lo = 1e300, hi = -1e300;
    for (const float v : im.data()) {
      lo = std::min(lo, static_cast<double>(v));
      hi = std::max(hi, static_cast<double>(v));
    }
    if (hi <= lo) hi = lo + 1.0;
    return std::pair<double, double>{lo, hi};
  };
  const auto [mlo, mhi] = range_of(moving);
  const auto [rlo, rhi] = range_of(reference);

  auto cdf_of = [&](const ImageF& im, double lo, double hi) {
    std::vector<double> hist(static_cast<std::size_t>(bins), 0.0);
    for (const float v : im.data()) {
      int b = static_cast<int>((v - lo) / (hi - lo) * bins);
      b = std::clamp(b, 0, bins - 1);
      hist[static_cast<std::size_t>(b)] += 1.0;
    }
    for (int b = 1; b < bins; ++b) {
      hist[static_cast<std::size_t>(b)] += hist[static_cast<std::size_t>(b) - 1];
    }
    for (auto& v : hist) v /= hist.back();
    return hist;
  };
  const auto moving_cdf = cdf_of(moving, mlo, mhi);
  const auto ref_cdf = cdf_of(reference, rlo, rhi);

  // Per-bin lookup: moving bin b (CDF value c) → reference intensity whose
  // CDF first reaches c.
  std::vector<float> lut(static_cast<std::size_t>(bins));
  int rb = 0;
  for (int b = 0; b < bins; ++b) {
    const double c = moving_cdf[static_cast<std::size_t>(b)];
    while (rb < bins - 1 && ref_cdf[static_cast<std::size_t>(rb)] < c) ++rb;
    lut[static_cast<std::size_t>(b)] =
        static_cast<float>(rlo + (rb + 0.5) / bins * (rhi - rlo));
  }

  ImageF out = moving;
  for (auto& v : out.data()) {
    int b = static_cast<int>((v - mlo) / (mhi - mlo) * bins);
    b = std::clamp(b, 0, bins - 1);
    v = lut[static_cast<std::size_t>(b)];
  }
  return out;
}

namespace {

template <typename Acc>
double masked_reduce(const ImageF& a, const ImageF& b, const ImageL* mask, Acc acc,
                     bool rms) {
  NEURO_REQUIRE(a.dims() == b.dims(), "difference: image dims mismatch");
  if (mask != nullptr) {
    NEURO_REQUIRE(a.dims() == mask->dims(), "difference: mask dims mismatch");
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mask != nullptr && mask->data()[i] == 0) continue;
    sum += acc(static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]));
    ++n;
  }
  if (n == 0) return 0.0;
  const double mean = sum / static_cast<double>(n);
  return rms ? std::sqrt(mean) : mean;
}

}  // namespace

double mean_abs_difference(const ImageF& a, const ImageF& b, const ImageL* mask) {
  return masked_reduce(a, b, mask, [](double d) { return std::abs(d); }, false);
}

double rms_difference(const ImageF& a, const ImageF& b, const ImageL* mask) {
  return masked_reduce(a, b, mask, [](double d) { return d * d; }, true);
}

}  // namespace neuro
