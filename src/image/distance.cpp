#include "image/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "base/check.h"
#include "base/numerics_annotations.h"
#include "obs/trace.h"

namespace neuro {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One rank's scratch for the 1-D transforms: the gathered line, the lower
/// envelope's parabola apexes and breakpoints, and the transformed line.
/// Sized once for the longest axis, so no line allocates.
struct LineScratch {
  explicit LineScratch(int n)
      : line(static_cast<std::size_t>(n)),
        apex(static_cast<std::size_t>(n)),
        bound(static_cast<std::size_t>(n) + 1),
        out(static_cast<std::size_t>(n)) {}
  std::vector<double> line;
  std::vector<int> apex;
  std::vector<double> bound;
  std::vector<double> out;
};

/// 1-D squared-distance transform (Felzenszwalb–Huttenlocher lower envelope)
/// of the first `n` samples of s.line, written to s.out. A sample holds the
/// squared distance on input (kInf where no feature); `step` is the physical
/// sample spacing. Returns false, leaving s.out untouched, when the line has
/// no feature.
NEURO_BITEXACT
bool edt_1d(int n, double step, LineScratch& s) {
  const double* f = s.line.data();
  int* v = s.apex.data();   // parabola apex positions (in index units)
  double* z = s.bound.data();  // envelope breakpoints
  const double s2 = step * step;

  // Skip leading samples with no parabola (infinite input).
  int q0 = 0;
  while (q0 < n && f[q0] == kInf) ++q0;
  if (q0 == n) return false;

  int k = 0;
  v[0] = q0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = q0 + 1; q < n; ++q) {
    if (f[q] == kInf) continue;
    double b;
    while (true) {
      const int p = v[k];
      b = ((f[q] + s2 * q * q) - (f[p] + s2 * p * p)) / (2.0 * s2 * (q - p));
      if (b <= z[k] && k > 0) {
        --k;
      } else {
        break;
      }
    }
    ++k;
    v[k] = q;
    z[k] = b;
    z[k + 1] = kInf;
  }

  int kk = 0;
  double* out = s.out.data();
  for (int q = 0; q < n; ++q) {
    while (z[kk + 1] < q) ++kk;
    const int p = v[kk];
    out[q] = s2 * (q - p) * (q - p) + f[p];
  }
  return true;
}

/// Transforms the line of `n` samples first[0], first[stride], ... and
/// returns the transformed samples (the gathered line itself when it holds no
/// feature, which leaves it all kInf).
const double* transform_line(const double* first, std::size_t stride, int n, double step,
                             LineScratch& s) {
  for (int q = 0; q < n; ++q) s.line[static_cast<std::size_t>(q)] = first[stride * q];
  return edt_1d(n, step, s) ? s.out.data() : s.line.data();
}

/// transform_line, written back in place.
void transform_line_in_place(double* first, std::size_t stride, int n, double step,
                             LineScratch& s) {
  const double* out = transform_line(first, stride, n, step, s);
  for (int q = 0; q < n; ++q) first[stride * q] = out[q];
}

/// Distance from a squared distance, saturated when `saturation` > 0.
float saturated_distance(double squared, double saturation) {
  double dist = squared == kInf ? (saturation > 0 ? saturation : 1e30) : std::sqrt(squared);
  if (saturation > 0.0) dist = std::min(dist, saturation);
  return static_cast<float>(dist);
}

/// Exact squared EDT to the voxels whose label satisfies `is_feature`, in
/// `sq`; calls emit(v, squared distance) once for every voxel index v. The x
/// and y passes run on this rank's z planes (a plane's y lines read only that
/// plane's x lines), the z pass on its y rows, with a barrier in between and
/// one after, so the next transform may reuse `sq`. Every line runs the same
/// expressions at any rank count, so the result is the serial one bit for bit.
template <typename IsFeature, typename Emit>
void edt_3d(const ImageL& labels, IsFeature is_feature, Image3D<double>& sq, Emit emit,
            par::Communicator* comm) {
  obs::Span span = obs::global_span("image.edt");
  if (span.active()) [[unlikely]] {
    span.attr("ranks", comm != nullptr ? comm->size() : 1);
    span.attr("voxels", static_cast<std::int64_t>(labels.size()));
  }
  const IVec3 d = labels.dims();
  const Vec3 h = labels.spacing();
  const auto nx = static_cast<std::size_t>(d.x);
  const std::size_t plane = nx * static_cast<std::size_t>(d.y);
  LineScratch s(std::max({d.x, d.y, d.z}));
  double* g = sq.data().data();
  const std::uint8_t* lab = labels.data().data();

  const par::BlockRange planes = par::block_range(d.z, comm);
  for (int k = planes.begin; k < planes.end; ++k) {
    double* p = g + plane * static_cast<std::size_t>(k);
    const std::uint8_t* lp = lab + plane * static_cast<std::size_t>(k);
    for (std::size_t v = 0; v < plane; ++v) p[v] = is_feature(lp[v]) ? 0.0 : kInf;
    for (int j = 0; j < d.y; ++j) {
      transform_line_in_place(p + nx * static_cast<std::size_t>(j), 1, d.x, h.x, s);
    }
    for (int i = 0; i < d.x; ++i) transform_line_in_place(p + i, nx, d.y, h.y, s);
  }
  par::barrier(comm);  // the z lines cross every rank's planes

  const par::BlockRange rows = par::block_range(d.y, comm);
  for (int j = rows.begin; j < rows.end; ++j) {
    for (int i = 0; i < d.x; ++i) {
      const std::size_t first = static_cast<std::size_t>(i) + nx * static_cast<std::size_t>(j);
      const double* out = transform_line(g + first, plane, d.z, h.z, s);
      for (int k = 0; k < d.z; ++k) emit(first + plane * static_cast<std::size_t>(k), out[k]);
    }
  }
  par::barrier(comm);  // every z line has read `sq`
}

void require_grids(const ImageL& labels, const ImageF& out, const Image3D<double>& squared) {
  NEURO_REQUIRE(out.same_grid(labels) && squared.same_grid(labels),
                "distance transform: output and working grids must match the labels'");
}

Image3D<double> squared_grid(const ImageL& labels) {
  return Image3D<double>(labels.dims(), 0.0, labels.spacing(), labels.origin());
}

/// An edt_3d emitter that stores each voxel's saturated distance in `out`.
auto store_distance(ImageF& out, double saturation) {
  return [o = out.data().data(), saturation](std::size_t v, double sq) {
    o[v] = saturated_distance(sq, saturation);
  };
}

}  // namespace

void distance_to_label(const ImageL& labels, std::uint8_t label, double saturation,
                       ImageF& out, Image3D<double>& squared, par::Communicator* comm) {
  require_grids(labels, out, squared);
  edt_3d(
      labels, [label](std::uint8_t v) { return v == label; }, squared,
      store_distance(out, saturation), comm);
}

void signed_distance_to_label(const ImageL& labels, std::uint8_t label,
                              double saturation, ImageF& out, Image3D<double>& squared,
                              par::Communicator* comm) {
  // Outside distance: distance to the region; inside distance: distance to
  // the complement. Signed distance = outside - inside (<= 0 inside).
  require_grids(labels, out, squared);
  edt_3d(
      labels, [label](std::uint8_t v) { return v == label; }, squared,
      store_distance(out, saturation), comm);
  edt_3d(
      labels, [label](std::uint8_t v) { return v != label; }, squared,
      [o = out.data().data(), saturation](std::size_t v, double sq) {
        o[v] = o[v] - saturated_distance(sq, saturation);
      },
      comm);
}

ImageF distance_to_label(const ImageL& labels, std::uint8_t label, double saturation) {
  ImageF out(labels.dims(), 0.0f, labels.spacing(), labels.origin());
  Image3D<double> squared = squared_grid(labels);
  distance_to_label(labels, label, saturation, out, squared, nullptr);
  return out;
}

ImageF signed_distance_to_label(const ImageL& labels, std::uint8_t label,
                                double saturation) {
  ImageF out(labels.dims(), 0.0f, labels.spacing(), labels.origin());
  Image3D<double> squared = squared_grid(labels);
  signed_distance_to_label(labels, label, saturation, out, squared, nullptr);
  return out;
}

ImageF distance_from_mask(const ImageL& mask, double saturation) {
  ImageF out(mask.dims(), 0.0f, mask.spacing(), mask.origin());
  Image3D<double> squared = squared_grid(mask);
  edt_3d(
      mask, [](std::uint8_t v) { return v != 0; }, squared, store_distance(out, saturation),
      nullptr);
  return out;
}

}  // namespace neuro
