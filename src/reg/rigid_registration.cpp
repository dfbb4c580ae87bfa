#include "reg/rigid_registration.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "base/check.h"
#include "base/numerics_annotations.h"
#include "image/filters.h"
#include "obs/trace.h"

namespace neuro::reg {

ImageF downsample2(const ImageF& img) {
  const IVec3 d = img.dims();
  const IVec3 nd{std::max(1, d.x / 2), std::max(1, d.y / 2), std::max(1, d.z / 2)};
  ImageF out(nd, 0.0f,
             {img.spacing().x * d.x / nd.x, img.spacing().y * d.y / nd.y,
              img.spacing().z * d.z / nd.z},
             img.origin());
  for (int k = 0; k < nd.z; ++k) {
    for (int j = 0; j < nd.y; ++j) {
      for (int i = 0; i < nd.x; ++i) {
        // Average the source block (folding any odd remainder into the last).
        const int i1 = (i + 1 == nd.x) ? d.x : 2 * (i + 1);
        const int j1 = (j + 1 == nd.y) ? d.y : 2 * (j + 1);
        const int k1 = (k + 1 == nd.z) ? d.z : 2 * (k + 1);
        double acc = 0.0;
        int n = 0;
        for (int kk = 2 * k; kk < k1; ++kk) {
          for (int jj = 2 * j; jj < j1; ++jj) {
            for (int ii = 2 * i; ii < i1; ++ii) {
              acc += static_cast<double>(img(ii, jj, kk));
              ++n;
            }
          }
        }
        out(i, j, k) = static_cast<float>(acc / n);
      }
    }
  }
  return out;
}

namespace {

/// The best point a line search found and its metric value.
struct LineMax {
  double t;
  double value;
};

/// Golden-section line search for the maximum of f on [a, b] after a simple
/// expansion bracketing around 0 with step `step`. `f_zero` is f(0), which the
/// caller already holds.
template <typename F>
NEURO_BITEXACT LineMax line_search_max(F&& f, double step, double f_zero) {
  // Bracket: evaluate at -step, 0, +step, expand toward the better side.
  double t0 = -step, t1 = 0.0, t2 = step;
  double f0 = f(t0), f1 = f_zero, f2 = f(t2);
  int guard = 0;
  while (guard++ < 12) {
    if (f1 >= f0 && f1 >= f2) break;  // bracketed
    if (f0 > f2) {
      t2 = t1; f2 = f1;
      t1 = t0; f1 = f0;
      t0 = t1 - 2.0 * (t2 - t1);
      f0 = f(t0);
    } else {
      t0 = t1; f0 = f1;
      t1 = t2; f1 = f2;
      t2 = t1 + 2.0 * (t1 - t0);
      f2 = f(t2);
    }
  }
  // Golden-section refinement on [t0, t2].
  constexpr double kInvPhi = 0.6180339887498949;
  double a = t0, b = t2;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double fx1 = f(x1), fx2 = f(x2);
  for (int it = 0; it < 18 && (b - a) > 1e-6 + 1e-3 * step; ++it) {
    if (fx1 >= fx2) {
      b = x2;
      x2 = x1; fx2 = fx1;
      x1 = b - kInvPhi * (b - a);
      fx1 = f(x1);
    } else {
      a = x1;
      x1 = x2; fx1 = fx2;
      x2 = a + kInvPhi * (b - a);
      fx2 = f(x2);
    }
  }
  return fx1 >= fx2 ? LineMax{x1, fx1} : LineMax{x2, fx2};
}

}  // namespace

RegistrationPyramid build_registration_pyramid(const ImageF& fixed, const ImageF& moving,
                                               const RigidRegistrationConfig& config) {
  NEURO_REQUIRE(config.pyramid_levels >= 1, "register_rigid_mi: need >= 1 level");
  RegistrationPyramid pyr;
  pyr.fixed.push_back(config.metric_smoothing_sigma > 0.0
                          ? gaussian_smooth(fixed, config.metric_smoothing_sigma)
                          : fixed);
  pyr.moving.push_back(config.metric_smoothing_sigma > 0.0
                           ? gaussian_smooth(moving, config.metric_smoothing_sigma)
                           : moving);
  for (int l = 1; l < config.pyramid_levels; ++l) {
    pyr.fixed.push_back(downsample2(pyr.fixed.back()));
    pyr.moving.push_back(downsample2(pyr.moving.back()));
  }
  const IVec3 fd = fixed.dims();
  pyr.center = fixed.voxel_to_physical(
      Vec3{(fd.x - 1) / 2.0, (fd.y - 1) / 2.0, (fd.z - 1) / 2.0});
  return pyr;
}

RigidRegistrationResult register_rigid_mi(const RegistrationPyramid& pyramid,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial,
                                          par::Communicator* comm) {
  const int levels = static_cast<int>(pyramid.fixed.size());
  NEURO_REQUIRE(levels >= 1 && pyramid.moving.size() == pyramid.fixed.size(),
                "register_rigid_mi: malformed pyramid");
  const bool use_mi = config.metric == MetricKind::kMutualInformation;

  RigidRegistrationResult result;
  std::array<double, 6> params = initial.params();
  int evals = 0;

  for (int l = levels - 1; l >= 0; --l) {
    obs::Span level_span = obs::global_span("reg.level");
    if (level_span.active()) level_span.attr("level", l);
    const ImageF& f_img = pyramid.fixed[static_cast<std::size_t>(l)];
    const ImageF& m_img = pyramid.moving[static_cast<std::size_t>(l)];
    std::optional<MiSampler> sampler;
    if (use_mi) sampler.emplace(f_img, m_img, config.mi, comm);

    auto metric = [&](const std::array<double, 6>& p) {
      ++evals;
      const RigidTransform t = RigidTransform::from_params(p, pyramid.center);
      // The optimizer maximizes; SSD enters negated.
      return use_mi ? sampler->evaluate(t)
                    : -mean_squared_difference(f_img, m_img, t, config.mi);
    };

    // Step sizes shrink on finer levels where the coarse solve got us close.
    const double scale = std::pow(0.5, levels - 1 - l);
    double best = metric(params);
    for (int sweep = 0; sweep < config.powell_iterations; ++sweep) {
      const double before = best;
      for (int dim = 0; dim < 6; ++dim) {
        const double step = (dim < 3 ? config.initial_rot_step
                                     : config.initial_trans_step) *
                            scale;
        auto line = [&](double t) {
          std::array<double, 6> p = params;
          p[static_cast<std::size_t>(dim)] += t;
          return metric(p);
        };
        // f(0) is `best` bit for bit: `best` was computed at params, or at the
        // probe whose `p[dim] += m.t` params just repeated. Adding 0.0 leaves
        // params unchanged unless one is -0.0, and x + t is -0.0 only when x
        // and t are, so params starting without -0.0 (the identity) never
        // hold one.
        const LineMax m = line_search_max(line, step, best);
        if (m.value > best) {
          best = m.value;
          params[static_cast<std::size_t>(dim)] += m.t;
        }
      }
      if (best - before < config.tolerance) break;
    }
    result.level_mi.push_back(best);
    result.mutual_information = best;
  }

  result.transform = RigidTransform::from_params(params, pyramid.center);
  result.metric_evaluations = evals;
  return result;
}

RigidRegistrationResult register_rigid_mi(const ImageF& fixed, const ImageF& moving,
                                          const RigidRegistrationConfig& config,
                                          const RigidTransform& initial,
                                          par::Communicator* comm) {
  return register_rigid_mi(build_registration_pyramid(fixed, moving, config), config,
                           initial, comm);
}

}  // namespace neuro::reg
