#include "solver/krylov.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <sstream>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neuro::solver {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged: return "converged";
    case StopReason::kMaxIterations: return "max_iterations";
    case StopReason::kStagnated: return "stagnated";
    case StopReason::kDiverged: return "diverged";
    case StopReason::kNumericalInvalid: return "numerical_invalid";
    case StopReason::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

namespace {

DistVector like(const DistVector& v) {
  return DistVector(v.global_size(), v.range());
}

/// One watchdog per solve (see WatchdogConfig). poll() returns kConverged
/// while the iteration may continue, the stop reason otherwise; message()
/// then carries the diagnostic detail. Every test except the deadline runs on
/// collective-identical residuals, so all ranks reach the same verdict at the
/// same sample without communicating; the deadline is a collective vote.
class Watchdog {
 public:
  Watchdog(const WatchdogConfig& config, par::Communicator& comm)
      : config_(config), comm_(comm) {}

  StopReason poll(double residual, double initial_residual) {
    ++samples_;
    if (config_.check_finite && !std::isfinite(residual)) {
      std::ostringstream oss;
      oss << "residual became non-finite (" << residual << ") at sample "
          << samples_;
      message_ = oss.str();
      return StopReason::kNumericalInvalid;
    }
    if (config_.divergence_factor > 0.0 && initial_residual > 0.0 &&
        residual > config_.divergence_factor * initial_residual) {
      std::ostringstream oss;
      oss << "residual " << residual << " exceeded " << config_.divergence_factor
          << " x initial (" << initial_residual << ")";
      message_ = oss.str();
      return StopReason::kDiverged;
    }
    if (config_.stagnation_window > 0) {
      window_.push_back(residual);
      const auto span = static_cast<std::size_t>(config_.stagnation_window) + 1;
      if (window_.size() > span) window_.pop_front();
      if (window_.size() == span &&
          window_.back() >
              (1.0 - config_.stagnation_min_decrease) * window_.front()) {
        std::ostringstream oss;
        oss << "residual plateaued at " << residual << " over the last "
            << config_.stagnation_window << " iterations";
        message_ = oss.str();
        return StopReason::kStagnated;
      }
    }
    if (config_.deadline_seconds > 0.0 &&
        samples_ % std::max(1, config_.deadline_check_interval) == 0) {
      // Wall clocks differ between ranks; vote so every rank stops together.
      const double elapsed =
          // NEURO_NONDET_OK(deadline watchdog: outcome is allreduce-voted, rank-uniform, fault-path only)
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
              .count();
      const int expired = elapsed >= config_.deadline_seconds ? 1 : 0;
      if (comm_.allreduce_max(expired) != 0) {
        std::ostringstream oss;
        oss << "solve deadline of " << config_.deadline_seconds
            << " s passed after " << samples_ << " iterations";
        message_ = oss.str();
        return StopReason::kDeadlineExceeded;
      }
    }
    return StopReason::kConverged;
  }

  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  WatchdogConfig config_;
  par::Communicator& comm_;
  // NEURO_NONDET_OK(deadline watchdog epoch: feeds only the voted deadline check above)
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::deque<double> window_;
  int samples_ = 0;
  std::string message_;
};

/// Marks a watchdog stop in the flight-recorder ring and metrics registry: a
/// "watchdog.fire" span carrying the reason and last residual, plus a
/// solver.watchdog_fires.<reason> counter. Rank threads never write a
/// post-mortem bundle themselves — the degradation ladder / service layer
/// turns the surfaced stop into a dump once the ranks have joined.
void note_watchdog_fire(StopReason stop, double residual, const std::string& message) {
  obs::metrics()
      .counter(std::string("solver.watchdog_fires.") + stop_reason_name(stop))
      .add(1);
  obs::Span fire = obs::global_span("watchdog.fire");
  if (fire.active()) {
    fire.attr("solver", "gmres");
    fire.attr("reason", stop_reason_name(stop));
    fire.attr("residual", residual);
    fire.attr("detail", message);
  }
}

}  // namespace

double true_residual_norm(const DistCsrMatrix& A, const DistVector& b,
                          const DistVector& x, par::Communicator& comm) {
  DistVector r = like(b);
  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  return r.norm2(comm);
}

SolveStats gmres(const DistCsrMatrix& A, const DistVector& b, DistVector& x,
                 const BlockJacobiIlu0& M, const SolverConfig& config,
                 par::Communicator& comm) {
  NEURO_REQUIRE(config.gmres_restart >= 1, "gmres: restart must be >= 1");
  const int m = config.gmres_restart;
  SolveStats stats;

  DistVector r = like(b);
  DistVector w = like(b);
  DistVector z = like(b);

  // Initial residual r = b - A x.
  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  double beta = r.norm2(comm);
  stats.initial_residual = beta;
  stats.final_residual = beta;
  if (config.record_history) stats.history.push_back(beta);
  if (beta <= config.atol) {
    stats.converged = true;
    stats.stop_reason = StopReason::kConverged;
    return stats;
  }
  const double target = std::max(config.rtol * beta, config.atol);
  Watchdog watchdog(config.watchdog, comm);
  StopReason stop = StopReason::kConverged;

  std::vector<DistVector> V(static_cast<std::size_t>(m) + 1, like(b));
  // Hessenberg (column-major: H[j] has j+2 entries) and Givens rotations.
  std::vector<std::vector<double>> H(static_cast<std::size_t>(m));
  std::vector<double> cs(static_cast<std::size_t>(m)), sn(static_cast<std::size_t>(m));
  std::vector<double> g(static_cast<std::size_t>(m) + 1);

  while (stats.iterations < config.max_iterations) {
    // Restart cycle.
    V[0] = r;
    V[0].scale(1.0 / beta, comm);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && stats.iterations < config.max_iterations; ++j) {
      // Per-iteration telemetry: the span covers the full Arnoldi step and
      // carries the residual plus the allreduce count actually spent on it
      // (WorkCounter delta): j+2 at step j under modified Gram–Schmidt, so
      // the O(m²) collective budget per restart cycle shows in the trace.
      obs::Span iter_span = obs::global_span("gmres.iteration");
      const double rounds_before =
          iter_span.active() ? comm.work().current().coll_rounds : 0.0;
      // w = A M⁻¹ v_j (right preconditioning).
      M.apply(V[static_cast<std::size_t>(j)], z, comm);
      A.apply(z, w, comm);
      ++stats.iterations;

      auto& h = H[static_cast<std::size_t>(j)];
      h.assign(static_cast<std::size_t>(j) + 2, 0.0);
      // Modified Gram–Schmidt: one global reduction per projection, each
      // against the already-updated w.
      for (int i = 0; i <= j; ++i) {
        const double hij = w.dot(V[static_cast<std::size_t>(i)], comm);
        h[static_cast<std::size_t>(i)] = hij;
        w.axpy(-hij, V[static_cast<std::size_t>(i)], comm);
      }
      const double hlast = w.norm2(comm);
      h[static_cast<std::size_t>(j) + 1] = hlast;

      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
                         sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i)] = t;
      }
      // New rotation eliminating h[j+1].
      const double denom = std::hypot(h[static_cast<std::size_t>(j)],
                                      h[static_cast<std::size_t>(j) + 1]);
      if (denom <= 1e-300) {
        // Lucky breakdown: exact solution in the current subspace.
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j)] / denom;
        sn[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j) + 1] / denom;
      }
      h[static_cast<std::size_t>(j)] = denom;
      h[static_cast<std::size_t>(j) + 1] = 0.0;
      g[static_cast<std::size_t>(j) + 1] = -sn[static_cast<std::size_t>(j)] *
                                           g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] *= cs[static_cast<std::size_t>(j)];

      const double rho = std::abs(g[static_cast<std::size_t>(j) + 1]);
      stats.final_residual = rho;
      if (config.record_history) stats.history.push_back(rho);
      if (iter_span.active()) {
        iter_span.attr("iteration", stats.iterations);
        iter_span.attr("residual", rho);
        iter_span.attr("allreduces",
                       static_cast<std::int64_t>(
                           comm.work().current().coll_rounds - rounds_before));
        obs::counter("gmres.residual", rho);
      }

      if (hlast <= 1e-300 || rho <= target) {
        ++j;
        break;
      }
      // The column is complete, so a watchdog stop here still yields a valid
      // best-so-far iterate from the back-substitution below.
      stop = watchdog.poll(rho, stats.initial_residual);
      if (stop != StopReason::kConverged) {
        note_watchdog_fire(stop, rho, watchdog.message());
        ++j;
        break;
      }
      V[static_cast<std::size_t>(j) + 1] = w;
      V[static_cast<std::size_t>(j) + 1].scale(1.0 / hlast, comm);
    }

    // Back-substitute y from the triangular H, then x += M⁻¹ (V y).
    std::vector<double> y(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k) {
        acc -= H[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] = acc / H[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    DistVector u = like(b);
    for (int i = 0; i < j; ++i) {
      u.axpy(y[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)], comm);
    }
    M.apply(u, z, comm);
    x.axpy(1.0, z, comm);

    // True residual for the restart test.
    A.apply(x, r, comm);
    r.scale(-1.0, comm);
    r.axpy(1.0, b, comm);
    beta = r.norm2(comm);
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      return stats;
    }
    if (stop != StopReason::kConverged) {
      // Watchdog stop: x already holds the best-so-far iterate.
      stats.stop_reason = stop;
      stats.stop_message = watchdog.message();
      return stats;
    }
  }
  stats.converged = stats.final_residual <= target;
  if (stats.converged) {
    stats.stop_reason = StopReason::kConverged;
  } else {
    std::ostringstream oss;
    oss << "gmres: " << config.max_iterations
        << " iterations exhausted at relative residual "
        << stats.relative_residual();
    stats.stop_message = oss.str();
  }
  return stats;
}

}  // namespace neuro::solver
