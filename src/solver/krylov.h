// The distributed Krylov solver: restarted GMRES with block-Jacobi ILU(0)
// preconditioning, the paper's configuration. It follows the PETSc structure
// the paper used: preconditioned iterations whose per-step cost is one SpMV
// (ghost exchange), one block-local preconditioner application, and a handful
// of global reductions — exactly the communication profile the paper's
// solve-phase scaling reflects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"
#include "solver/preconditioner.h"

namespace neuro::solver {

/// Why a Krylov solve returned. Everything except kConverged is a recoverable
/// outcome the degradation ladder (docs/robustness.md) maps to a typed
/// base::Status; none of these aborts.
enum class StopReason : std::uint8_t {
  kConverged,
  kMaxIterations,     ///< iteration budget exhausted without reaching target
  kStagnated,         ///< residual failed to decrease over the watchdog window
  kDiverged,          ///< residual grew past divergence_factor × initial
  kNumericalInvalid,  ///< NaN/Inf residual in the iteration
  kDeadlineExceeded,  ///< the watchdog wall-clock deadline passed
};

/// Short stable name, e.g. "stagnated".
const char* stop_reason_name(StopReason reason);

/// Early-stop detection for the iteration loop. Residual samples are
/// collective results (identical on every rank), so the finiteness,
/// divergence, and stagnation tests are rank-consistent *without*
/// communication. Only the wall-clock deadline is rank-local; it is decided
/// by an allreduce vote, and that collective is armed only when
/// deadline_seconds > 0 — with the deadline off, the solve's collective
/// sequence is exactly the pre-watchdog one.
struct WatchdogConfig {
  bool check_finite = true;        ///< stop on NaN/Inf residual
  double divergence_factor = 1e6;  ///< stop when residual exceeds this × initial; 0 = off
  int stagnation_window = 0;       ///< iterations without progress before stopping; 0 = off
  double stagnation_min_decrease = 1e-3;  ///< required relative decrease over the window
  double deadline_seconds = 0.0;   ///< wall-clock budget for this solve; 0 = off
  int deadline_check_interval = 10;  ///< residual samples between deadline votes
};

struct SolverConfig {
  int max_iterations = 1000;
  double rtol = 1e-7;   ///< relative to the initial (preconditioned) residual
  double atol = 1e-30;
  int gmres_restart = 30;
  bool record_history = false;
  WatchdogConfig watchdog;
};

struct SolveStats {
  bool converged = false;
  StopReason stop_reason = StopReason::kMaxIterations;
  std::string stop_message;     ///< diagnostic detail for non-converged stops
  int iterations = 0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  std::vector<double> history;  ///< residual per iteration when recorded

  [[nodiscard]] double relative_residual() const {
    return initial_residual > 0.0 ? final_residual / initial_residual : 0.0;
  }
};

/// Right-preconditioned restarted GMRES(m) with modified Gram–Schmidt: j+2
/// allreduces at Arnoldi step j (j+1 projections, then the norm).
SolveStats gmres(const DistCsrMatrix& A, const DistVector& b, DistVector& x,
                 const BlockJacobiIlu0& M, const SolverConfig& config,
                 par::Communicator& comm);

/// ‖b - A x‖₂ (collective) — independent verification of a solve.
double true_residual_norm(const DistCsrMatrix& A, const DistVector& b,
                          const DistVector& x, par::Communicator& comm);

}  // namespace neuro::solver
