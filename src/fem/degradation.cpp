#include "fem/degradation.h"

#include <sstream>
#include <utility>

#include "base/check.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/verify.h"

namespace neuro::fem {

const char* degradation_rung_name(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFullSolve: return "full_solve";
    case DegradationRung::kRelaxedSolve: return "relaxed_solve";
    case DegradationRung::kBaselineInterpolation: return "baseline_interpolation";
    case DegradationRung::kLastGood: return "last_good";
  }
  return "unknown";
}

namespace {

/// Maps a non-converged solve onto the failure taxonomy. kMaxIterations is
/// reported as stagnation: the iteration budget ran out without reaching the
/// target, which is indistinguishable from a plateau to the caller.
base::Status status_from_stats(const solver::SolveStats& stats) {
  base::StatusCode code = base::StatusCode::kSolverStagnated;
  switch (stats.stop_reason) {
    case solver::StopReason::kConverged:
      return {};
    case solver::StopReason::kMaxIterations:
    case solver::StopReason::kStagnated:
      code = base::StatusCode::kSolverStagnated;
      break;
    case solver::StopReason::kDiverged:
      code = base::StatusCode::kSolverDiverged;
      break;
    case solver::StopReason::kNumericalInvalid:
      code = base::StatusCode::kNumericalInvalid;
      break;
    case solver::StopReason::kDeadlineExceeded:
      code = base::StatusCode::kDeadlineExceeded;
      break;
  }
  std::string message = stats.stop_message;
  if (message.empty()) message = stop_reason_name(stats.stop_reason);
  return {code, std::move(message)};
}

/// One solve-rung attempt: runs the distributed solve, converts faults and
/// non-convergence into a typed Status, and gates the candidate field.
/// `accept_improved` is rung 1's best-so-far acceptance: a non-converged
/// iterate that still reduced the residual may pass (validation decides).
struct AttemptOutcome {
  bool accepted = false;
  base::Status status;
  DeformationResult result;
  FieldValidationReport validation;
};

AttemptOutcome run_solve_rung(
    const mesh::TetMesh& mesh, const MaterialMap& materials,
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
    const DeformationSolveOptions& options, bool accept_improved,
    const FieldValidationOptions& validation) {
  AttemptOutcome out;
  try {
    out.result = solve_deformation(mesh, materials, prescribed, options);
  } catch (const par::CommFaultError& e) {
    out.status = e.status();
    return out;
  } catch (const par::CollectiveMismatchError& e) {
    // Under NEURO_PAR_VERIFY an injected fault surfaces as a divergence
    // report; it is the same recoverable fault class.
    out.status = {base::StatusCode::kCommFault, e.what()};
    return out;
  } catch (const base::StatusError& e) {
    out.status = e.status();
    return out;
  }
  const solver::SolveStats& stats = out.result.stats;
  const bool improved = stats.final_residual < stats.initial_residual;
  if (!stats.converged && !(accept_improved && improved)) {
    out.status = status_from_stats(stats);
    return out;
  }
  out.validation = validate_displacement_field(
      mesh, out.result.node_displacements, validation);
  if (!out.validation.ok()) {
    out.status = out.validation.status;
    return out;
  }
  out.accepted = true;
  return out;
}

}  // namespace

base::Outcome<FallbackDeformationResult> solve_deformation_with_fallback(
    const mesh::TetMesh& mesh, const MaterialMap& materials,
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
    const DeformationSolveOptions& options, const DegradationOptions& degrade,
    const base::DeadlineBudget& budget) {
  FallbackDeformationResult out;
  DegradationReport& report = out.report;
  const auto record = [&report](DegradationRung rung, base::Status status,
                                double seconds) {
    obs::metrics()
        .counter(std::string("fem.rung_attempts.") + degradation_rung_name(rung))
        .add();
    report.attempts.push_back({rung, std::move(status), seconds});
  };
  // Each attempted rung gets one "fem.rung" span whose duration is exactly
  // the seconds recorded in the DegradationReport (span-as-stopwatch).
  const auto open_rung = [](DegradationRung rung) {
    obs::Span span = obs::timed_span("fem.rung");
    if (span.active()) span.attr("rung", degradation_rung_name(rung));
    return span;
  };
  const auto accept = [&](DegradationRung rung, AttemptOutcome&& attempt,
                          double seconds) {
    record(rung, {}, seconds);
    report.rung = rung;
    report.validation = attempt.validation;
    out.deformation = std::move(attempt.result);
  };
  // Leaving the full solve is a flight-recorder trigger: once the ladder
  // resolves (a degraded rung accepted, or every rung exhausted) the rank
  // threads have joined, so the orchestrating thread can safely dump a
  // post-mortem bundle carrying the trigger status and the rung chosen.
  const auto dump_postmortem = [&](const char* outcome) {
    obs::DumpContext context;
    context.detail = std::string("degradation ladder: ") + outcome + " (" +
                     report.trigger.message() + ")";
    context.attr("rung", degradation_rung_name(report.rung));
    context.attr("outcome", outcome);
    context.attr("trigger_status",
                 base::status_code_name(report.trigger.code()));
    context.attr("attempts", static_cast<std::int64_t>(report.attempts.size()));
    if (options.fault_injection.active()) {
      context.attr("fault_seed",
                   static_cast<std::int64_t>(options.fault_injection.seed));
    }
    obs::recorder().dump(
        obs::dump_trigger_from_status(report.trigger.code(),
                                      obs::DumpTrigger::kDegradation),
        context);
  };

  // Rung 0: the configured solve, watchdog armed from the budget.
  {
    DeformationSolveOptions opts = options;
    if (budget.limited()) {
      opts.solver.watchdog.deadline_seconds =
          budget.stage_allotment(degrade.full_solve_fraction);
    }
    obs::Span sw = open_rung(DegradationRung::kFullSolve);
    AttemptOutcome attempt = run_solve_rung(mesh, materials, prescribed, opts,
                                            false, degrade.validation);
    if (sw.active()) sw.attr("accepted", attempt.accepted ? 1 : 0);
    if (attempt.accepted) {
      accept(DegradationRung::kFullSolve, std::move(attempt), sw.close());
      return out;
    }
    report.trigger = attempt.status;
    record(DegradationRung::kFullSolve, std::move(attempt.status), sw.close());
  }
  report.degraded = true;

  // Rung 1: relaxed restarted GMRES, best-so-far acceptance. Skipped when
  // the budget is already gone — its time belongs to the cheap rungs now.
  if (!budget.expired()) {
    DeformationSolveOptions opts = options;
    opts.solver.rtol = degrade.relaxed_rtol;
    opts.solver.max_iterations = degrade.relaxed_max_iterations;
    if (budget.limited()) {
      opts.solver.watchdog.deadline_seconds =
          budget.stage_allotment(degrade.relaxed_solve_fraction);
    }
    obs::Span sw = open_rung(DegradationRung::kRelaxedSolve);
    AttemptOutcome attempt = run_solve_rung(mesh, materials, prescribed, opts,
                                            true, degrade.validation);
    if (sw.active()) sw.attr("accepted", attempt.accepted ? 1 : 0);
    if (attempt.accepted) {
      accept(DegradationRung::kRelaxedSolve, std::move(attempt), sw.close());
      dump_postmortem("degraded");
      return out;
    }
    record(DegradationRung::kRelaxedSolve, std::move(attempt.status),
           sw.close());
  } else {
    record(DegradationRung::kRelaxedSolve,
           budget.check("fem_fallback:relaxed_solve"), 0.0);
  }

  // Rung 2: geometric baseline. Purely local and cheap; runs even past the
  // deadline — a late usable field still beats none.
  if (degrade.allow_baseline) {
    obs::Span sw = open_rung(DegradationRung::kBaselineInterpolation);
    AttemptOutcome attempt;
    attempt.result.node_displacements =
        interpolate_surface_displacements(mesh, prescribed);
    attempt.result.num_equations = 3 * mesh.num_nodes();
    attempt.validation = validate_displacement_field(
        mesh, attempt.result.node_displacements, degrade.validation);
    if (sw.active()) sw.attr("accepted", attempt.validation.ok() ? 1 : 0);
    if (attempt.validation.ok()) {
      accept(DegradationRung::kBaselineInterpolation, std::move(attempt),
             sw.close());
      dump_postmortem("degraded");
      return out;
    }
    record(DegradationRung::kBaselineInterpolation, attempt.validation.status,
           sw.close());
  } else {
    record(DegradationRung::kBaselineInterpolation,
           {base::StatusCode::kUnavailable, "baseline rung disabled"}, 0.0);
  }

  // Rung 3: the previous validated field. Revalidated against this mesh —
  // checkpoints outlive the mesh they were computed on only by one scan, but
  // a wrong-size or stale field must not slip through.
  if (degrade.last_good != nullptr &&
      static_cast<int>(degrade.last_good->size()) == mesh.num_nodes()) {
    obs::Span sw = open_rung(DegradationRung::kLastGood);
    AttemptOutcome attempt;
    attempt.result.node_displacements = *degrade.last_good;
    attempt.result.num_equations = 3 * mesh.num_nodes();
    attempt.validation = validate_displacement_field(
        mesh, attempt.result.node_displacements, degrade.validation);
    if (sw.active()) sw.attr("accepted", attempt.validation.ok() ? 1 : 0);
    if (attempt.validation.ok()) {
      accept(DegradationRung::kLastGood, std::move(attempt), sw.close());
      dump_postmortem("degraded");
      return out;
    }
    record(DegradationRung::kLastGood, attempt.validation.status, sw.close());
  } else {
    record(DegradationRung::kLastGood,
           {base::StatusCode::kUnavailable, "no last-good field checkpointed"},
           0.0);
  }

  dump_postmortem("exhausted");
  std::ostringstream oss;
  oss << "degradation ladder exhausted; trigger: " << report.trigger;
  return base::Status{base::StatusCode::kUnavailable, oss.str()};
}

}  // namespace neuro::fem
