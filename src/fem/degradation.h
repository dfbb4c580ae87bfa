// Deadline-aware graceful degradation for the biomechanical solve.
//
// The clinical contract (PAPER.md): the surgeon needs a usable volumetric
// deformation field within the intraoperative deadline, every time. When the
// full solve cannot deliver — residual stagnation, a communication fault, a
// blown budget — the answer is not an abort but a *documented* step down a
// ladder of cheaper approximations, each gated by the same acceptance test
// (fem/field_validation.h):
//
//   rung 0  kFullSolve              the configured GMRES + block-Jacobi solve
//   rung 1  kRelaxedSolve           restarted GMRES, relaxed rtol, small
//                                   iteration budget; accepts the best-so-far
//                                   iterate when it improved the residual
//   rung 2  kBaselineInterpolation  IDW interpolation of the prescribed
//                                   surface displacements (no mechanics)
//   rung 3  kLastGood               the previous scan's validated field
//
// The DegradationReport records every attempt with its typed Status, so the
// Fig. 6-style timeline can show *why* a scan degraded, not just that it did.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "fem/baseline_interpolation.h"
#include "fem/deformation_solver.h"
#include "fem/field_validation.h"

namespace neuro::fem {

enum class DegradationRung : std::uint8_t {
  kFullSolve,
  kRelaxedSolve,
  kBaselineInterpolation,
  kLastGood,
};

/// Short stable name, e.g. "baseline_interpolation".
const char* degradation_rung_name(DegradationRung rung);

struct DegradationOptions {
  /// Rung 1 solver overrides: relaxed target and a small iteration budget.
  double relaxed_rtol = 1e-3;
  int relaxed_max_iterations = 200;
  /// Fractions of the stage budget allotted to rungs 0 and 1 (the remainder
  /// is headroom for the cheap rungs and the validation passes).
  double full_solve_fraction = 0.6;
  double relaxed_solve_fraction = 0.25;
  /// Acceptance gate applied to every rung's candidate field.
  FieldValidationOptions validation;
  /// Rung 2 on/off (benches comparing pure solver robustness turn it off).
  bool allow_baseline = true;
  /// Rung 3: the last validated field, one Vec3 per mesh node (typically the
  /// previous scan's result checkpointed by core::SurgerySession). Null when
  /// no such field exists; sizes other than num_nodes are ignored likewise.
  const std::vector<Vec3>* last_good = nullptr;
};

/// One ladder attempt and how it ended.
struct DegradationAttempt {
  DegradationRung rung = DegradationRung::kFullSolve;
  base::Status status;  ///< kOk when this rung's field was accepted
  double seconds = 0.0;
};

struct DegradationReport {
  bool degraded = false;  ///< false: rung 0 converged and validated
  DegradationRung rung = DegradationRung::kFullSolve;  ///< accepted rung
  base::Status trigger;   ///< what pushed the ladder off rung 0
  std::vector<DegradationAttempt> attempts;
  FieldValidationReport validation;  ///< report of the accepted field
};

/// The ladder's product: the deformation result of whichever rung was
/// accepted, plus the report of how it got there. Rungs 2 and 3 synthesize a
/// DeformationResult whose stats show the triggering solve (if any ran).
struct FallbackDeformationResult {
  DeformationResult deformation;
  DegradationReport report;
};

/// Runs the ladder until a rung's field passes validation or the ladder is
/// exhausted. Returns an error Outcome only when *every* rung failed; the
/// pipeline turns that into a hard stage failure. Invariant-corruption
/// exceptions (plain CheckError) are not caught — they are bugs, not faults.
[[nodiscard]] base::Outcome<FallbackDeformationResult>
solve_deformation_with_fallback(
    const mesh::TetMesh& mesh, const MaterialMap& materials,
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
    const DeformationSolveOptions& options, const DegradationOptions& degrade,
    const base::DeadlineBudget& budget);

}  // namespace neuro::fem
