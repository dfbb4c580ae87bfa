// Typed, recoverable error propagation.
//
// NEURO_CHECK (base/check.h) is reserved for true invariant corruption: a
// violated internal consistency condition aborts the run, because continuing
// would ship garbage to the operating-room display. Everything else that can
// go wrong intraoperatively — a stagnating Krylov solve, a NaN in the
// iterate, a dropped SPMD message, a blown stage deadline — is *recoverable*:
// the pipeline has a degradation ladder (docs/robustness.md) that can still
// deliver a usable field. Those failures propagate as values: a Status names
// what happened, an Outcome<T> carries either the result or the Status, and
// StatusError wraps a Status for the few places (SPMD rank bodies) where an
// exception is the only way out of a call stack.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

#include "base/check.h"

namespace neuro::base {

/// The failure taxonomy of the intraoperative pipeline. Every code except kOk
/// names a *recoverable* fault class the degradation ladder knows how to
/// handle; invariant corruption never gets a code — it aborts via NEURO_CHECK.
enum class StatusCode : std::uint8_t {
  kOk,
  kDeadlineExceeded,   ///< a stage or solver ran out of its time budget
  kSolverStagnated,    ///< residual plateaued below useful progress
  kSolverDiverged,     ///< residual grew past the divergence bound
  kNumericalInvalid,   ///< NaN/Inf in an iterate, RHS, or result field
  kCommFault,          ///< dropped/corrupted/unmatched SPMD message, stalled rank
  kValidationFailed,   ///< a candidate field failed the acceptance gate
  kFailedPrecondition, ///< inputs outside the contract, detected before work
  kUnavailable,        ///< a requested fallback resource does not exist
  kResourceExhausted,  ///< a bounded queue or pool is full; retry later
  kInvalidArgument,    ///< a parameter value outside its documented domain
};

/// Short stable name, e.g. "deadline_exceeded".
const char* status_code_name(StatusCode code);

/// A status code plus a human-readable context message. Default-constructed
/// Status is OK; error statuses carry the code and message of the failure.
/// [[nodiscard]] at class level: a dropped Status is a swallowed deadline
/// violation or solver fault — discard only via NEURO_STATUS_IGNORED(expr,
/// reason) (base/numerics_annotations.h), which keeps the reason grep-able.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "solver_stagnated: residual plateaued at 3.2e-05 over 50 iterations".
  [[nodiscard]] std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Exception carrier for a Status, for call stacks that cannot return values
/// (SPMD rank bodies, deep stage internals). Derives from CheckError so
/// legacy catch sites keep working; new code should catch StatusError and
/// consult status().code() instead of string-matching.
class StatusError : public CheckError {
 public:
  explicit StatusError(Status status)
      : CheckError(status.to_string()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Either a T or the Status explaining why there is no T. The pipeline's
/// degradation ladder returns Outcome<DeformationResult>: callers inspect
/// status() instead of discovering a silent `converged = false` three layers
/// up. Accessing value() on an error outcome is itself invariant corruption
/// and aborts. [[nodiscard]] at class level, like Status: an unread Outcome
/// silently discards either the result or the failure explaining its absence.
template <class T>
class [[nodiscard]] Outcome {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): `return result;` at ladder exits
  Outcome(T value) : value_(std::move(value)), has_value_(true) {}
  // NOLINTNEXTLINE(google-explicit-constructor): `return status;` at ladder exits
  Outcome(Status status) : status_(std::move(status)) {
    NEURO_REQUIRE(!status_.ok(), "Outcome: error constructor needs a non-OK status");
  }

  [[nodiscard]] bool ok() const { return has_value_; }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() {
    NEURO_CHECK_MSG(has_value_, "Outcome::value() on error: " << status_);
    return value_;
  }
  [[nodiscard]] const T& value() const {
    NEURO_CHECK_MSG(has_value_, "Outcome::value() on error: " << status_);
    return value_;
  }

 private:
  Status status_;
  T value_{};
  bool has_value_ = false;
};

}  // namespace neuro::base
