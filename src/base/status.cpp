#include "base/status.h"

namespace neuro::base {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kSolverStagnated: return "solver_stagnated";
    case StatusCode::kSolverDiverged: return "solver_diverged";
    case StatusCode::kNumericalInvalid: return "numerical_invalid";
    case StatusCode::kCommFault: return "comm_fault";
    case StatusCode::kValidationFailed: return "validation_failed";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInvalidArgument: return "invalid_argument";
  }
  return "unknown";
}

std::string Status::to_string() const {
  std::string out = status_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.to_string();
}

}  // namespace neuro::base
