// Shared ILU(0) kernel: in-place incomplete factorization of a local CSR
// block and the corresponding triangular solves. Used by the block-Jacobi
// preconditioner (diagonal block) and additive Schwarz (overlapping block).
#pragma once

#include <vector>

namespace neuro::solver {

/// An ILU(0) factorization of a square local CSR matrix whose rows have
/// sorted column indices. L is unit lower, U includes the diagonal; both are
/// stored in place over the input pattern.
class Ilu0Factor {
 public:
  /// Factors in place. `row_ptr`/`cols` describe the pattern (cols sorted per
  /// row, diagonal present); `values` is consumed. Throws on zero pivots or a
  /// structurally missing diagonal.
  void factor(std::vector<int> row_ptr, std::vector<int> cols,
              std::vector<double> values);

  /// out = (LU)⁻¹ in. Sizes must equal the factored dimension.
  void solve(const std::vector<double>& in, std::vector<double>& out) const;

  [[nodiscard]] int rows() const { return static_cast<int>(row_ptr_.size()) - 1; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

 private:
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<int> diag_pos_;
};

}  // namespace neuro::solver
