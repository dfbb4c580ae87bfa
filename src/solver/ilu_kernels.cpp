#include "solver/ilu_kernels.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/numerics_annotations.h"

namespace neuro::solver {

namespace {

int find_col(const std::vector<int>& cols, int b, int e, int c) {
  const auto it = std::lower_bound(cols.begin() + b, cols.begin() + e, c);
  if (it != cols.begin() + e && *it == c) return static_cast<int>(it - cols.begin());
  return -1;
}

}  // namespace

void Ilu0Factor::factor(std::vector<int> row_ptr, std::vector<int> cols,
                        std::vector<double> values) {
  row_ptr_ = std::move(row_ptr);
  cols_ = std::move(cols);
  values_ = std::move(values);
  const int n = rows();
  diag_pos_.assign(static_cast<std::size_t>(n), -1);

  for (int i = 0; i < n; ++i) {
    const int b = row_ptr_[static_cast<std::size_t>(i)];
    const int e = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (int p = b; p < e; ++p) {
      const int k = cols_[static_cast<std::size_t>(p)];
      if (k >= i) break;
      const int dk = diag_pos_[static_cast<std::size_t>(k)];
      NEURO_CHECK_MSG(dk >= 0, "ILU(0): missing pivot for row " << k);
      const double pivot = values_[static_cast<std::size_t>(dk)];
      NEURO_CHECK_MSG(std::abs(pivot) > 1e-300, "ILU(0): zero pivot at row " << k);
      const double lik = values_[static_cast<std::size_t>(p)] / pivot;
      values_[static_cast<std::size_t>(p)] = lik;
      const int ke = row_ptr_[static_cast<std::size_t>(k) + 1];
      for (int q = dk + 1; q < ke; ++q) {
        const int j = cols_[static_cast<std::size_t>(q)];
        const int pos = find_col(cols_, p + 1, e, j);
        if (pos >= 0) {
          values_[static_cast<std::size_t>(pos)] -=
              lik * values_[static_cast<std::size_t>(q)];
        }
      }
    }
    const int dp = find_col(cols_, b, e, i);
    NEURO_REQUIRE(dp >= 0, "ILU(0): structurally missing diagonal at row " << i);
    diag_pos_[static_cast<std::size_t>(i)] = dp;
  }
}

// Sequential triangular sweeps: substitution order fixes the rounding, so the
// factor application is a pure function of (factor, input) bytes.
NEURO_BITEXACT
void Ilu0Factor::solve(const std::vector<double>& in, std::vector<double>& out) const {
  const int n = rows();
  NEURO_CHECK(static_cast<int>(in.size()) == n);
  out.resize(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    double acc = in[static_cast<std::size_t>(i)];
    for (int p = row_ptr_[static_cast<std::size_t>(i)];
         p < diag_pos_[static_cast<std::size_t>(i)]; ++p) {
      acc -= values_[static_cast<std::size_t>(p)] *
             out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = n - 1; i >= 0; --i) {
    double acc = out[static_cast<std::size_t>(i)];
    const int dp = diag_pos_[static_cast<std::size_t>(i)];
    for (int p = dp + 1; p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      acc -= values_[static_cast<std::size_t>(p)] *
             out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])];
    }
    out[static_cast<std::size_t>(i)] = acc / values_[static_cast<std::size_t>(dp)];
  }
}

}  // namespace neuro::solver
