#include "solver/preconditioner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/numerics_annotations.h"

namespace neuro::solver {

namespace {

/// Extracts the local diagonal block with per-row sorted columns.
void sorted_local_block(const DistCsrMatrix& A, std::vector<int>& row_ptr,
                        std::vector<int>& cols, std::vector<double>& values) {
  A.extract_diagonal_block(row_ptr, cols, values);
  const int n = static_cast<int>(row_ptr.size()) - 1;
  std::vector<std::pair<int, double>> row;
  for (int r = 0; r < n; ++r) {
    const int b = row_ptr[static_cast<std::size_t>(r)];
    const int e = row_ptr[static_cast<std::size_t>(r) + 1];
    row.assign(static_cast<std::size_t>(e - b), {});
    for (int p = b; p < e; ++p) {
      row[static_cast<std::size_t>(p - b)] = {cols[static_cast<std::size_t>(p)],
                                              values[static_cast<std::size_t>(p)]};
    }
    std::sort(row.begin(), row.end());
    for (int p = b; p < e; ++p) {
      cols[static_cast<std::size_t>(p)] = row[static_cast<std::size_t>(p - b)].first;
      values[static_cast<std::size_t>(p)] = row[static_cast<std::size_t>(p - b)].second;
    }
  }
}

/// Binary search for column `c` in sorted row [b, e); -1 if absent.
int find_col(const std::vector<int>& cols, int b, int e, int c) {
  const auto it = std::lower_bound(cols.begin() + b, cols.begin() + e, c);
  if (it != cols.begin() + e && *it == c) return static_cast<int>(it - cols.begin());
  return -1;
}

}  // namespace

BlockJacobiIlu0::BlockJacobiIlu0(const DistCsrMatrix& A) {
  sorted_local_block(A, row_ptr_, cols_, values_);
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  diag_pos_.assign(static_cast<std::size_t>(n), -1);

  // Standard IKJ ILU(0): keep the sparsity pattern, drop all fill.
  for (int i = 0; i < n; ++i) {
    const int b = row_ptr_[static_cast<std::size_t>(i)];
    const int e = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (int p = b; p < e; ++p) {
      const int k = cols_[static_cast<std::size_t>(p)];
      if (k >= i) break;  // row is sorted; done with the strictly-lower part
      const int dk = diag_pos_[static_cast<std::size_t>(k)];
      NEURO_CHECK_MSG(dk >= 0, "ILU(0): missing pivot for row " << k);
      const double pivot = values_[static_cast<std::size_t>(dk)];
      NEURO_CHECK_MSG(std::abs(pivot) > 1e-300, "ILU(0): zero pivot at row " << k);
      const double lik = values_[static_cast<std::size_t>(p)] / pivot;
      values_[static_cast<std::size_t>(p)] = lik;
      // Subtract lik * U(k, j) for j > k where (i, j) exists in the pattern.
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
void BlockJacobiIlu0::apply(const DistVector& r, DistVector& z,
                            par::Communicator& comm) const {
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  NEURO_CHECK(r.local_size() == n && z.local_size() == n);
  auto& out = z.local();
  const auto& in = r.local();

  // Forward solve L y = r (unit lower triangle).
  for (int i = 0; i < n; ++i) {
    double acc = in[static_cast<std::size_t>(i)];
    for (int p = row_ptr_[static_cast<std::size_t>(i)];
         p < diag_pos_[static_cast<std::size_t>(i)]; ++p) {
      acc -= values_[static_cast<std::size_t>(p)] *
             out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  // Backward solve U z = y.
  for (int i = n - 1; i >= 0; --i) {
    double acc = out[static_cast<std::size_t>(i)];
    const int dp = diag_pos_[static_cast<std::size_t>(i)];
    for (int p = dp + 1; p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      acc -= values_[static_cast<std::size_t>(p)] *
             out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])];
    }
    out[static_cast<std::size_t>(i)] = acc / values_[static_cast<std::size_t>(dp)];
  }

  comm.work().add_flops(2.0 * static_cast<double>(values_.size()));
  comm.work().add_mem_bytes(12.0 * static_cast<double>(values_.size()) +
                            16.0 * static_cast<double>(n));
}

}  // namespace neuro::solver
