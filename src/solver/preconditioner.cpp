#include "solver/preconditioner.h"

#include <algorithm>
#include <cmath>

#include "solver/additive_schwarz.h"

#include "base/check.h"

namespace neuro::solver {

void IdentityPreconditioner::apply(const DistVector& r, DistVector& z,
                                   par::Communicator& comm) const {
  z.local() = r.local();
  comm.work().add_mem_bytes(16.0 * static_cast<double>(r.local_size()));
}

JacobiPreconditioner::JacobiPreconditioner(const DistCsrMatrix& A) {
  const RowRange range = A.range();
  inv_diag_.resize(static_cast<std::size_t>(range.size()));
  for (const GlobalRow r : range) {
    const double d = A.value_at(r, r);
    NEURO_REQUIRE(std::abs(d) > 1e-300,
                  "JacobiPreconditioner: zero diagonal at row " << r);
    inv_diag_[static_cast<std::size_t>(range.offset_of(r))] = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(const DistVector& r, DistVector& z,
                                 par::Communicator& comm) const {
  NEURO_CHECK(static_cast<std::size_t>(r.local_size()) == inv_diag_.size());
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    z.local()[i] = r.local()[i] * inv_diag_[i];
  }
  comm.work().add_flops(static_cast<double>(inv_diag_.size()));
  comm.work().add_mem_bytes(24.0 * static_cast<double>(inv_diag_.size()));
}

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
  auto it = std::lower_bound(cols.begin() + b, cols.begin() + e, c);
  if (it != cols.begin() + e && *it == c) {
    return static_cast<int>(it - cols.begin());
  }
  return -1;
}

}  // namespace

BlockJacobiIlu0::BlockJacobiIlu0(const DistCsrMatrix& A) {
  sorted_local_block(A, row_ptr_, cols_, values_);
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  diag_pos_.resize(static_cast<std::size_t>(n), -1);

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
      const int kb = row_ptr_[static_cast<std::size_t>(k)];
      const int ke = row_ptr_[static_cast<std::size_t>(k) + 1];
      for (int q = dk + 1; q < ke; ++q) {
        const int j = cols_[static_cast<std::size_t>(q)];
        const int pos = find_col(cols_, p + 1, e, j);
        if (pos >= 0) {
          values_[static_cast<std::size_t>(pos)] -=
              lik * values_[static_cast<std::size_t>(q)];
        }
      }
      (void)kb;
    }
    const int dp = find_col(cols_, b, e, i);
    NEURO_REQUIRE(dp >= 0, "ILU(0): structurally missing diagonal at row " << i);
    diag_pos_[static_cast<std::size_t>(i)] = dp;
  }
}

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

BlockJacobiIc0::BlockJacobiIc0(const DistCsrMatrix& A) {
  // Extract the sorted lower triangle (including the diagonal, which ends up
  // last in each row because columns are sorted and col <= row).
  std::vector<int> full_rp, full_cols;
  std::vector<double> full_vals;
  sorted_local_block(A, full_rp, full_cols, full_vals);
  const int n = static_cast<int>(full_rp.size()) - 1;
  row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    bool has_diag = false;
    for (int p = full_rp[static_cast<std::size_t>(i)];
         p < full_rp[static_cast<std::size_t>(i) + 1]; ++p) {
      const int c = full_cols[static_cast<std::size_t>(p)];
      if (c > i) break;
      cols_.push_back(c);
      original_values_.push_back(full_vals[static_cast<std::size_t>(p)]);
      has_diag = has_diag || c == i;
    }
    NEURO_REQUIRE(has_diag, "IC(0): structurally missing diagonal at row " << i);
    row_ptr_[static_cast<std::size_t>(i) + 1] = static_cast<int>(cols_.size());
  }

  // Manteuffel shift loop: A + shift·diag(A) until the factorization exists.
  double shift = 0.0;
  while (!try_factor(shift)) {
    // NEURO_NONDET_OK(exact 0.0 is the loop's own "first attempt" sentinel, never computed)
    shift = shift == 0.0 ? 1e-3 : shift * 4.0;
    NEURO_CHECK_MSG(shift < 10.0, "IC(0): diagonal shift exploded — matrix is "
                                  "far from positive definite");
  }
  shift_ = shift;
  original_values_.clear();
  original_values_.shrink_to_fit();
}

bool BlockJacobiIc0::try_factor(double shift) {
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  values_ = original_values_;
  // Apply the diagonal shift (diagonal is the last entry of each row).
  if (shift > 0.0) {
    for (int i = 0; i < n; ++i) {
      auto& d = values_[static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i) + 1]) - 1];
      d += shift * std::abs(d);
    }
  }

  // Row-oriented IC(0): for each row i and each stored column k < i,
  //   L(i,k) = (A(i,k) - Σ_j L(i,j) L(k,j)) / L(k,k)  over shared j < k,
  //   L(i,i) = sqrt(A(i,i) - Σ_j L(i,j)²).
  for (int i = 0; i < n; ++i) {
    const int rb = row_ptr_[static_cast<std::size_t>(i)];
    const int re = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (int p = rb; p < re; ++p) {
      const int k = cols_[static_cast<std::size_t>(p)];
      const int kb = row_ptr_[static_cast<std::size_t>(k)];
      const int ke = row_ptr_[static_cast<std::size_t>(k) + 1];
      if (k < i) {
        // Dot the shared prefixes of row i and row k (both sorted).
        double dot = 0.0;
        int pi = rb, pk = kb;
        while (pi < p && pk < ke - 1) {  // exclude k's diagonal
          const int ci = cols_[static_cast<std::size_t>(pi)];
          const int ck = cols_[static_cast<std::size_t>(pk)];
          if (ci == ck) {
            dot += values_[static_cast<std::size_t>(pi)] *
                   values_[static_cast<std::size_t>(pk)];
            ++pi;
            ++pk;
          } else if (ci < ck) {
            ++pi;
          } else {
            ++pk;
          }
        }
        const double lkk = values_[static_cast<std::size_t>(ke) - 1];
        values_[static_cast<std::size_t>(p)] =
            (values_[static_cast<std::size_t>(p)] - dot) / lkk;
      } else {  // k == i: diagonal
        double sum = 0.0;
        for (int q = rb; q < p; ++q) {
          sum += values_[static_cast<std::size_t>(q)] *
                 values_[static_cast<std::size_t>(q)];
        }
        const double d = values_[static_cast<std::size_t>(p)] - sum;
        if (d <= 0.0) return false;  // breakdown → retry with a larger shift
        values_[static_cast<std::size_t>(p)] = std::sqrt(d);
      }
    }
  }
  return true;
}

void BlockJacobiIc0::apply(const DistVector& r, DistVector& z,
                           par::Communicator& comm) const {
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  NEURO_CHECK(r.local_size() == n && z.local_size() == n);
  auto& out = z.local();
  const auto& in = r.local();

  // Forward solve L y = r (diagonal is the last entry of each row).
  for (int i = 0; i < n; ++i) {
    double acc = in[static_cast<std::size_t>(i)];
    const int rb = row_ptr_[static_cast<std::size_t>(i)];
    const int re = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (int p = rb; p < re - 1; ++p) {
      acc -= values_[static_cast<std::size_t>(p)] *
             out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])];
    }
    out[static_cast<std::size_t>(i)] = acc / values_[static_cast<std::size_t>(re) - 1];
  }
  // Backward solve Lᵀ z = y, column-oriented.
  for (int i = n - 1; i >= 0; --i) {
    const int rb = row_ptr_[static_cast<std::size_t>(i)];
    const int re = row_ptr_[static_cast<std::size_t>(i) + 1];
    out[static_cast<std::size_t>(i)] /= values_[static_cast<std::size_t>(re) - 1];
    const double zi = out[static_cast<std::size_t>(i)];
    for (int p = rb; p < re - 1; ++p) {
      out[static_cast<std::size_t>(cols_[static_cast<std::size_t>(p)])] -=
          values_[static_cast<std::size_t>(p)] * zi;
    }
  }

  comm.work().add_flops(4.0 * static_cast<double>(values_.size()));
  comm.work().add_mem_bytes(24.0 * static_cast<double>(values_.size()));
}

SsorPreconditioner::SsorPreconditioner(const DistCsrMatrix& A, double omega)
    : omega_(omega) {
  NEURO_REQUIRE(omega > 0.0 && omega < 2.0, "SSOR: omega must lie in (0, 2)");
  sorted_local_block(A, row_ptr_, cols_, values_);
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  diag_.resize(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const int p = find_col(cols_, row_ptr_[static_cast<std::size_t>(i)],
                           row_ptr_[static_cast<std::size_t>(i) + 1], i);
    NEURO_REQUIRE(p >= 0, "SSOR: structurally missing diagonal at row " << i);
    diag_[static_cast<std::size_t>(i)] = values_[static_cast<std::size_t>(p)];
    NEURO_REQUIRE(std::abs(diag_[static_cast<std::size_t>(i)]) > 1e-300,
                  "SSOR: zero diagonal at row " << i);
  }
}

void SsorPreconditioner::apply(const DistVector& r, DistVector& z,
                               par::Communicator& comm) const {
  const int n = static_cast<int>(row_ptr_.size()) - 1;
  NEURO_CHECK(r.local_size() == n && z.local_size() == n);
  const auto& in = r.local();
  auto& out = z.local();

  // z = (D/ω + L)⁻¹ r  — forward sweep.
  for (int i = 0; i < n; ++i) {
    double acc = in[static_cast<std::size_t>(i)];
    for (int p = row_ptr_[static_cast<std::size_t>(i)];
         p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      const int c = cols_[static_cast<std::size_t>(p)];
      if (c < i) acc -= values_[static_cast<std::size_t>(p)] * out[static_cast<std::size_t>(c)];
    }
    out[static_cast<std::size_t>(i)] = acc * omega_ / diag_[static_cast<std::size_t>(i)];
  }
  // z ← D z / ω scaling, then backward sweep (D/ω + U)⁻¹.
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] *= diag_[static_cast<std::size_t>(i)] *
                                        (2.0 - omega_) / omega_;
  }
  for (int i = n - 1; i >= 0; --i) {
    double acc = out[static_cast<std::size_t>(i)];
    for (int p = row_ptr_[static_cast<std::size_t>(i)];
         p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      const int c = cols_[static_cast<std::size_t>(p)];
      if (c > i) acc -= values_[static_cast<std::size_t>(p)] * out[static_cast<std::size_t>(c)];
    }
    out[static_cast<std::size_t>(i)] = acc * omega_ / diag_[static_cast<std::size_t>(i)];
  }

  comm.work().add_flops(4.0 * static_cast<double>(values_.size()));
  comm.work().add_mem_bytes(24.0 * static_cast<double>(values_.size()));
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const DistCsrMatrix& A,
                                                    par::Communicator& comm,
                                                    int schwarz_overlap) {
  if (kind == PreconditionerKind::kAdditiveSchwarzIlu0) {
    return std::make_unique<AdditiveSchwarz>(A, comm, schwarz_overlap);
  }
  return make_preconditioner(kind, A);
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const DistCsrMatrix& A) {
  NEURO_REQUIRE(kind != PreconditionerKind::kAdditiveSchwarzIlu0,
                "additive Schwarz needs the communicator-aware factory overload");
  switch (kind) {
    case PreconditionerKind::kNone:
      return std::make_unique<IdentityPreconditioner>();
    case PreconditionerKind::kJacobi:
      return std::make_unique<JacobiPreconditioner>(A);
    case PreconditionerKind::kBlockJacobiIlu0:
      return std::make_unique<BlockJacobiIlu0>(A);
    case PreconditionerKind::kBlockJacobiIc0:
      return std::make_unique<BlockJacobiIc0>(A);
    case PreconditionerKind::kSsor:
      return std::make_unique<SsorPreconditioner>(A);
    case PreconditionerKind::kAdditiveSchwarzIlu0:
      break;  // rejected above
  }
  NEURO_CHECK_MSG(false, "make_preconditioner: unknown kind");
  return nullptr;
}

}  // namespace neuro::solver
