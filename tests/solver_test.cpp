// Tests for the distributed linear-algebra layer: vectors, CSR mat-vec with
// ghost exchange, preconditioners, and the Krylov solvers — including
// rank-count sweeps asserting that parallel results match serial ones.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"
#include "solver/krylov.h"
#include "solver/preconditioner.h"

namespace neuro::solver {
namespace {

/// Dense reference matrix with helpers to build per-rank DistCsrMatrix views.
struct DenseSystem {
  int n = 0;
  std::vector<double> A;  // row-major dense
  std::vector<double> b;

  static DenseSystem random_spd(int n, std::uint64_t seed) {
    DenseSystem s;
    s.n = n;
    s.A.assign(static_cast<std::size_t>(n) * n, 0.0);
    s.b.resize(static_cast<std::size_t>(n));
    Rng rng(seed);
    // Banded symmetric diagonally dominant ⇒ SPD; bandedness keeps the CSR
    // realistic (FEM-like) and exercises ghost exchange at partition edges.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j <= std::min(n - 1, i + 4); ++j) {
        const double v = rng.uniform(-1.0, 1.0);
        s.A[static_cast<std::size_t>(i) * n + j] = v;
        s.A[static_cast<std::size_t>(j) * n + i] = v;
      }
    }
    for (int i = 0; i < n; ++i) {
      double off = 0;
      for (int j = 0; j < n; ++j) {
        if (j != i) off += std::abs(s.A[static_cast<std::size_t>(i) * n + j]);
      }
      s.A[static_cast<std::size_t>(i) * n + i] = off + rng.uniform(1.0, 2.0);
      s.b[static_cast<std::size_t>(i)] = rng.uniform(-5.0, 5.0);
    }
    return s;
  }

  /// Unsymmetric variant (for GMRES/BiCGStab): adds a skew component while
  /// keeping diagonal dominance (so ILU(0) stays stable).
  static DenseSystem random_unsymmetric(int n, std::uint64_t seed) {
    DenseSystem s = random_spd(n, seed);
    Rng rng(seed + 17);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j <= std::min(n - 1, i + 4); ++j) {
        const double skew = 0.3 * rng.uniform(-1.0, 1.0);
        s.A[static_cast<std::size_t>(i) * n + j] += skew;
        s.A[static_cast<std::size_t>(j) * n + i] -= skew;
      }
    }
    return s;
  }

  [[nodiscard]] DistCsrMatrix local_block(RowRange range) const {
    std::vector<int> row_ptr{0};
    std::vector<int> cols;
    std::vector<double> values;
    for (int i = range.first.value(); i < range.second.value(); ++i) {
      for (int j = 0; j < n; ++j) {
        const double v = A[static_cast<std::size_t>(i) * n + j];
        if (v != 0.0) {
          cols.push_back(j);
          values.push_back(v);
        }
      }
      row_ptr.push_back(static_cast<int>(cols.size()));
    }
    return DistCsrMatrix(n, range, std::move(row_ptr), std::move(cols),
                         std::move(values));
  }

  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const {
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        y[static_cast<std::size_t>(i)] +=
            A[static_cast<std::size_t>(i) * n + j] * x[static_cast<std::size_t>(j)];
      }
    }
    return y;
  }
};

RowRange rank_range(int n, int nranks, int rank) {
  const int base = n / nranks, extra = n % nranks;
  const int begin = rank * base + std::min(rank, extra);
  return {GlobalRow{begin}, GlobalRow{begin + base + (rank < extra ? 1 : 0)}};
}

TEST(DistVectorTest, LocalOpsAndReductions) {
  par::run_spmd(3, [](par::Communicator& comm) {
    const auto range = rank_range(10, 3, comm.rank());
    DistVector x(10, range);
    for (const GlobalRow g : range) x[g] = g.value();
    DistVector y(10, range, 1.0);
    y.axpy(2.0, x, comm);  // y = 1 + 2g
    EXPECT_DOUBLE_EQ(y[range.first], 1.0 + 2.0 * range.first.value());
    // dot(x, 1-vector) = sum of 0..9 = 45
    DistVector ones(10, range, 1.0);
    EXPECT_DOUBLE_EQ(x.dot(ones, comm), 45.0);
    EXPECT_NEAR(ones.norm2(comm), std::sqrt(10.0), 1e-12);
    const auto all = x.gather_all(comm);
    ASSERT_EQ(all.size(), 10u);
    for (int g = 0; g < 10; ++g) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(g)], g);
  });
}

TEST(DistVectorTest, GlobalIndexBoundsChecked) {
  DistVector x(10, {GlobalRow{2}, GlobalRow{5}});
  EXPECT_NO_THROW(x[GlobalRow{3}]);
  EXPECT_THROW(x[GlobalRow{1}], CheckError);
  EXPECT_THROW(x[GlobalRow{5}], CheckError);
}

class SpmvRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpmvRankSweep, MatchesDenseReference) {
  const int P = GetParam();
  const DenseSystem sys = DenseSystem::random_spd(37, 11);
  std::vector<double> x_ref(37);
  Rng rng(3);
  for (auto& v : x_ref) v = rng.uniform(-1, 1);
  const std::vector<double> y_ref = sys.multiply(x_ref);

  par::run_spmd(P, [&](par::Communicator& comm) {
    const auto range = rank_range(37, P, comm.rank());
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    DistVector x(37, range), y(37, range);
    for (const GlobalRow g : range) {
      x[g] = x_ref[g.index()];
    }
    A.apply(x, y, comm);
    for (const GlobalRow g : range) {
      EXPECT_NEAR(y[g], y_ref[g.index()], 1e-10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SpmvRankSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST(DistMatrixTest, ValueAtAndFindEntry) {
  const DenseSystem sys = DenseSystem::random_spd(10, 2);
  DistCsrMatrix A = sys.local_block(row_range(GlobalRow{0}, 10));
  EXPECT_DOUBLE_EQ(A.value_at(GlobalRow{3}, GlobalRow{3}), sys.A[33]);
  // Outside band, not stored:
  EXPECT_DOUBLE_EQ(A.value_at(GlobalRow{0}, GlobalRow{9}), 0.0);
  double* e = A.find_entry(GlobalRow{2}, GlobalRow{3});
  ASSERT_NE(e, nullptr);
  *e = 42.0;
  EXPECT_DOUBLE_EQ(A.value_at(GlobalRow{2}, GlobalRow{3}), 42.0);
  EXPECT_EQ(A.find_entry(GlobalRow{0}, GlobalRow{9}), nullptr);
}

TEST(DistMatrixTest, DiagonalBlockExtraction) {
  const DenseSystem sys = DenseSystem::random_spd(12, 5);
  DistCsrMatrix A = sys.local_block(row_range(GlobalRow{4}, 4));
  std::vector<int> rp, cols;
  std::vector<double> vals;
  A.extract_diagonal_block(rp, cols, vals);
  ASSERT_EQ(rp.size(), 5u);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    EXPECT_GE(cols[p], 0);
    EXPECT_LT(cols[p], 4);
  }
  // Every extracted value matches the dense source.
  for (int r = 0; r < 4; ++r) {
    for (int p = rp[static_cast<std::size_t>(r)]; p < rp[static_cast<std::size_t>(r) + 1]; ++p) {
      EXPECT_DOUBLE_EQ(vals[static_cast<std::size_t>(p)],
                       sys.A[static_cast<std::size_t>(r + 4) * 12 +
                             static_cast<std::size_t>(cols[static_cast<std::size_t>(p)] + 4)]);
    }
  }
}

TEST(PreconditionerTest, JacobiDividesByDiagonal) {
  const DenseSystem sys = DenseSystem::random_spd(8, 7);
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, 8);
    DistCsrMatrix A = sys.local_block(range);
    JacobiPreconditioner M(A);
    DistVector r(8, range, 1.0), z(8, range);
    M.apply(r, z, comm);
    for (const GlobalRow i : range) {
      EXPECT_NEAR(z[i], 1.0 / sys.A[i.index() * 8 + i.index()], 1e-14);
    }
  });
}

TEST(PreconditionerTest, Ilu0IsExactForTriangularPattern) {
  // For a matrix whose pattern suffers no fill-in (tridiagonal), ILU(0) is an
  // exact LU factorization, so M⁻¹ A = I: one preconditioned "solve" of any
  // vector returns A⁻¹ r exactly.
  const int n = 12;
  std::vector<int> rp{0};
  std::vector<int> cols;
  std::vector<double> vals;
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - 1); j <= std::min(n - 1, i + 1); ++j) {
      cols.push_back(j);
      vals.push_back(j == i ? 4.0 : -1.0);
    }
    rp.push_back(static_cast<int>(cols.size()));
  }
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, n);
    DistCsrMatrix A(n, range, rp, cols, vals);
    BlockJacobiIlu0 M(A);
    DistVector r(n, range, 1.0), z(n, range), back(n, range);
    M.apply(r, z, comm);
    A.apply(z, back, comm);  // should reproduce r
    for (const GlobalRow i : range) EXPECT_NEAR(back[i], 1.0, 1e-12);
  });
}

TEST(PreconditionerTest, FactoryProducesAllKinds) {
  const DenseSystem sys = DenseSystem::random_spd(6, 9);
  DistCsrMatrix A = sys.local_block(row_range(GlobalRow{0}, 6));
  EXPECT_EQ(make_preconditioner(PreconditionerKind::kNone, A)->name(), "none");
  EXPECT_EQ(make_preconditioner(PreconditionerKind::kJacobi, A)->name(), "jacobi");
  EXPECT_EQ(make_preconditioner(PreconditionerKind::kBlockJacobiIlu0, A)->name(),
            "block-jacobi/ilu0");
  EXPECT_EQ(make_preconditioner(PreconditionerKind::kSsor, A)->name(), "ssor");
}

struct KrylovCase {
  const char* name;
  SolveStats (*solve)(const LinearOperator&, const DistVector&, DistVector&,
                      const Preconditioner&, const SolverConfig&, par::Communicator&);
  bool needs_spd;
};

// gtest otherwise prints the raw bytes, pointers included, into the test's
// listed name, so the CTest name would change with every load address.
void PrintTo(const KrylovCase& c, std::ostream* os) { *os << c.name; }

class KrylovSolverTest
    : public ::testing::TestWithParam<std::tuple<KrylovCase, int>> {};

TEST_P(KrylovSolverTest, SolvesAndMatchesSerial) {
  const auto& [method, P] = GetParam();
  const int n = 60;
  const DenseSystem sys = method.needs_spd ? DenseSystem::random_spd(n, 21)
                                           : DenseSystem::random_unsymmetric(n, 21);

  // Serial reference solution.
  std::vector<double> x_serial(static_cast<std::size_t>(n));
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, n);
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    BlockJacobiIlu0 M(A);
    DistVector b(n, range), x(n, range);
    for (const GlobalRow i : range) b[i] = sys.b[i.index()];
    SolverConfig cfg;
    cfg.rtol = 1e-10;
    const SolveStats stats = method.solve(A, b, x, M, cfg, comm);
    EXPECT_TRUE(stats.converged) << method.name;
    EXPECT_LT(true_residual_norm(A, b, x, comm), 1e-7);
    for (const GlobalRow i : range) x_serial[i.index()] = x[i];
  });

  // Parallel must agree.
  par::run_spmd(P, [&](par::Communicator& comm) {
    const auto range = rank_range(n, P, comm.rank());
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    BlockJacobiIlu0 M(A);
    DistVector b(n, range), x(n, range);
    for (const GlobalRow g : range) {
      b[g] = sys.b[g.index()];
    }
    SolverConfig cfg;
    cfg.rtol = 1e-10;
    const SolveStats stats = method.solve(A, b, x, M, cfg, comm);
    EXPECT_TRUE(stats.converged) << method.name << " P=" << P;
    for (const GlobalRow g : range) {
      EXPECT_NEAR(x[g], x_serial[g.index()], 1e-6)
          << method.name << " P=" << P;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndRanks, KrylovSolverTest,
    ::testing::Combine(::testing::Values(KrylovCase{"gmres", &gmres, false},
                                         KrylovCase{"cg", &cg, true},
                                         KrylovCase{"bicgstab", &bicgstab, false}),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

TEST(KrylovTest, PreconditioningReducesIterations) {
  const int n = 80;
  const DenseSystem sys = DenseSystem::random_spd(n, 33);
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, n);
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    DistVector b(n, range);
    for (const GlobalRow i : range) b[i] = sys.b[i.index()];
    SolverConfig cfg;
    cfg.rtol = 1e-8;

    auto iterations = [&](const Preconditioner& M) {
      DistVector x(n, range);
      const SolveStats s = gmres(A, b, x, M, cfg, comm);
      EXPECT_TRUE(s.converged);
      return s.iterations;
    };
    const int none = iterations(IdentityPreconditioner{});
    const int jacobi = iterations(JacobiPreconditioner{A});
    const int ilu = iterations(BlockJacobiIlu0{A});
    EXPECT_LE(ilu, jacobi);
    EXPECT_LE(jacobi, none + 1);
  });
}

TEST(KrylovTest, ZeroRhsConvergesImmediately) {
  const DenseSystem sys = DenseSystem::random_spd(10, 4);
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, 10);
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    IdentityPreconditioner M;
    DistVector b(10, range), x(10, range);
    const SolveStats s = gmres(A, b, x, M, SolverConfig{}, comm);
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.iterations, 0);
  });
}

TEST(KrylovTest, RestartedGmresStillConverges) {
  const int n = 70;
  const DenseSystem sys = DenseSystem::random_unsymmetric(n, 5);
  par::run_spmd(2, [&](par::Communicator& comm) {
    const auto range = rank_range(n, 2, comm.rank());
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    JacobiPreconditioner M(A);
    DistVector b(n, range), x(n, range);
    for (const GlobalRow g : range) {
      b[g] = sys.b[g.index()];
    }
    SolverConfig cfg;
    cfg.gmres_restart = 5;  // force several restart cycles
    cfg.rtol = 1e-9;
    const SolveStats s = gmres(A, b, x, M, cfg, comm);
    EXPECT_TRUE(s.converged);
    EXPECT_LT(true_residual_norm(A, b, x, comm) / s.initial_residual, 1e-8);
  });
}

TEST(KrylovTest, HistoryIsMonotoneForCg) {
  const DenseSystem sys = DenseSystem::random_spd(40, 6);
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, 40);
    DistCsrMatrix A = sys.local_block(range);
    A.setup_ghosts(comm);
    BlockJacobiIlu0 M(A);
    DistVector b(40, range, 1.0), x(40, range);
    SolverConfig cfg;
    cfg.record_history = true;
    const SolveStats s = cg(A, b, x, M, cfg, comm);
    EXPECT_TRUE(s.converged);
    ASSERT_GE(s.history.size(), 2u);
    EXPECT_LT(s.history.back(), s.history.front());
  });
}

TEST(KrylovTest, CgRejectsIndefiniteMatrix) {
  // -I is negative definite: CG must detect pᵀAp <= 0 and report it as a
  // typed breakdown (an input-class failure the caller can react to), not an
  // invariant abort.
  std::vector<int> rp{0, 1, 2, 3};
  std::vector<int> cols{0, 1, 2};
  std::vector<double> vals{-1.0, -1.0, -1.0};
  par::run_spmd(1, [&](par::Communicator& comm) {
    const RowRange range = row_range(GlobalRow{0}, 3);
    DistCsrMatrix A(3, range, rp, cols, vals);
    A.setup_ghosts(comm);
    IdentityPreconditioner M;
    DistVector b(3, range, 1.0), x(3, range);
    const SolveStats s = cg(A, b, x, M, SolverConfig{}, comm);
    EXPECT_FALSE(s.converged);
    EXPECT_EQ(s.stop_reason, StopReason::kBreakdown);
    EXPECT_NE(s.stop_message.find("positive definite"), std::string::npos);
  });
}

}  // namespace
}  // namespace neuro::solver
