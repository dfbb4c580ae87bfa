// Preconditioners for the distributed Krylov solvers.
//
// The paper solves its elasticity system with "the Generalized Minimal
// Residual (GMRES) solver with block Jacobi preconditioning" from PETSc.
// Block Jacobi here means: each rank's diagonal block is preconditioned
// locally with no communication — we factor the block with ILU(0), PETSc's
// default sub-preconditioner. Jacobi, SSOR and identity variants exist for
// the solver ablation bench.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"

namespace neuro::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z ≈ M⁻¹ r. Never communicates (all our preconditioners are block-local;
  /// that is the point of block Jacobi).
  virtual void apply(const DistVector& r, DistVector& z,
                     par::Communicator& comm) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// M = I.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// Point Jacobi: M = diag(A).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const DistCsrMatrix& A);
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// Block Jacobi with an ILU(0) factorization of each rank's diagonal block
/// (the paper's configuration). With one rank this degenerates to global
/// ILU(0), exactly as in PETSc.
class BlockJacobiIlu0 final : public Preconditioner {
 public:
  explicit BlockJacobiIlu0(const DistCsrMatrix& A);
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "block-jacobi/ilu0"; }

  [[nodiscard]] std::size_t factor_nnz() const { return values_.size(); }

 private:
  // In-place LU factors in CSR (unit lower / upper incl. diagonal), with
  // column indices local to the block and sorted per row.
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<int> diag_pos_;  ///< position of the diagonal entry per row
};

/// Block Jacobi with an incomplete Cholesky IC(0) factorization of each
/// rank's diagonal block. Unlike ILU(0), the factorization is symmetric
/// (M = L Lᵀ is positive definite whenever it completes), making it the
/// right block preconditioner for CG on the elasticity system. Negative
/// pivots — possible on non-M-matrices — are handled by restarting the
/// factorization with a progressively shifted diagonal (Manteuffel).
class BlockJacobiIc0 final : public Preconditioner {
 public:
  explicit BlockJacobiIc0(const DistCsrMatrix& A);
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "block-jacobi/ic0"; }

  /// Diagonal shift that made the factorization succeed (0 when none needed).
  [[nodiscard]] double shift() const { return shift_; }

 private:
  bool try_factor(double shift);

  // Lower-triangular factor in CSR (columns sorted, diagonal last per row).
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
  // Unfactored lower triangle kept for shift retries.
  std::vector<double> original_values_;
  double shift_ = 0.0;
};

/// Block SSOR: one symmetric Gauss–Seidel sweep on the local block.
class SsorPreconditioner final : public Preconditioner {
 public:
  SsorPreconditioner(const DistCsrMatrix& A, double omega = 1.0);
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "ssor"; }

 private:
  double omega_;
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<double> diag_;
};

/// Factory used by benches/config files.
enum class PreconditionerKind {
  kNone,
  kJacobi,
  kBlockJacobiIlu0,
  kBlockJacobiIc0,
  kSsor,
  kAdditiveSchwarzIlu0,  ///< requires the communicator-aware factory overload
};
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const DistCsrMatrix& A);

/// Communicator-aware factory (collective for kAdditiveSchwarzIlu0, which
/// exchanges matrix rows at construction; other kinds ignore `comm`).
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const DistCsrMatrix& A,
                                                    par::Communicator& comm,
                                                    int schwarz_overlap = 1);

}  // namespace neuro::solver
