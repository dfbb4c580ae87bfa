// The preconditioner of the distributed GMRES solve.
//
// The paper solves its elasticity system with "the Generalized Minimal
// Residual (GMRES) solver with block Jacobi preconditioning" from PETSc.
// Block Jacobi here means: each rank's diagonal block is preconditioned
// locally with no communication — we factor the block with ILU(0), PETSc's
// default sub-preconditioner.
#pragma once

#include <vector>

#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/dist_vector.h"

namespace neuro::solver {

/// Block Jacobi with an ILU(0) factorization of each rank's diagonal block
/// (the paper's configuration). With one rank this degenerates to global
/// ILU(0), exactly as in PETSc.
class BlockJacobiIlu0 {
 public:
  /// Factors the local diagonal block. Throws on a zero pivot or a
  /// structurally missing diagonal.
  explicit BlockJacobiIlu0(const DistCsrMatrix& A);

  /// z = (LU)⁻¹ r on the owned rows. Never communicates: that is the point
  /// of block Jacobi.
  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const;

 private:
  // In-place LU factors in CSR (unit lower / upper incl. diagonal), with
  // column indices local to the block and sorted per row.
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<int> diag_pos_;  ///< position of the diagonal entry per row
};

}  // namespace neuro::solver
