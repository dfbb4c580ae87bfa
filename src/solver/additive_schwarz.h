// Restricted additive Schwarz preconditioner with overlap.
//
// Block Jacobi (the paper's configuration) ignores all coupling between
// ranks, which is why its iteration counts grow with the block count (visible
// in the Fig. 7 bench). Additive Schwarz — PETSc's other standard parallel
// preconditioner — extends each rank's block by `overlap` layers of
// neighbouring rows, factors the overlapped block with ILU(0), and (in the
// "restricted" variant used here) writes back only the owned part of each
// local solve. Overlap 0 reduces exactly to block Jacobi.
#pragma once

#include <vector>

#include "par/communicator.h"
#include "solver/dist_matrix.h"
#include "solver/ilu_kernels.h"
#include "solver/preconditioner.h"

namespace neuro::solver {

class AdditiveSchwarz final : public Preconditioner {
 public:
  /// Collective: every rank of `comm` must construct simultaneously (matrix
  /// rows are exchanged to build the overlapped blocks).
  AdditiveSchwarz(const DistCsrMatrix& A, par::Communicator& comm, int overlap = 1);

  void apply(const DistVector& r, DistVector& z, par::Communicator& comm) const override;
  [[nodiscard]] std::string name() const override { return "additive-schwarz/ilu0"; }

  [[nodiscard]] int overlap() const { return overlap_; }
  /// Extended block size (owned + halo rows) on this rank.
  [[nodiscard]] int extended_rows() const { return static_cast<int>(ext_to_global_.size()); }

 private:
  int overlap_;
  RowRange range_;

  std::vector<GlobalRow> ext_to_global_;  ///< sorted extended index set
  Ilu0Factor factor_;

  // Halo exchange plan for apply(): which of my owned entries each neighbour
  // needs, and where incoming values land in the extended vector.
  struct Send {
    Rank rank;
    std::vector<int> local_indices;  ///< offsets into the owned block
  };
  struct Recv {
    Rank rank;
    std::vector<int> ext_positions;  ///< slots in the extended vector
  };
  std::vector<Send> sends_;
  std::vector<Recv> recvs_;
  std::vector<int> owned_ext_positions_;  ///< owned rows' slots in ext order
};

}  // namespace neuro::solver
