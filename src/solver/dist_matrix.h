// Distributed compressed-sparse-row matrix.
//
// Rows are distributed in contiguous blocks (one block per rank), the layout
// PETSc's MPIAIJ uses and the natural image of the mesh node partition
// (3 dof per node). Matrix-vector products exchange only the "ghost" vector
// entries each rank actually references, set up once and reused every
// iteration — the communication pattern whose cost the paper's solve-phase
// scaling reflects. This is the one operator the Krylov solvers and the
// preconditioners take (PETSc's AIJ, the paper's configuration).
#pragma once

#include <utility>
#include <vector>

#include "base/strong_id.h"
#include "par/communicator.h"
#include "solver/dist_vector.h"

namespace neuro::solver {

class DistCsrMatrix {
 public:
  /// Builds the local row block from CSR arrays with *global* column indices.
  /// `row_ptr` has (range.size() + 1) entries. The int arrays are the CSR
  /// wire format and stay untyped; every API above them is typed.
  DistCsrMatrix(int global_size, RowRange range, std::vector<int> row_ptr,
                std::vector<int> cols, std::vector<double> values);

  /// Number of rows (== columns) of the global square system.
  [[nodiscard]] int global_size() const { return global_size_; }
  /// The contiguous block of rows this rank owns.
  [[nodiscard]] RowRange range() const { return range_; }
  [[nodiscard]] int local_rows() const { return range_.size(); }
  [[nodiscard]] std::size_t local_nnz() const { return values_.size(); }

  /// Removes explicitly-zero entries from the local rows (diagonal entries
  /// are always kept). Boundary-condition substitution zeroes fixed rows and
  /// columns; compacting afterwards "reduc[es] the number of unknowns that
  /// must be solved for" exactly as the paper describes — and creates the
  /// per-rank solve imbalance it reports, because surface nodes are not
  /// spread evenly across ranks. Must be called before setup_ghosts().
  void drop_zeros();

  /// Collective: resolves which vector entries must be exchanged with which
  /// ranks during mat-vec, and remaps column indices to local+ghost storage.
  /// Must be called once (by all ranks together) before the first apply().
  void setup_ghosts(par::Communicator& comm);

  /// y = A x (collective). x and y must share this matrix's row layout.
  void apply(const DistVector& x, DistVector& y, par::Communicator& comm) const;

  /// Value at (global_row, global_col); row must be owned. Zero if absent.
  /// Columns of the square system live in the same GlobalRow space as rows.
  [[nodiscard]] double value_at(GlobalRow global_row, GlobalRow global_col) const;

  /// Mutable access used by boundary-condition substitution. Row is owned.
  /// Returns nullptr when the entry is not in the sparsity pattern.
  [[nodiscard]] double* find_entry(GlobalRow global_row, GlobalRow global_col);

  /// Iterates the raw local structure (global column indices preserved
  /// separately from the ghost remap).
  [[nodiscard]] const std::vector<int>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<int>& global_cols() const { return global_cols_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::vector<double>& values() { return values_; }

  /// Extracts a copy of the diagonal block (columns within the owned range)
  /// with local column indices — the input of the block-Jacobi ILU(0)
  /// factorization.
  void extract_diagonal_block(std::vector<int>& row_ptr, std::vector<int>& cols,
                              std::vector<double>& values) const;

 private:
  int global_size_;
  RowRange range_;
  std::vector<int> row_ptr_;
  std::vector<int> global_cols_;
  std::vector<double> values_;

  // Ghost plan (built by setup_ghosts).
  bool ghosts_ready_ = false;
  std::vector<int> local_cols_;  ///< remapped: [0, nlocal) owned, then ghosts
  std::vector<GlobalRow> ghost_globals_;  ///< global index per ghost slot
  struct Exchange {
    Rank rank;
    std::vector<int> local_indices;  ///< owned entries to ship to `rank`
  };
  std::vector<Exchange> sends_;
  struct Receive {
    Rank rank;
    int ghost_offset;  ///< first ghost slot filled by this rank
    int count;
  };
  std::vector<Receive> recvs_;
};

}  // namespace neuro::solver
