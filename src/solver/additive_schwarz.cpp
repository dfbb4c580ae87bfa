#include "solver/additive_schwarz.h"

#include <algorithm>

#include "base/check.h"

namespace neuro::solver {

AdditiveSchwarz::AdditiveSchwarz(const DistCsrMatrix& A, par::Communicator& comm,
                                 int overlap)
    : overlap_(overlap), range_(A.range()) {
  NEURO_REQUIRE(overlap >= 0, "AdditiveSchwarz: overlap must be non-negative");
  const int n_global = A.global_size();

  // --- Exchange the matrix structure: every rank learns the full CSR. ---
  // (Rank ranges are contiguous and ordered, so concatenation is global CSR.)
  std::array<GlobalRow, 2> my_range{range_.first, range_.second};
  const auto ranges =
      comm.allgather_parts(std::span<const GlobalRow>(my_range.data(), 2));

  // Row lengths, then columns and values.
  std::vector<int> my_lengths(static_cast<std::size_t>(A.local_rows()));
  for (int r = 0; r < A.local_rows(); ++r) {
    my_lengths[static_cast<std::size_t>(r)] =
        A.row_ptr()[static_cast<std::size_t>(r) + 1] -
        A.row_ptr()[static_cast<std::size_t>(r)];
  }
  const auto all_lengths =
      comm.allgatherv(std::span<const int>(my_lengths.data(), my_lengths.size()));
  const auto all_cols = comm.allgatherv(
      std::span<const int>(A.global_cols().data(), A.global_cols().size()));
  const auto all_values =
      comm.allgatherv(std::span<const double>(A.values().data(), A.values().size()));
  NEURO_CHECK(static_cast<int>(all_lengths.size()) == n_global);

  std::vector<int> global_row_ptr(static_cast<std::size_t>(n_global) + 1, 0);
  for (int r = 0; r < n_global; ++r) {
    global_row_ptr[static_cast<std::size_t>(r) + 1] =
        global_row_ptr[static_cast<std::size_t>(r)] +
        all_lengths[static_cast<std::size_t>(r)];
  }

  // --- Grow the extended set by `overlap` adjacency layers. ---
  std::vector<char> in_set(static_cast<std::size_t>(n_global), 0);
  std::vector<GlobalRow> frontier;
  for (const GlobalRow g : range_) {
    in_set[g.index()] = 1;
    frontier.push_back(g);
  }
  for (int layer = 0; layer < overlap; ++layer) {
    std::vector<GlobalRow> next;
    for (const GlobalRow g : frontier) {
      for (int p = global_row_ptr[g.index()]; p < global_row_ptr[g.index() + 1];
           ++p) {
        const GlobalRow c{all_cols[static_cast<std::size_t>(p)]};
        if (!in_set[c.index()]) {
          in_set[c.index()] = 1;
          next.push_back(c);
        }
      }
    }
    frontier = std::move(next);
  }
  for (GlobalRow g{0}; g < GlobalRow{n_global}; ++g) {
    if (in_set[g.index()]) ext_to_global_.push_back(g);
  }

  // Ghost-map lookups: ext_to_global_ is built by an ascending scan over the
  // global rows, so it is sorted and a binary search replaces the hash map —
  // no unordered container near the numeric path, and the traversal order of
  // every loop below is a pure function of the matrix structure
  // (tools/lint/check_numerics.py, rule `unordered-iteration`).
  const auto ext_index = [this](GlobalRow g) -> int {
    const auto it =
        std::lower_bound(ext_to_global_.begin(), ext_to_global_.end(), g);
    if (it == ext_to_global_.end() || !(*it == g)) return -1;
    return static_cast<int>(it - ext_to_global_.begin());
  };
  owned_ext_positions_.reserve(static_cast<std::size_t>(A.local_rows()));
  for (const GlobalRow g : range_) {
    const int e = ext_index(g);
    NEURO_CHECK(e >= 0);
    owned_ext_positions_.push_back(e);
  }

  // --- Extract + sort + factor A(ext, ext). ---
  std::vector<int> sub_row_ptr{0};
  std::vector<int> sub_cols;
  std::vector<double> sub_values;
  std::vector<std::pair<int, double>> row;
  for (const GlobalRow g : ext_to_global_) {
    row.clear();
    for (int p = global_row_ptr[g.index()]; p < global_row_ptr[g.index() + 1];
         ++p) {
      const GlobalRow c{all_cols[static_cast<std::size_t>(p)]};
      const int e = ext_index(c);
      if (e >= 0) {
        row.emplace_back(e, all_values[static_cast<std::size_t>(p)]);
      }
    }
    std::sort(row.begin(), row.end());
    for (const auto& [c, v] : row) {
      sub_cols.push_back(c);
      sub_values.push_back(v);
    }
    sub_row_ptr.push_back(static_cast<int>(sub_cols.size()));
  }
  factor_.factor(std::move(sub_row_ptr), std::move(sub_cols), std::move(sub_values));

  // Setup cost accounting: the structure exchange moves the whole matrix.
  comm.work().add_mem_bytes(12.0 * static_cast<double>(all_values.size()));

  // --- Halo-exchange plan for apply(). ---
  std::vector<GlobalRow> needed;  // halo globals, grouped by owner (sorted)
  for (const GlobalRow g : ext_to_global_) {
    if (!range_.contains(g)) needed.push_back(g);
  }
  const auto all_needed = comm.allgather_parts(
      std::span<const GlobalRow>(needed.data(), needed.size()));
  const Rank me = comm.rank_id();
  for (Rank r{0}; r < Rank{comm.size()}; ++r) {
    if (r == me) continue;
    const RowRange their{ranges[r.index()][0], ranges[r.index()][1]};
    Recv rc;
    rc.rank = r;
    for (const GlobalRow g : needed) {
      if (their.contains(g)) {
        const int e = ext_index(g);
        NEURO_CHECK(e >= 0);
        rc.ext_positions.push_back(e);
      }
    }
    if (!rc.ext_positions.empty()) recvs_.push_back(std::move(rc));

    Send sd;
    sd.rank = r;
    for (const GlobalRow g : all_needed[r.index()]) {
      if (range_.contains(g)) {
        sd.local_indices.push_back(range_.offset_of(g));
      }
    }
    if (!sd.local_indices.empty()) sends_.push_back(std::move(sd));
  }
}

void AdditiveSchwarz::apply(const DistVector& r, DistVector& z,
                            par::Communicator& comm) const {
  NEURO_CHECK(r.range() == range_ && z.range() == range_);
  const int next = extended_rows();

  std::vector<double> r_ext(static_cast<std::size_t>(next), 0.0);
  for (std::size_t i = 0; i < owned_ext_positions_.size(); ++i) {
    r_ext[static_cast<std::size_t>(owned_ext_positions_[i])] = r.local()[i];
  }

  if (comm.size() > 1) {
    constexpr int kTag = 911;
    for (const auto& sd : sends_) {
      std::vector<double> payload(sd.local_indices.size());
      for (std::size_t i = 0; i < sd.local_indices.size(); ++i) {
        payload[i] = r.local()[static_cast<std::size_t>(sd.local_indices[i])];
      }
      comm.send(sd.rank, kTag, std::span<const double>(payload.data(), payload.size()));
    }
    for (const auto& rc : recvs_) {
      const auto data = comm.recv<double>(rc.rank, kTag);
      NEURO_CHECK(data.size() == rc.ext_positions.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        r_ext[static_cast<std::size_t>(rc.ext_positions[i])] = data[i];
      }
    }
  }

  std::vector<double> z_ext;
  factor_.solve(r_ext, z_ext);

  // Restricted write-back: owned entries only (no overlap double counting).
  for (std::size_t i = 0; i < owned_ext_positions_.size(); ++i) {
    z.local()[i] = z_ext[static_cast<std::size_t>(owned_ext_positions_[i])];
  }

  comm.work().add_flops(2.0 * static_cast<double>(factor_.nnz()));
  comm.work().add_mem_bytes(12.0 * static_cast<double>(factor_.nnz()) +
                            16.0 * static_cast<double>(next));
}

}  // namespace neuro::solver
