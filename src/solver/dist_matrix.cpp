#include "solver/dist_matrix.h"

#include <algorithm>
#include <array>

#include "base/check.h"
#include "base/numerics_annotations.h"

namespace neuro::solver {

DistCsrMatrix::DistCsrMatrix(int global_size, RowRange range,
                             std::vector<int> row_ptr, std::vector<int> cols,
                             std::vector<double> values)
    : global_size_(global_size),
      range_(range),
      row_ptr_(std::move(row_ptr)),
      global_cols_(std::move(cols)),
      values_(std::move(values)) {
  NEURO_REQUIRE(range_.first >= GlobalRow{0} && range_.second >= range_.first &&
                    range_.second <= GlobalRow{global_size_},
                "DistCsrMatrix: bad row range");
  NEURO_REQUIRE(static_cast<int>(row_ptr_.size()) == local_rows() + 1,
                "DistCsrMatrix: row_ptr size mismatch");
  NEURO_REQUIRE(global_cols_.size() == values_.size(),
                "DistCsrMatrix: cols/values size mismatch");
  NEURO_REQUIRE(row_ptr_.front() == 0 &&
                    row_ptr_.back() == static_cast<int>(values_.size()),
                "DistCsrMatrix: row_ptr bounds inconsistent");
}

void DistCsrMatrix::drop_zeros() {
  NEURO_CHECK_MSG(!ghosts_ready_, "drop_zeros after setup_ghosts");
  const int nlocal = local_rows();
  std::vector<int> new_row_ptr(static_cast<std::size_t>(nlocal) + 1, 0);
  std::vector<int> new_cols;
  std::vector<double> new_values;
  new_cols.reserve(global_cols_.size());
  new_values.reserve(values_.size());
  for (int r = 0; r < nlocal; ++r) {
    const GlobalRow global_row = global_of(range_, LocalRow{r});
    for (int p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      const int c = global_cols_[static_cast<std::size_t>(p)];
      // NEURO_NONDET_OK(structural-zero drop: exact 0.0 is a stored sentinel, not a computed value)
      if (values_[static_cast<std::size_t>(p)] != 0.0 || c == global_row.value()) {
        new_cols.push_back(c);
        new_values.push_back(values_[static_cast<std::size_t>(p)]);
      }
    }
    new_row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(new_cols.size());
  }
  row_ptr_ = std::move(new_row_ptr);
  global_cols_ = std::move(new_cols);
  values_ = std::move(new_values);
}

void DistCsrMatrix::setup_ghosts(par::Communicator& comm) {
  NEURO_CHECK_MSG(!ghosts_ready_, "setup_ghosts called twice");
  const int nlocal = local_rows();

  // Collect referenced off-range (ghost) columns, sorted & unique.
  std::vector<GlobalRow> ghosts;
  for (const int c : global_cols_) {
    if (!range_.contains(GlobalRow{c})) ghosts.push_back(GlobalRow{c});
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  ghost_globals_ = ghosts;

  // Remap columns to local storage: owned → [0, nlocal), ghost → slot. The
  // ghost list is sorted and built once, so a binary search over it beats a
  // throwaway hash map (no allocation churn, no hashing).
  local_cols_.resize(global_cols_.size());
  for (std::size_t i = 0; i < global_cols_.size(); ++i) {
    const GlobalRow c{global_cols_[i]};
    if (range_.contains(c)) {
      local_cols_[i] = range_.offset_of(c);
    } else {
      const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), c);
      NEURO_REQUIRE(it != ghosts.end() && *it == c,
                    "setup_ghosts: ghost column missing from slot table");
      local_cols_[i] = nlocal + static_cast<int>(it - ghosts.begin());
    }
  }

  // Everyone learns everyone's ownership ranges and ghost needs.
  std::array<int, 2> my_range{range_.first.value(), range_.second.value()};
  auto ranges = comm.allgather_parts(std::span<const int>(my_range.data(), 2));
  auto needs = comm.allgather_parts(
      std::span<const GlobalRow>(ghosts.data(), ghosts.size()));

  const Rank me = comm.rank_id();
  // Receives: my ghosts grouped by owning rank (ghosts are sorted, ranges are
  // contiguous and ordered, so groups are contiguous runs).
  {
    std::size_t pos = 0;
    for (Rank r{0}; r < Rank{comm.size()}; ++r) {
      if (r == me) continue;
      const RowRange owned{GlobalRow{ranges[r.index()][0]},
                           GlobalRow{ranges[r.index()][1]}};
      const int offset = static_cast<int>(pos);
      int count = 0;
      while (pos < ghosts.size() && owned.contains(ghosts[pos])) {
        ++pos;
        ++count;
      }
      if (count > 0) recvs_.push_back({r, offset, count});
    }
    NEURO_CHECK_MSG(pos == ghosts.size(),
                    "setup_ghosts: ghost column not owned by any rank");
  }
  // Sends: entries of mine that other ranks listed as ghosts.
  for (Rank r{0}; r < Rank{comm.size()}; ++r) {
    if (r == me) continue;
    Exchange ex;
    ex.rank = r;
    for (const GlobalRow g : needs[r.index()]) {
      if (range_.contains(g)) {
        ex.local_indices.push_back(range_.offset_of(g));
      }
    }
    if (!ex.local_indices.empty()) sends_.push_back(std::move(ex));
  }

  ghosts_ready_ = true;
}

// Scalar SpMV. Each row sums its entries in stored (ascending column) order,
// so y is bit-identical at every rank count.
NEURO_BITEXACT
void DistCsrMatrix::apply(const DistVector& x, DistVector& y,
                          par::Communicator& comm) const {
  NEURO_CHECK_MSG(ghosts_ready_ || comm.size() == 1,
                  "DistCsrMatrix::apply before setup_ghosts");
  NEURO_CHECK(x.range() == range_ && y.range() == range_);
  const int nlocal = local_rows();

  // Assemble the local + ghost vector image.
  std::vector<double> xg(static_cast<std::size_t>(nlocal) + ghost_globals_.size());
  std::copy(x.local().begin(), x.local().end(), xg.begin());

  if (comm.size() > 1) {
    constexpr int kTag = 701;
    std::vector<std::vector<double>> payloads(sends_.size());
    for (std::size_t s = 0; s < sends_.size(); ++s) {
      const auto& ex = sends_[s];
      auto& payload = payloads[s];
      payload.resize(ex.local_indices.size());
      for (std::size_t i = 0; i < ex.local_indices.size(); ++i) {
        payload[i] = x.local()[static_cast<std::size_t>(ex.local_indices[i])];
      }
      comm.send(ex.rank, kTag, std::span<const double>(payload.data(), payload.size()));
    }
    for (const auto& rc : recvs_) {
      auto data = comm.recv<double>(rc.rank, kTag);
      NEURO_CHECK(static_cast<int>(data.size()) == rc.count);
      std::copy(data.begin(), data.end(),
                xg.begin() + nlocal + rc.ghost_offset);
    }
  }

  // y = A * xg over local rows.
  const auto& cols = ghosts_ready_ ? local_cols_ : global_cols_;
  for (int r = 0; r < nlocal; ++r) {
    double acc = 0.0;
    for (int p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      acc += values_[static_cast<std::size_t>(p)] *
             xg[static_cast<std::size_t>(cols[static_cast<std::size_t>(p)])];
    }
    y.local()[static_cast<std::size_t>(r)] = acc;
  }

  comm.work().add_flops(2.0 * static_cast<double>(values_.size()));
  comm.work().add_mem_bytes(12.0 * static_cast<double>(values_.size()) +
                            16.0 * static_cast<double>(nlocal));
}

double DistCsrMatrix::value_at(GlobalRow global_row, GlobalRow global_col) const {
  NEURO_REQUIRE(range_.contains(global_row), "value_at: row not owned");
  const int r = range_.offset_of(global_row);
  // Columns are sorted per row (assembly emits them in ascending dof order
  // and drop_zeros preserves order), so a binary search finds the entry.
  const auto begin = global_cols_.begin() + row_ptr_[static_cast<std::size_t>(r)];
  const auto end = global_cols_.begin() + row_ptr_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, global_col.value());
  if (it != end && *it == global_col.value()) {
    return values_[static_cast<std::size_t>(it - global_cols_.begin())];
  }
  return 0.0;
}

double* DistCsrMatrix::find_entry(GlobalRow global_row, GlobalRow global_col) {
  NEURO_REQUIRE(range_.contains(global_row), "find_entry: row not owned");
  const int r = range_.offset_of(global_row);
  const auto begin = global_cols_.begin() + row_ptr_[static_cast<std::size_t>(r)];
  const auto end = global_cols_.begin() + row_ptr_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, global_col.value());
  if (it != end && *it == global_col.value()) {
    return &values_[static_cast<std::size_t>(it - global_cols_.begin())];
  }
  return nullptr;
}

void DistCsrMatrix::extract_diagonal_block(std::vector<int>& row_ptr,
                                           std::vector<int>& cols,
                                           std::vector<double>& values) const {
  const int nlocal = local_rows();
  row_ptr.assign(static_cast<std::size_t>(nlocal) + 1, 0);
  cols.clear();
  values.clear();
  for (int r = 0; r < nlocal; ++r) {
    for (int p = row_ptr_[static_cast<std::size_t>(r)];
         p < row_ptr_[static_cast<std::size_t>(r) + 1]; ++p) {
      const GlobalRow c{global_cols_[static_cast<std::size_t>(p)]};
      if (range_.contains(c)) {
        cols.push_back(range_.offset_of(c));
        values.push_back(values_[static_cast<std::size_t>(p)]);
      }
    }
    row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(cols.size());
  }
}

}  // namespace neuro::solver
