#include "fem/boundary.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace neuro::fem {

DirichletSet DirichletSet::from_node_displacements(
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed) {
  DirichletSet set;
  for (const auto& [node, u] : prescribed) {
    set.add(dof_of(node, 0), u.x);
    set.add(dof_of(node, 1), u.y);
    set.add(dof_of(node, 2), u.z);
  }
  set.finalize();
  return set;
}

void DirichletSet::add(DofId dof, double value) {
  NEURO_REQUIRE(!finalized_, "DirichletSet::add after finalize");
  dofs_.push_back(dof);
  values_.push_back(value);
}

void DirichletSet::finalize() {
  std::vector<std::size_t> order(dofs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return dofs_[a] < dofs_[b]; });
  std::vector<DofId> dofs(dofs_.size());
  std::vector<double> values(values_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    dofs[i] = dofs_[order[i]];
    values[i] = values_[order[i]];
  }
  // Duplicate prescriptions must agree; keep the first.
  for (std::size_t i = 1; i < dofs.size(); ++i) {
    NEURO_REQUIRE(dofs[i] != dofs[i - 1] || values[i] == values[i - 1],
                  "DirichletSet: conflicting values for dof " << dofs[i]);
  }
  dofs_.clear();
  values_.clear();
  for (std::size_t i = 0; i < dofs.size(); ++i) {
    if (i == 0 || dofs[i] != dofs[i - 1]) {
      dofs_.push_back(dofs[i]);
      values_.push_back(values[i]);
    }
  }
  finalized_ = true;
}

bool DirichletSet::contains(DofId dof) const {
  NEURO_CHECK(finalized_);
  return std::binary_search(dofs_.begin(), dofs_.end(), dof);
}

double DirichletSet::value_of(DofId dof) const {
  NEURO_CHECK(finalized_);
  const auto it = std::lower_bound(dofs_.begin(), dofs_.end(), dof);
  NEURO_REQUIRE(it != dofs_.end() && *it == dof,
                "DirichletSet::value_of: dof " << dof << " not prescribed");
  return values_[static_cast<std::size_t>(it - dofs_.begin())];
}

int DirichletSet::count_in_range(DofId begin, DofId end) const {
  NEURO_CHECK(finalized_);
  const auto lo = std::lower_bound(dofs_.begin(), dofs_.end(), begin);
  const auto hi = std::lower_bound(dofs_.begin(), dofs_.end(), end);
  return static_cast<int>(hi - lo);
}

void apply_dirichlet(LocalSystem& system, const DirichletSet& bc,
                     par::Communicator& comm) {
  auto& A = system.A;
  auto& b = system.b;
  const auto [rb, re] = A.range();
  const auto& row_ptr = A.row_ptr();
  const auto& cols = A.global_cols();
  auto& values = A.values();

  for (solver::GlobalRow row = rb; row < re; ++row) {
    const int r = row - rb;
    const bool row_fixed = bc.contains(dof_of_row(row));
    if (row_fixed) {
      // Identity row carrying the prescribed value.
      for (int p = row_ptr[static_cast<std::size_t>(r)];
           p < row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
        values[static_cast<std::size_t>(p)] =
            cols[static_cast<std::size_t>(p)] == row.value() ? 1.0 : 0.0;
      }
      b[row] = bc.value_of(dof_of_row(row));
      continue;
    }
    // Move fixed columns to the right-hand side and zero them, preserving
    // symmetry with the zeroed fixed rows.
    for (int p = row_ptr[static_cast<std::size_t>(r)];
         p < row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
      const solver::GlobalRow c{cols[static_cast<std::size_t>(p)]};
      if (c != row && bc.contains(dof_of_row(c))) {
        b[row] -= values[static_cast<std::size_t>(p)] * bc.value_of(dof_of_row(c));
        values[static_cast<std::size_t>(p)] = 0.0;
      }
    }
  }

  // The scan itself is the (small) BC cost; what matters for scaling is that
  // ranks owning many fixed rows end up with trivial identity rows — less
  // solve work — which is the imbalance the paper reports.
  comm.work().add_mem_bytes(static_cast<double>(A.local_nnz()) * 12.0);
  comm.work().add_flops(static_cast<double>(A.local_nnz()) * 0.5);
}

}  // namespace neuro::fem
