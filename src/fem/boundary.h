// Dirichlet boundary conditions by substitution.
//
// The paper fixes "the displacements at the surface to match those generated
// by the active surface model … substituting known values for equations in
// the original system, reducing the number of unknowns" — and observes that
// this unbalances the solve because surface nodes are not distributed evenly
// across CPUs. We reproduce the substitution exactly: a fixed dof's row
// becomes an identity row carrying the prescribed value, its column is moved
// to the right-hand side everywhere else, and the matrix stays symmetric.
#pragma once

#include <vector>

#include "base/vec3.h"
#include "fem/assembly.h"
#include "fem/dof.h"
#include "mesh/tet_mesh.h"
#include "par/communicator.h"

namespace neuro::fem {

/// Sorted set of prescribed dofs with their values. Replicated on all ranks
/// (it is small: surface nodes only).
class DirichletSet {
 public:
  DirichletSet() = default;

  /// From per-node prescribed displacements (3 dofs per node).
  [[nodiscard]] static DirichletSet from_node_displacements(
      const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed);

  void add(DofId dof, double value);
  /// Must be called after the last add() and before queries.
  void finalize();

  [[nodiscard]] bool contains(DofId dof) const;
  [[nodiscard]] double value_of(DofId dof) const;  ///< requires contains(dof)
  [[nodiscard]] std::size_t size() const { return dofs_.size(); }
  [[nodiscard]] const std::vector<DofId>& dofs() const { return dofs_; }

  /// Number of fixed dofs within the dof image of a row range — the per-rank
  /// imbalance the paper discusses.
  [[nodiscard]] int count_in_range(DofId begin, DofId end) const;

 private:
  bool finalized_ = false;
  std::vector<DofId> dofs_;
  std::vector<double> values_;
};

/// Applies the substitution to one rank's rows. No communication (every rank
/// holds the full DirichletSet).
void apply_dirichlet(LocalSystem& system, const DirichletSet& bc,
                     par::Communicator& comm);

/// Block-CSR overload: identical substitution semantics and, per scalar row,
/// identical column traversal order (blocks are column-sorted and scalar
/// columns ascend within a block), so the modified values and right-hand side
/// match the scalar path bit for bit.
void apply_dirichlet(LocalBsrSystem& system, const DirichletSet& bc,
                     par::Communicator& comm);

}  // namespace neuro::fem
