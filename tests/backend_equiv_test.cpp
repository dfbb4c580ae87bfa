// Determinism and convergence of the deformation solve (GMRES with
// block-Jacobi ILU(0)) on its one assembled operator (scalar CSR), plus the
// operator's binary-search entry lookups. Labelled `perf` (sanitizer CI runs this suite)
// and `determinism` (the double-run test).
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "fem/assembly.h"
#include "fem/boundary.h"
#include "fem/deformation_solver.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "par/communicator.h"
#include "solver/dist_matrix.h"

namespace neuro::fem {
namespace {

/// Small solid block phantom; enough nodes to split across 4 ranks.
const mesh::TetMesh& shared_mesh() {
  static const mesh::TetMesh mesh = [] {
    ImageL labels({9, 9, 9}, 1, {2.0, 2.0, 2.0});
    mesh::MesherConfig cfg;
    cfg.stride = 2;
    return mesh::mesh_labeled_volume(labels, cfg);
  }();
  return mesh;
}

/// Nonuniform displacement on the whole boundary (definite system with a
/// nontrivial solution).
std::vector<std::pair<mesh::NodeId, Vec3>> boundary_displacements() {
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = shared_mesh().nodes[n];
    bcs.emplace_back(n, Vec3{0.02 * p.z, -0.01 * p.x, 0.015 * p.y});
  }
  return bcs;
}

DeformationSolveOptions base_options(int nranks) {
  DeformationSolveOptions opt;
  opt.nranks = nranks;
  opt.solver.rtol = 1e-10;
  return opt;
}

DeformationResult run(const DeformationSolveOptions& opt,
                      const MaterialMap& materials = MaterialMap::homogeneous_brain()) {
  return solve_deformation(shared_mesh(), materials, boundary_displacements(),
                           opt);
}

/// Bitwise displacement-field comparison (memcmp via the raw doubles).
void expect_bit_identical(const DeformationResult& a, const DeformationResult& b) {
  ASSERT_EQ(a.node_displacements.size(), b.node_displacements.size());
  for (std::size_t i = 0; i < a.node_displacements.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.node_displacements[i], &b.node_displacements[i],
                          sizeof(Vec3)),
              0)
        << "node " << i;
  }
}

TEST(BackendEquivTest, DoubleRunIsBitIdenticalPerConfiguration) {
  // Determinism within a configuration: running the same solve twice must
  // replay bit for bit (fixed traversal order, owned-rows-only accumulation).
  const auto opt = base_options(4);
  const DeformationResult first = run(opt);
  const DeformationResult second = run(opt);
  ASSERT_TRUE(first.stats.converged);
  EXPECT_EQ(first.stats.iterations, second.stats.iterations);
  EXPECT_EQ(first.stats.final_residual, second.stats.final_residual);
  expect_bit_identical(first, second);
}

TEST(BackendEquivTest, ReachesRequestedToleranceNearIncompressible) {
  // Near-incompressible phantom (nu = 0.49): the stiffest configuration the
  // pipeline meets. Block-Jacobi ILU(0) weakens as the rank count splits the
  // operator into more blocks; GMRES must still reach the requested relative
  // tolerance at every rank count.
  const MaterialMap stiff{Material{3000.0, 0.49}};
  for (const int P : {1, 2, 4}) {
    const auto opt = base_options(P);
    const DeformationResult res = run(opt, stiff);
    ASSERT_TRUE(res.stats.converged) << "P=" << P;
    EXPECT_LE(res.stats.final_residual,
              opt.solver.rtol * res.stats.initial_residual * (1 + 1e-12))
        << "P=" << P;
  }
}

// --- Binary-search entry lookups (dist_matrix) ------------------------------

TEST(EntryLookupTest, CsrValueAtHitMissAndFixedRows) {
  const auto part = mesh::partition_node_balanced(shared_mesh().num_nodes(), 2);
  const MeshTopology topo = MeshTopology::build(shared_mesh());
  const DirichletSet bc =
      DirichletSet::from_node_displacements(boundary_displacements());
  par::run_spmd(2, [&](par::Communicator& comm) {
    LocalSystem csr = assemble_elasticity(
        shared_mesh(), topo, MaterialMap::homogeneous_brain(), part, {}, comm);
    apply_dirichlet(csr, bc, comm);
    const auto [rb, re] = csr.A.range();
    for (solver::GlobalRow row = rb; row < re; ++row) {
      const auto r = static_cast<std::size_t>(row - rb);
      const int pb = csr.A.row_ptr()[r];
      const int pe = csr.A.row_ptr()[r + 1];
      ASSERT_GT(pe, pb);
      // Hits: first, middle and last stored column of the row.
      for (const int p : {pb, (pb + pe) / 2, pe - 1}) {
        const solver::GlobalRow col{
            csr.A.global_cols()[static_cast<std::size_t>(p)]};
        EXPECT_EQ(csr.A.value_at(row, col),
                  csr.A.values()[static_cast<std::size_t>(p)]);
        EXPECT_EQ(csr.A.find_entry(row, col),
                  &csr.A.values()[static_cast<std::size_t>(p)]);
      }
      // Miss: a column past every stored one in this row.
      const solver::GlobalRow beyond{csr.A.global_size() + 5};
      EXPECT_EQ(csr.A.value_at(row, beyond), 0.0);
      EXPECT_EQ(csr.A.find_entry(row, beyond), nullptr);
    }
    // A fixed row is an identity row: unit diagonal, zero off-diagonals.
    const solver::GlobalRow fixed_row{row_of(bc.dofs().front()).value()};
    if (csr.A.range().contains(fixed_row)) {
      EXPECT_EQ(csr.A.value_at(fixed_row, fixed_row), 1.0);
    }
  });
}

}  // namespace
}  // namespace neuro::fem
