#include "fem/deformation_solver.h"

#include <algorithm>

#include "base/check.h"
#include "obs/trace.h"
#include "par/communicator.h"

namespace neuro::fem {

mesh::Partition make_partition(const mesh::TetMesh& mesh, const DirichletSet& bc,
                               PartitionKind kind, int nranks) {
  switch (kind) {
    case PartitionKind::kNodeBalanced:
      return mesh::partition_node_balanced(mesh.num_nodes(), nranks);
    case PartitionKind::kConnectivityBalanced:
      return mesh::partition_connectivity_balanced(mesh, nranks);
    case PartitionKind::kFreeNodeBalanced: {
      std::vector<std::uint8_t> fixed(static_cast<std::size_t>(mesh.num_nodes()), 0);
      for (const DofId dof : bc.dofs()) {
        fixed[node_of(dof).index()] = 1;
      }
      return mesh::partition_free_node_balanced(mesh, fixed, nranks);
    }
  }
  NEURO_CHECK_MSG(false, "make_partition: unknown kind");
  return {};
}

DeformationResult solve_deformation(
    const mesh::TetMesh& mesh, const MaterialMap& materials,
    const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
    const DeformationSolveOptions& options) {
  NEURO_REQUIRE(options.nranks >= 1, "solve_deformation: nranks must be >= 1");
  NEURO_REQUIRE(!prescribed.empty(),
                "solve_deformation: no prescribed displacements — system singular");

  DeformationResult result;
  obs::Span init_span = obs::timed_span("fem.setup");

  const DirichletSet bc = DirichletSet::from_node_displacements(prescribed);
  const mesh::Partition partition =
      make_partition(mesh, bc, options.partition, options.nranks);
  const MeshTopology topo = MeshTopology::build(mesh);

  result.wall_init_s = init_span.close();
  result.num_equations = 3 * mesh.num_nodes();
  result.num_fixed_dofs = static_cast<int>(bc.size());
  for (const Rank r : partition.rank_ids()) {
    result.nodes_per_rank.push_back(partition.nodes_of(r));
    const auto [nb, ne] = partition.ranges[r];
    result.fixed_dofs_per_rank.push_back(
        bc.count_in_range(dof_of(nb, 0), dof_of(ne, 0)));
  }

  const int P = options.nranks;
  std::vector<par::WorkRecord> assemble_work(static_cast<std::size_t>(P));
  std::vector<par::WorkRecord> bc_work(static_cast<std::size_t>(P));
  std::vector<par::WorkRecord> solve_work(static_cast<std::size_t>(P));
  std::vector<double> assemble_s(static_cast<std::size_t>(P), 0.0);
  std::vector<double> bc_s(static_cast<std::size_t>(P), 0.0);
  std::vector<double> solve_s(static_cast<std::size_t>(P), 0.0);
  std::vector<Vec3> displacements(static_cast<std::size_t>(mesh.num_nodes()));
  solver::SolveStats stats;

  par::SpmdOptions spmd;
  spmd.fault = options.fault_injection;
  par::run_spmd(P, [&](par::Communicator& comm) {
    const int rank = comm.rank();
    const auto r = static_cast<std::size_t>(rank);
    comm.work().take();  // discard any setup noise

    // --- Assemble ---
    comm.barrier();
    obs::Span phase = obs::timed_span("fem.assemble");
    LocalSystem system = assemble_elasticity(mesh, topo, materials, partition,
                                             options.body_force, comm);
    comm.barrier();
    assemble_s[r] = phase.close();
    assemble_work[r] = comm.work().take();

    // --- Boundary conditions ---
    phase = obs::timed_span("fem.bc");
    apply_dirichlet(system, bc, comm);
    comm.barrier();
    bc_s[r] = phase.close();
    bc_work[r] = comm.work().take();

    // --- Solve ---
    phase = obs::timed_span("fem.solve");
    // Shrink to the true unknown set (paper's BC path), then build the ghost
    // exchange plan.
    solver::DistCsrMatrix& A = system.A;
    const solver::DistVector& rhs = system.b;
    A.drop_zeros();
    A.setup_ghosts(comm);
    const solver::BlockJacobiIlu0 precond(A);
    solver::DistVector x(rhs.global_size(), rhs.range(), 0.0);
    const solver::SolveStats local_stats =
        solver::gmres(A, rhs, x, precond, options.solver, comm);
    comm.barrier();
    if (phase.active()) {
      phase.attr("iterations", local_stats.iterations);
      phase.attr("residual", local_stats.final_residual);
    }
    solve_s[r] = phase.close();
    solve_work[r] = comm.work().take();

    // --- Collect the displacement field (disjoint slabs, no locking). ---
    for (const mesh::NodeId n : partition.ranges[comm.rank_id()]) {
      displacements[n.index()] = {x[row_of(dof_of(n, 0))],
                                  x[row_of(dof_of(n, 1))],
                                  x[row_of(dof_of(n, 2))]};
    }
    if (rank == 0) stats = local_stats;
  }, spmd);

  result.node_displacements = std::move(displacements);
  result.stats = stats;
  result.work.record("assemble", std::move(assemble_work));
  result.work.record("bc", std::move(bc_work));
  result.work.record("solve", std::move(solve_work));
  result.wall_assemble_s = *std::max_element(assemble_s.begin(), assemble_s.end());
  result.wall_bc_s = *std::max_element(bc_s.begin(), bc_s.end());
  result.wall_solve_s = *std::max_element(solve_s.begin(), solve_s.end());
  return result;
}

}  // namespace neuro::fem
