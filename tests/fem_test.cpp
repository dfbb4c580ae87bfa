// Tests for the linear-elastic FEM: material law, element stiffness
// (symmetry, rigid-body null space), assembly (patch test), boundary-condition
// substitution, and the parallel deformation solver (serial/parallel
// agreement, partitioner variants).
#include <gtest/gtest.h>

#include <cmath>

#include "base/check.h"
#include "base/rng.h"
#include "fem/assembly.h"
#include "fem/boundary.h"
#include "fem/deformation_solver.h"
#include "fem/element.h"
#include "fem/material.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "par/communicator.h"

namespace neuro::fem {
namespace {

TEST(MaterialTest, ElasticityMatrixStructure) {
  const Material m{1000.0, 0.3};
  const auto D = elasticity_matrix(m);
  // Symmetry.
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(D[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                       D[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]);
    }
  }
  // Known entries: D00 = E(1-nu)/((1+nu)(1-2nu)), shear G = E/2(1+nu).
  EXPECT_NEAR(D[0][0], 1000.0 * 0.7 / (1.3 * 0.4), 1e-9);
  EXPECT_NEAR(D[3][3], 1000.0 / 2.6, 1e-9);
  // Normal-shear decoupling for isotropy.
  EXPECT_DOUBLE_EQ(D[0][3], 0.0);
  EXPECT_DOUBLE_EQ(D[4][5], 0.0);
}

TEST(MaterialTest, RejectsInvalidParameters) {
  EXPECT_THROW(static_cast<void>(elasticity_matrix(Material{-1.0, 0.3})), CheckError);
  EXPECT_THROW(static_cast<void>(elasticity_matrix(Material{1000.0, 0.5})), CheckError);
  EXPECT_THROW(static_cast<void>(elasticity_matrix(Material{1000.0, -1.0})), CheckError);
}

TEST(MaterialTest, MapDefaultsAndOverrides) {
  MaterialMap map(Material{100.0, 0.4});
  map.set(3, Material{999.0, 0.2});
  EXPECT_DOUBLE_EQ(map.for_label(3).youngs_modulus, 999.0);
  EXPECT_DOUBLE_EQ(map.for_label(7).youngs_modulus, 100.0);
  // Heterogeneous preset: falx stiffer than brain.
  const MaterialMap het = MaterialMap::heterogeneous_brain();
  EXPECT_GT(het.for_label(5).youngs_modulus, het.for_label(3).youngs_modulus);
}

TetElement unit_element() {
  return TetElement::from_vertices({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1});
}

TEST(ElementTest, VolumeAndGradients) {
  const TetElement e = unit_element();
  EXPECT_NEAR(e.volume, 1.0 / 6.0, 1e-12);
  // Shape gradients sum to zero (partition of unity).
  const Vec3 sum = e.grad_n[0] + e.grad_n[1] + e.grad_n[2] + e.grad_n[3];
  EXPECT_NEAR(norm(sum), 0.0, 1e-12);
  // ∇N_1 = x̂ for this element.
  EXPECT_NEAR(e.grad_n[1].x, 1.0, 1e-12);
  EXPECT_NEAR(e.grad_n[1].y, 0.0, 1e-12);
}

TEST(ElementTest, RejectsInvertedTet) {
  EXPECT_THROW(static_cast<void>(TetElement::from_vertices(
                   {0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 1})),
               CheckError);
}

TEST(ElementTest, StiffnessIsSymmetric) {
  const TetElement e = TetElement::from_vertices({0, 0, 0}, {2, 0.1, 0}, {0.3, 1.7, 0},
                                                 {0.2, 0.1, 1.4});
  const auto Ke = e.stiffness(elasticity_matrix(Material{3000, 0.45}));
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 12; ++c) {
      EXPECT_NEAR(Ke[static_cast<std::size_t>(12 * r + c)],
                  Ke[static_cast<std::size_t>(12 * c + r)], 1e-8);
    }
  }
}

TEST(ElementTest, RigidBodyModesProduceNoForce) {
  // Translations and infinitesimal rotations are in the stiffness null space.
  const TetElement e = TetElement::from_vertices({0, 0, 0}, {1.5, 0.2, 0},
                                                 {0.1, 1.2, 0.1}, {0.3, 0.2, 1.1});
  const std::array<Vec3, 4> verts{Vec3{0, 0, 0}, Vec3{1.5, 0.2, 0},
                                  Vec3{0.1, 1.2, 0.1}, Vec3{0.3, 0.2, 1.1}};
  const auto Ke = e.stiffness(elasticity_matrix(Material{1000, 0.3}));

  auto force_norm = [&](const std::array<double, 12>& u) {
    double max_f = 0;
    for (int r = 0; r < 12; ++r) {
      double f = 0;
      for (int c = 0; c < 12; ++c) {
        f += Ke[static_cast<std::size_t>(12 * r + c)] * u[static_cast<std::size_t>(c)];
      }
      max_f = std::max(max_f, std::abs(f));
    }
    return max_f;
  };

  // Translation x̂.
  std::array<double, 12> u{};
  for (int n = 0; n < 4; ++n) u[static_cast<std::size_t>(3 * n)] = 1.0;
  EXPECT_NEAR(force_norm(u), 0.0, 1e-9);

  // Infinitesimal rotation about ẑ: u = ω × x with ω = ẑ.
  for (int n = 0; n < 4; ++n) {
    u[static_cast<std::size_t>(3 * n + 0)] = -verts[static_cast<std::size_t>(n)].y;
    u[static_cast<std::size_t>(3 * n + 1)] = verts[static_cast<std::size_t>(n)].x;
    u[static_cast<std::size_t>(3 * n + 2)] = 0.0;
  }
  EXPECT_NEAR(force_norm(u), 0.0, 1e-8);
}

TEST(ElementTest, StiffnessIsPositiveSemiDefinite) {
  const TetElement e = TetElement::from_vertices({0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                                                 {0, 0, 1});
  const auto Ke = e.stiffness(elasticity_matrix(Material{2000, 0.35}));
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<double, 12> u{};
    for (auto& v : u) v = rng.uniform(-1, 1);
    double quad = 0;
    for (int r = 0; r < 12; ++r) {
      for (int c = 0; c < 12; ++c) {
        quad += u[static_cast<std::size_t>(r)] *
                Ke[static_cast<std::size_t>(12 * r + c)] *
                u[static_cast<std::size_t>(c)];
      }
    }
    EXPECT_GE(quad, -1e-9);
  }
}

TEST(ElementTest, BodyForceLoadSplitsEvenly) {
  const TetElement e = unit_element();
  const auto load = e.body_force_load({0, 0, -9.8});
  for (int n = 0; n < 4; ++n) {
    EXPECT_DOUBLE_EQ(load[static_cast<std::size_t>(3 * n + 2)], e.volume / 4 * -9.8);
    EXPECT_DOUBLE_EQ(load[static_cast<std::size_t>(3 * n)], 0.0);
  }
}

/// A small solid block mesh for system-level tests.
mesh::TetMesh block_mesh(int n = 7, double spacing = 1.0, int stride = 2) {
  ImageL labels({n, n, n}, 1, {spacing, spacing, spacing});
  mesh::MesherConfig cfg;
  cfg.stride = stride;
  return mesh::mesh_labeled_volume(labels, cfg);
}

TEST(AssemblyTest, GlobalMatrixIsSymmetricWithZeroRowSums) {
  const mesh::TetMesh mesh = block_mesh();
  const MeshTopology topo = MeshTopology::build(mesh);
  const MaterialMap materials = MaterialMap::homogeneous_brain();
  const mesh::Partition part = mesh::partition_node_balanced(mesh.num_nodes(), 1);

  par::run_spmd(1, [&](par::Communicator& comm) {
    const LocalSystem sys = assemble_elasticity(mesh, topo, materials, part, {}, comm);
    const int n = 3 * mesh.num_nodes();
    // Symmetry over the stored pattern.
    for (int r = 0; r < n; r += 7) {
      for (int p = sys.A.row_ptr()[static_cast<std::size_t>(r)];
           p < sys.A.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
        const int c = sys.A.global_cols()[static_cast<std::size_t>(p)];
        EXPECT_NEAR(sys.A.values()[static_cast<std::size_t>(p)],
                    sys.A.value_at(solver::GlobalRow{c}, solver::GlobalRow{r}),
                    1e-8);
      }
    }
    // Row sums vanish (translation null space) for rows whose node has all
    // its neighbours in the matrix — true for every row here.
    for (int r = 0; r < n; r += 5) {
      double sum = 0;
      for (int p = sys.A.row_ptr()[static_cast<std::size_t>(r)];
           p < sys.A.row_ptr()[static_cast<std::size_t>(r) + 1]; ++p) {
        // Only same-component columns contribute to the translation mode.
        const int c = sys.A.global_cols()[static_cast<std::size_t>(p)];
        if (c % 3 == r % 3) sum += sys.A.values()[static_cast<std::size_t>(p)];
      }
      EXPECT_NEAR(sum, 0.0, 1e-7);
    }
  });
}

TEST(AssemblyTest, ParallelRowsMatchSerial) {
  const mesh::TetMesh mesh = block_mesh();
  const MeshTopology topo = MeshTopology::build(mesh);
  const MaterialMap materials = MaterialMap::homogeneous_brain();

  // Serial reference rows.
  std::vector<double> ref_values;
  std::vector<int> ref_cols;
  par::run_spmd(1, [&](par::Communicator& comm) {
    const auto part = mesh::partition_node_balanced(mesh.num_nodes(), 1);
    const LocalSystem sys = assemble_elasticity(mesh, topo, materials, part, {}, comm);
    ref_values = sys.A.values();
    ref_cols = sys.A.global_cols();
  });

  for (const int P : {2, 4}) {
    const auto part = mesh::partition_node_balanced(mesh.num_nodes(), P);
    par::run_spmd(P, [&](par::Communicator& comm) {
      const LocalSystem sys =
          assemble_elasticity(mesh, topo, materials, part, {}, comm);
      // Compare each owned row against the serial slice.
      const auto [rb, re] = sys.A.range();
      int serial_p = 0;
      // Locate the serial offset of row rb: rows are in the same order, and
      // the serial matrix owns all rows, so walk its row_ptr.
      par::run_spmd(1, [&](par::Communicator& c1) {
        const auto p1 = mesh::partition_node_balanced(mesh.num_nodes(), 1);
        const LocalSystem ref = assemble_elasticity(mesh, topo, materials, p1, {}, c1);
        serial_p = ref.A.row_ptr()[rb.index()];
      });
      for (std::size_t p = 0; p < sys.A.values().size(); ++p) {
        ASSERT_EQ(sys.A.global_cols()[p],
                  ref_cols[static_cast<std::size_t>(serial_p) + p]);
        ASSERT_NEAR(sys.A.values()[p],
                    ref_values[static_cast<std::size_t>(serial_p) + p], 1e-9);
      }
    });
  }
}

TEST(DirichletSetTest, BuildQueryAndCount) {
  DirichletSet bc = DirichletSet::from_node_displacements(
      {{mesh::NodeId{2}, Vec3{1, 2, 3}}, {mesh::NodeId{0}, Vec3{0, 0, 0}}});
  EXPECT_EQ(bc.size(), 6u);
  EXPECT_TRUE(bc.contains(DofId{6}));
  EXPECT_TRUE(bc.contains(DofId{0}));
  EXPECT_FALSE(bc.contains(DofId{3}));
  EXPECT_DOUBLE_EQ(bc.value_of(DofId{7}), 2.0);  // node 2, y component
  EXPECT_EQ(bc.count_in_range(DofId{0}, DofId{3}), 3);
  EXPECT_EQ(bc.count_in_range(DofId{3}, DofId{6}), 0);
  EXPECT_THROW(static_cast<void>(bc.value_of(DofId{3})), CheckError);
}

TEST(DirichletSetTest, ConflictingValuesRejected) {
  DirichletSet bc;
  bc.add(DofId{5}, 1.0);
  bc.add(DofId{5}, 2.0);
  EXPECT_THROW(bc.finalize(), CheckError);
}

TEST(DirichletSetTest, DuplicateConsistentValuesDeduplicate) {
  DirichletSet bc;
  bc.add(DofId{5}, 1.0);
  bc.add(DofId{5}, 1.0);
  bc.finalize();
  EXPECT_EQ(bc.size(), 1u);
}

TEST(SolveTest, UniformTranslationBcGivesUniformField) {
  // Prescribing the same displacement on the whole boundary must translate
  // the entire block rigidly (elasticity patch test, order 0).
  const mesh::TetMesh mesh = block_mesh();
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  const Vec3 shift{0.3, -0.2, 0.5};
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) bcs.emplace_back(n, shift);

  DeformationSolveOptions opt;
  opt.solver.rtol = 1e-10;
  const DeformationResult result =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
  EXPECT_TRUE(result.stats.converged);
  for (const auto& u : result.node_displacements) {
    EXPECT_NEAR(norm(u - shift), 0.0, 1e-6);
  }
}

TEST(SolveTest, LinearFieldReproducedExactly) {
  // Patch test, order 1: linear tets reproduce any affine displacement field
  // exactly when it is prescribed on the boundary.
  const mesh::TetMesh mesh = block_mesh(7, 2.0);
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  auto affine = [](const Vec3& p) {
    return Vec3{0.01 * p.x + 0.02 * p.y, -0.015 * p.y + 0.005 * p.z, 0.02 * p.z};
  };
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    bcs.emplace_back(n, affine(mesh.nodes[n]));
  }
  DeformationSolveOptions opt;
  opt.solver.rtol = 1e-12;
  const DeformationResult result =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
  EXPECT_TRUE(result.stats.converged);
  for (const mesh::NodeId n : mesh.node_ids()) {
    EXPECT_NEAR(norm(result.node_displacements[n.index()] - affine(mesh.nodes[n])),
                0.0, 1e-5);
  }
}

class SolveRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolveRankSweep, ParallelMatchesSerial) {
  const int P = GetParam();
  const mesh::TetMesh mesh = block_mesh();
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  // A non-trivial boundary field: squeeze in z, bulge in x.
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = mesh.nodes[n];
    bcs.emplace_back(n, Vec3{0.02 * p.z, 0.0, -0.05 * p.z});
  }
  DeformationSolveOptions opt;
  opt.solver.rtol = 1e-11;
  const DeformationResult serial =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);

  opt.nranks = P;
  const DeformationResult parallel =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
  EXPECT_TRUE(parallel.stats.converged);
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    EXPECT_NEAR(norm(parallel.node_displacements[static_cast<std::size_t>(n)] -
                     serial.node_displacements[static_cast<std::size_t>(n)]),
                0.0, 1e-6)
        << "P=" << P << " node " << n;
  }
  // Work records exist for all phases and ranks.
  EXPECT_EQ(parallel.work.phase("assemble").size(), static_cast<std::size_t>(P));
  EXPECT_EQ(parallel.work.phase("solve").size(), static_cast<std::size_t>(P));
  for (const auto& w : parallel.work.phase("assemble")) EXPECT_GT(w.flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SolveRankSweep, ::testing::Values(2, 3, 5, 8));

TEST(SolveTest, AllPartitionKindsAgree) {
  const mesh::TetMesh mesh = block_mesh();
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    bcs.emplace_back(n, Vec3{0.0, 0.0, 0.01 * mesh.nodes[n].x});
  }
  DeformationSolveOptions opt;
  opt.nranks = 4;
  opt.solver.rtol = 1e-11;

  std::vector<std::vector<Vec3>> solutions;
  for (const auto kind :
       {PartitionKind::kNodeBalanced, PartitionKind::kConnectivityBalanced,
        PartitionKind::kFreeNodeBalanced}) {
    opt.partition = kind;
    const auto result =
        solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
    EXPECT_TRUE(result.stats.converged);
    solutions.push_back(result.node_displacements);
  }
  for (std::size_t s = 1; s < solutions.size(); ++s) {
    for (std::size_t n = 0; n < solutions[0].size(); ++n) {
      EXPECT_NEAR(norm(solutions[s][n] - solutions[0][n]), 0.0, 1e-6);
    }
  }
}

TEST(SolveTest, HeterogeneousMaterialsChangeInterior) {
  // Same BCs, different material map ⇒ different interior solution.
  ImageL labels({7, 7, 7}, 3, {2, 2, 2});
  // Stiff slab (falx label) through the middle — two voxels thick so the
  // stride-2 majority labeling keeps it.
  for (int k = 0; k < 7; ++k) {
    for (int j = 0; j < 7; ++j) {
      labels(3, j, k) = 5;
      labels(4, j, k) = 5;
    }
  }
  mesh::MesherConfig mcfg;
  mcfg.stride = 2;
  const mesh::TetMesh mesh = mesh::mesh_labeled_volume(labels, mcfg);
  const auto surface = mesh::extract_boundary_surface(mesh, {3, 5});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) {
    const Vec3& p = mesh.nodes[n];
    bcs.emplace_back(n, Vec3{0, 0, 0.03 * p.x});
  }
  DeformationSolveOptions opt;
  opt.solver.rtol = 1e-11;
  const auto homo =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
  const auto het =
      solve_deformation(mesh, MaterialMap::heterogeneous_brain(), bcs, opt);
  double max_diff = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    max_diff = std::max(max_diff,
                        norm(homo.node_displacements[static_cast<std::size_t>(n)] -
                             het.node_displacements[static_cast<std::size_t>(n)]));
  }
  EXPECT_GT(max_diff, 1e-4);
}

TEST(SolveTest, FixedDofAccountingMatchesBc) {
  const mesh::TetMesh mesh = block_mesh();
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> bcs;
  for (const auto n : surface.mesh_nodes) bcs.emplace_back(n, Vec3{});
  DeformationSolveOptions opt;
  opt.nranks = 3;
  const auto result =
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), bcs, opt);
  EXPECT_EQ(result.num_fixed_dofs, 3 * surface.num_vertices());
  EXPECT_EQ(result.num_equations, 3 * mesh.num_nodes());
  int per_rank_sum = 0;
  for (const int f : result.fixed_dofs_per_rank) per_rank_sum += f;
  EXPECT_EQ(per_rank_sum, result.num_fixed_dofs);
}

TEST(SolveTest, EmptyBcRejected) {
  const mesh::TetMesh mesh = block_mesh();
  EXPECT_THROW(
      solve_deformation(mesh, MaterialMap::homogeneous_brain(), {}, {}),
      CheckError);
}

}  // namespace
}  // namespace neuro::fem
