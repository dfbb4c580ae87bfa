// Component micro-benchmarks (google-benchmark): per-kernel costs of every
// stage the pipeline is built from. These are host-hardware numbers, useful
// for spotting regressions and for sanity-checking the work accounting that
// feeds the platform models.
#include <benchmark/benchmark.h>
#include <algorithm>
#include <span>

#include "base/rng.h"
#include "core/deformation_field.h"
#include "fem/assembly.h"
#include "fem/boundary.h"
#include "fem/deformation_solver.h"
#include "fem/strain.h"
#include "image/components.h"
#include "image/distance.h"
#include "image/filters.h"
#include "mesh/marching.h"
#include "mesh/mesher.h"
#include "mesh/refine.h"
#include "mesh/tri_surface.h"
#include "obs/trace.h"
#include "par/communicator.h"
#include "phantom/brain_phantom.h"
#include "reg/mutual_information.h"
#include "reg/rigid_registration.h"
#include "seg/intraop.h"
#include "solver/bsr_matrix.h"
#include "solver/krylov.h"
#include "surface/active_surface.h"

namespace {

using namespace neuro;

const phantom::PhantomCase& shared_case() {
  static const phantom::PhantomCase cas = [] {
    phantom::PhantomConfig pc;
    pc.dims = {64, 64, 64};
    pc.spacing = {3.0, 3.0, 3.0};
    return phantom::make_case(pc, phantom::ShiftConfig{});
  }();
  return cas;
}

const mesh::TetMesh& shared_mesh() {
  static const mesh::TetMesh mesh = [] {
    mesh::MesherConfig mc;
    mc.stride = 2;
    mc.keep_labels = {3, 4, 5, 6};
    return mesh::mesh_labeled_volume(shared_case().preop_labels, mc);
  }();
  return mesh;
}

void BM_DistanceTransform(benchmark::State& state) {
  const auto& cas = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance_to_label(cas.preop_labels, 3, 10.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(cas.preop_labels.size()));
}
BENCHMARK(BM_DistanceTransform)->Unit(benchmark::kMillisecond);

void BM_GaussianSmooth(benchmark::State& state) {
  const auto& cas = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gaussian_smooth(cas.preop, 1.0));
  }
}
BENCHMARK(BM_GaussianSmooth)->Unit(benchmark::kMillisecond);

void BM_GradientMagnitude(benchmark::State& state) {
  const auto& cas = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gradient_magnitude(cas.preop));
  }
}
BENCHMARK(BM_GradientMagnitude)->Unit(benchmark::kMillisecond);

void BM_MutualInformation(benchmark::State& state) {
  const auto& cas = shared_case();
  reg::MiConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg::mutual_information(cas.intraop, cas.preop, RigidTransform{}, cfg));
  }
}
BENCHMARK(BM_MutualInformation)->Unit(benchmark::kMillisecond);

// One level-0 MI evaluation at the Fig. 6 shape (96^3, 2.5 mm, default
// registration config): the sampler is built once, as register_rigid_mi
// builds it once per pyramid level, and the transform moves some samples out
// of the volume.
void BM_MiSamplerEvaluate(benchmark::State& state) {
  const reg::RigidRegistrationConfig rcfg;
  // Built once per process: every repetition reuses the phantom and pyramid.
  static const reg::RegistrationPyramid pyr = [&rcfg] {
    phantom::PhantomConfig pc;
    pc.dims = {96, 96, 96};
    pc.spacing = {2.5, 2.5, 2.5};
    const auto cas = phantom::make_case(pc, phantom::ShiftConfig{});
    return reg::build_registration_pyramid(cas.intraop, cas.preop, rcfg);
  }();
  const reg::MiSampler sampler(pyr.fixed[0], pyr.moving[0], rcfg.mi);
  RigidTransform t;
  t.center = pyr.center;
  t.translation = {3.0, -2.0, 1.5};
  t.rotation = {0.02, -0.03, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.evaluate(t));
  }
  const int stride = rcfg.mi.sample_stride;
  const IVec3 d = pyr.fixed[0].dims();
  const double samples = static_cast<double>((d.x + stride - 1) / stride) *
                         ((d.y + stride - 1) / stride) * ((d.z + stride - 1) / stride);
  // Inverted iteration-invariant rate of samples / 1e9: nanoseconds per sample.
  state.counters["ns_per_sample"] = benchmark::Counter(
      samples / 1e9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MiSamplerEvaluate)->Unit(benchmark::kMillisecond);

void BM_KnnClassifyVolume(benchmark::State& state) {
  const auto& cas = shared_case();
  seg::IntraopSegmentationConfig cfg;
  cfg.classes = {0, 1, 2, 3, 4};
  cfg.exclude_classes = {5, 6};
  cfg.dt_saturation_mm = 10.0;
  cfg.dt_weight = 1.5;
  const seg::FeatureStack stack =
      seg::build_feature_stack(cas.intraop, cas.preop_labels, cfg);
  Rng rng(1);
  const seg::KnnClassifier knn(
      seg::select_prototypes_robust(cas.preop_labels, stack, cfg.prototypes_per_class,
                                    rng, cfg.exclude_classes, 6.0, 4.0),
      cfg.k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.classify_volume(stack));
  }
  // One traced pass outside the timed loop: its seg.knn span carries the
  // number of prototype distances the k-d tree search evaluated.
  obs::global().clear();
  obs::global().set_enabled(true);
  benchmark::DoNotOptimize(knn.classify_volume(stack));
  obs::global().set_enabled(false);
  double evals = 0.0;
  for (const auto& e : obs::global().snapshot()) {
    if (e.name != "seg.knn") continue;
    for (const auto& a : e.attrs) {
      if (a.key == "distance_evals") evals += static_cast<double>(a.i);
    }
  }
  obs::global().clear();
  const auto voxels = static_cast<double>(stack.voxels());
  // Inverted iteration-invariant rate: seconds per voxel (printed as ns).
  state.counters["time_per_voxel"] = benchmark::Counter(
      voxels, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["evals_per_voxel"] = evals / voxels;
}
BENCHMARK(BM_KnnClassifyVolume)->Unit(benchmark::kMillisecond);

void BM_MeshLabeledVolume(benchmark::State& state) {
  const auto& cas = shared_case();
  mesh::MesherConfig mc;
  mc.stride = static_cast<int>(state.range(0));
  mc.keep_labels = {3, 4, 5, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::mesh_labeled_volume(cas.preop_labels, mc));
  }
}
BENCHMARK(BM_MeshLabeledVolume)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ElementStiffness(benchmark::State& state) {
  const auto D = fem::elasticity_matrix(fem::Material{3000, 0.45});
  const auto elem =
      fem::TetElement::from_vertices({0, 0, 0}, {2, 0.1, 0}, {0.3, 1.9, 0.1},
                                     {0.2, 0.3, 2.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(elem.stiffness(D));
  }
}
BENCHMARK(BM_ElementStiffness);

void BM_AssembleElasticity(benchmark::State& state) {
  const auto& mesh = shared_mesh();
  const fem::MeshTopology topo = fem::MeshTopology::build(mesh);
  const auto materials = fem::MaterialMap::homogeneous_brain();
  const auto part = mesh::partition_node_balanced(mesh.num_nodes(), 1);
  for (auto _ : state) {
    par::run_spmd(1, [&](par::Communicator& comm) {
      benchmark::DoNotOptimize(
          fem::assemble_elasticity(mesh, topo, materials, part, {}, comm));
    });
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_tets());
}
BENCHMARK(BM_AssembleElasticity)->Unit(benchmark::kMillisecond);

struct SolveFixture {
  mesh::TetMesh mesh;
  fem::MeshTopology topo;
  fem::MaterialMap materials = fem::MaterialMap::homogeneous_brain();
  fem::LocalSystem system;
  std::unique_ptr<solver::Preconditioner> precond;

  SolveFixture()
      : mesh(shared_mesh()),
        topo(fem::MeshTopology::build(mesh)),
        system(make_system()) {
    precond = solver::make_preconditioner(
        solver::PreconditionerKind::kBlockJacobiIlu0, system.A);
  }

  fem::LocalSystem make_system() {
    const auto part = mesh::partition_node_balanced(mesh.num_nodes(), 1);
    fem::LocalSystem sys = [&] {
      const solver::RowRange unit{solver::GlobalRow{0}, solver::GlobalRow{1}};
      fem::LocalSystem built{
          solver::DistCsrMatrix(1, unit, {0, 0}, {}, {}),
          solver::DistVector(1, unit)};
      par::run_spmd(1, [&](par::Communicator& comm) {
        built = fem::assemble_elasticity(mesh, topo, materials, part, {}, comm);
      });
      return built;
    }();
    // Fix the boundary so the operator is definite.
    const auto surface = mesh::extract_boundary_surface(mesh, {3, 4, 5, 6});
    std::vector<std::pair<mesh::NodeId, Vec3>> bc_nodes;
    for (const auto n : surface.mesh_nodes) bc_nodes.emplace_back(n, Vec3{});
    const auto bc = fem::DirichletSet::from_node_displacements(bc_nodes);
    par::run_spmd(1, [&](par::Communicator& comm) { apply_dirichlet(sys, bc, comm); });
    return sys;
  }
};

void BM_SpMV(benchmark::State& state) {
  static SolveFixture fixture;
  par::run_spmd(1, [&](par::Communicator& comm) {
    solver::DistVector x(fixture.system.b.global_size(), fixture.system.b.range(), 1.0);
    solver::DistVector y(fixture.system.b.global_size(), fixture.system.b.range());
    for (auto _ : state) {
      fixture.system.A.apply(x, y, comm);
      benchmark::DoNotOptimize(y.local().data());
    }
  });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(fixture.system.A.local_nnz()));
  // Same traffic estimate the work accounting charges: value + index + x + y.
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<long>(12.0 * static_cast<double>(fixture.system.A.local_nnz()) +
                        16.0 * fixture.system.A.local_rows()));
}
BENCHMARK(BM_SpMV)->Unit(benchmark::kMillisecond);

// Block-CSR counterpart of BM_SpMV on the same assembled system: one column
// index per 3x3 block and register-blocked rows. The perf-smoke CI job tracks
// the bytes_per_second ratio of the two (expected well above 1.5x).
void BM_BsrSpMV(benchmark::State& state) {
  static SolveFixture fixture;
  static const solver::DistBsrMatrix bsr =
      solver::DistBsrMatrix::from_csr(fixture.system.A);
  par::run_spmd(1, [&](par::Communicator& comm) {
    solver::DistVector x(fixture.system.b.global_size(), fixture.system.b.range(), 1.0);
    solver::DistVector y(fixture.system.b.global_size(), fixture.system.b.range());
    for (auto _ : state) {
      bsr.apply(x, y, comm);
      benchmark::DoNotOptimize(y.local().data());
    }
  });
  state.SetItemsProcessed(state.iterations() * static_cast<long>(bsr.local_nnz()));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<long>(76.0 * static_cast<double>(bsr.local_blocks()) +
                        16.0 * bsr.local_rows()));
}
BENCHMARK(BM_BsrSpMV)->Unit(benchmark::kMillisecond);

// Collectives per GMRES iteration, measured from the runtime's own work
// records on a 2-rank partitioned solve. Modified Gram-Schmidt pays j+2
// allreduces in iteration j (O(m^2) per restart cycle); classical pays a
// flat 1 (plus the occasional cancellation-guard norm), O(m) per cycle. The
// perf-smoke CI job records both counters into BENCH_solver.json.
void BM_GmresAllreduces(benchmark::State& state) {
  const bool classical = state.range(0) != 0;
  const auto& mesh = shared_mesh();
  const fem::MeshTopology topo = fem::MeshTopology::build(mesh);
  const auto materials = fem::MaterialMap::homogeneous_brain();
  constexpr int kRanks = 2;
  const auto part = mesh::partition_node_balanced(mesh.num_nodes(), kRanks);
  const auto surface = mesh::extract_boundary_surface(mesh, {3, 4, 5, 6});
  std::vector<std::pair<mesh::NodeId, Vec3>> bc_nodes;
  for (const auto n : surface.mesh_nodes) {
    bc_nodes.emplace_back(n, Vec3{0.5, 0.0, -0.5});
  }
  const auto bc = fem::DirichletSet::from_node_displacements(bc_nodes);

  double rounds = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    par::run_spmd(kRanks, [&](par::Communicator& comm) {
      fem::LocalSystem sys =
          fem::assemble_elasticity(mesh, topo, materials, part, {}, comm);
      fem::apply_dirichlet(sys, bc, comm);
      sys.A.drop_zeros();
      sys.A.setup_ghosts(comm);
      const auto M = solver::make_preconditioner(
          solver::PreconditionerKind::kBlockJacobiIlu0, sys.A, comm, 1);
      solver::DistVector x(sys.b.global_size(), sys.b.range());
      solver::SolverConfig cfg;
      cfg.gmres_orthogonalization = classical
                                        ? solver::GramSchmidtKind::kClassical
                                        : solver::GramSchmidtKind::kModified;
      comm.work().take();  // isolate the solve's collectives
      const auto stats = solver::gmres(sys.A, sys.b, x, *M, cfg, comm);
      const par::WorkRecord w = comm.work().take();
      if (comm.rank() == 0) {
        rounds = w.coll_rounds;
        iterations = stats.iterations;
      }
    });
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["allreduces_per_iter"] =
      rounds / static_cast<double>(std::max(1, iterations));
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_GmresAllreduces)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("cgs")
    ->Unit(benchmark::kMillisecond);

void BM_Ilu0Apply(benchmark::State& state) {
  static SolveFixture fixture;
  par::run_spmd(1, [&](par::Communicator& comm) {
    solver::DistVector r(fixture.system.b.global_size(), fixture.system.b.range(), 1.0);
    solver::DistVector z(fixture.system.b.global_size(), fixture.system.b.range());
    for (auto _ : state) {
      fixture.precond->apply(r, z, comm);
      benchmark::DoNotOptimize(z.local().data());
    }
  });
}
BENCHMARK(BM_Ilu0Apply)->Unit(benchmark::kMillisecond);

void BM_ActiveSurfaceIteration(benchmark::State& state) {
  const auto& cas = shared_case();
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {3, 4, 5, 6});
  const ImageL mask = seg::mask_of_labels(cas.intraop_labels, {3, 4, 5, 6});
  const ImageF sdf = signed_distance_to_label(mask, 1, 30.0);
  surface::ActiveSurfaceConfig cfg;
  cfg.max_iterations = 1;
  cfg.convergence_mm = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(surface::deform_to_distance_field(surface, sdf, cfg));
  }
  state.SetItemsProcessed(state.iterations() * surface.num_vertices());
}
BENCHMARK(BM_ActiveSurfaceIteration)->Unit(benchmark::kMillisecond);

void BM_RasterizeDisplacements(benchmark::State& state) {
  const auto& mesh = shared_mesh();
  const auto& cas = shared_case();
  std::vector<Vec3> u(static_cast<std::size_t>(mesh.num_nodes()), Vec3{1, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rasterize_displacements(mesh, u, cas.preop));
  }
}
BENCHMARK(BM_RasterizeDisplacements)->Unit(benchmark::kMillisecond);

void BM_WarpBackward(benchmark::State& state) {
  const auto& cas = shared_case();
  const ImageV field(cas.preop.dims(), Vec3{1, 0.5, -0.5}, cas.preop.spacing(),
                     cas.preop.origin());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::warp_backward(cas.preop, field));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(cas.preop.size()));
}
BENCHMARK(BM_WarpBackward)->Unit(benchmark::kMillisecond);

void BM_InvertField(benchmark::State& state) {
  const auto& cas = shared_case();
  ImageV field(cas.preop.dims(), Vec3{}, cas.preop.spacing(), cas.preop.origin());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field.data()[i] = cas.true_backward_shift.data()[i];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::invert_displacement_field(field, 8));
  }
  // Trilinear samples per voxel. The phantom's shift is zero outside the
  // brain, as the pipeline's extended field is beyond its reach, and voxels
  // there stop at their first repeated probe point.
  ImageV inverse(field.dims(), Vec3{}, field.spacing(), field.origin());
  state.counters["samples_per_voxel"] =
      static_cast<double>(core::invert_slab(field, 8, inverse, 0, field.dims().z)) /
      static_cast<double>(field.size());
}
BENCHMARK(BM_InvertField)->Unit(benchmark::kMillisecond);

void BM_RefineUniform(benchmark::State& state) {
  const auto& mesh = shared_mesh();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::refine_uniform(mesh));
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_tets());
}
BENCHMARK(BM_RefineUniform)->Unit(benchmark::kMillisecond);

void BM_MarchingTetrahedra(benchmark::State& state) {
  const auto& cas = shared_case();
  const ImageL mask = seg::mask_of_labels(cas.intraop_labels, {3, 4, 5, 6});
  const ImageF sdf = signed_distance_to_label(mask, 1, 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::marching_tetrahedra(sdf, 0.0));
  }
}
BENCHMARK(BM_MarchingTetrahedra)->Unit(benchmark::kMillisecond);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto& cas = shared_case();
  const ImageL mask = seg::mask_of_labels(cas.intraop_labels, {3, 4, 5, 6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(keep_largest_component(mask));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(mask.size()));
}
BENCHMARK(BM_ConnectedComponents)->Unit(benchmark::kMillisecond);

void BM_Ic0Apply(benchmark::State& state) {
  static SolveFixture fixture;
  static const solver::BlockJacobiIc0 ic(fixture.system.A);
  par::run_spmd(1, [&](par::Communicator& comm) {
    solver::DistVector r(fixture.system.b.global_size(), fixture.system.b.range(), 1.0);
    solver::DistVector z(fixture.system.b.global_size(), fixture.system.b.range());
    for (auto _ : state) {
      ic.apply(r, z, comm);
      benchmark::DoNotOptimize(z.local().data());
    }
  });
}
BENCHMARK(BM_Ic0Apply)->Unit(benchmark::kMillisecond);

void BM_ElementStrains(benchmark::State& state) {
  const auto& mesh = shared_mesh();
  std::vector<Vec3> u(static_cast<std::size_t>(mesh.num_nodes()));
  for (const mesh::NodeId n : mesh.node_ids()) {
    const Vec3& p = mesh.nodes[n];
    u[n.index()] = Vec3{0.01 * p.z, 0.0, -0.02 * p.z};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fem::element_strains(mesh, u));
  }
  state.SetItemsProcessed(state.iterations() * mesh.num_tets());
}
BENCHMARK(BM_ElementStrains)->Unit(benchmark::kMillisecond);

void BM_HistogramMatch(benchmark::State& state) {
  const auto& cas = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(match_histogram(cas.intraop, cas.preop));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(cas.intraop.size()));
}
BENCHMARK(BM_HistogramMatch)->Unit(benchmark::kMillisecond);

// Communicator micro-benchmarks: the cost of a collective round on the
// threads-as-ranks runtime, with and without collective-order verification
// (par/verify.h). The disabled-verifier numbers must stay within noise of the
// pre-verifier runtime — the only added work is one predictable branch.
par::SpmdOptions comm_opts(bool verified) {
  par::SpmdOptions o;
  o.verify = verified ? par::SpmdOptions::Verify::kOn : par::SpmdOptions::Verify::kOff;
  return o;
}

void BM_CommBarrier(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const bool verified = state.range(1) != 0;
  constexpr int kOpsPerBatch = 1000;
  for (auto _ : state) {
    par::run_spmd(
        P, [&](par::Communicator& comm) {
          for (int i = 0; i < kOpsPerBatch; ++i) comm.barrier();
        },
        comm_opts(verified));
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerBatch);
}
BENCHMARK(BM_CommBarrier)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->ArgNames({"ranks", "verify"})
    ->Unit(benchmark::kMillisecond);

void BM_CommAllreduce(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const bool verified = state.range(1) != 0;
  constexpr int kOpsPerBatch = 500;
  for (auto _ : state) {
    par::run_spmd(
        P, [&](par::Communicator& comm) {
          double v = comm.rank();
          for (int i = 0; i < kOpsPerBatch; ++i) {
            v = comm.allreduce_sum(v) / P;
          }
          benchmark::DoNotOptimize(v);
        },
        comm_opts(verified));
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerBatch);
}
BENCHMARK(BM_CommAllreduce)
    ->Args({4, 0})
    ->Args({4, 1})
    ->ArgNames({"ranks", "verify"})
    ->Unit(benchmark::kMillisecond);

void BM_CommSendRecvPingPong(benchmark::State& state) {
  const bool verified = state.range(0) != 0;
  constexpr int kOpsPerBatch = 500;
  const std::vector<double> payload(64, 1.0);
  for (auto _ : state) {
    par::run_spmd(
        2, [&](par::Communicator& comm) {
          for (int i = 0; i < kOpsPerBatch; ++i) {
            if (comm.rank() == 0) {
              comm.send(1, 0, std::span<const double>(payload.data(), payload.size()));
              benchmark::DoNotOptimize(comm.recv<double>(1, 1));
            } else {
              benchmark::DoNotOptimize(comm.recv<double>(0, 0));
              comm.send(0, 1, std::span<const double>(payload.data(), payload.size()));
            }
          }
        },
        comm_opts(verified));
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerBatch);
}
BENCHMARK(BM_CommSendRecvPingPong)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("verify")
    ->Unit(benchmark::kMillisecond);

void BM_SsdMetric(benchmark::State& state) {
  const auto& cas = shared_case();
  reg::MiConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg::mean_squared_difference(cas.intraop, cas.preop,
                                                          RigidTransform{}, cfg));
  }
}
BENCHMARK(BM_SsdMetric)->Unit(benchmark::kMillisecond);

// Span cost on the instrumented hot paths. enabled:0 is the clinical default
// — one relaxed atomic load and an inert Span, the price every Krylov
// iteration and comm op pays permanently; enabled:1 adds two steady_clock
// reads and a lock-free stream append. tools/perf/check_bench_solver.py gates
// the disabled path against the enabled one so instrumentation can never
// quietly grow a cost on runs that aren't being traced.
void BM_SpanOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::Tracer tracer(enabled);
  std::size_t count = 0;
  for (auto _ : state) {
    {
      obs::Span span = tracer.span("bench.span");
      benchmark::DoNotOptimize(span);
    }
    // Recorded events accumulate; drain periodically OUTSIDE the timed region
    // so long benchmark runs stay memory-bounded without polluting the
    // measurement (the per-stream cap would otherwise truncate silently).
    if (enabled && ++count % 65536 == 0) {
      state.PauseTiming();
      tracer.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1)->ArgName("enabled");

// The attribute-carrying variant the solver loops use: span + three attrs
// (ints and a double), matching the per-iteration telemetry payload.
void BM_SpanWithAttrsOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::Tracer tracer(enabled);
  std::size_t count = 0;
  for (auto _ : state) {
    {
      obs::Span span = tracer.span("bench.iteration");
      if (span.active()) {
        span.attr("iteration", static_cast<std::int64_t>(count));
        span.attr("residual", 1e-5);
        span.attr("allreduces", 3);
      }
      benchmark::DoNotOptimize(span);
    }
    if (enabled && ++count % 65536 == 0) {
      state.PauseTiming();
      tracer.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanWithAttrsOverhead)->Arg(0)->Arg(1)->ArgName("enabled");

// Flight-recorder ring mode (obs::FlightRecorder): same attr-carrying span
// as BM_SpanWithAttrsOverhead but recording into a bounded ring that wraps
// in place of the grow-then-truncate legacy path. No periodic drain is
// needed — wrapping IS the steady state, which is exactly the cost the gate
// in tools/perf/check_bench_solver.py bounds (enabled <= 2x the legacy
// attr-span bound; disabled unchanged at the inert-span bound).
void BM_RingRecordOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::Tracer::Options options;
  options.ring_capacity = 4096;
  obs::Tracer tracer(enabled, options);
  std::int64_t count = 0;
  for (auto _ : state) {
    {
      obs::Span span = tracer.span("bench.iteration");
      if (span.active()) {
        span.attr("iteration", count);
        span.attr("residual", 1e-5);
        span.attr("allreduces", 3);
      }
      benchmark::DoNotOptimize(span);
    }
    ++count;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingRecordOverhead)->Arg(0)->Arg(1)->ArgName("enabled");

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the stock `library_build_type`
// context key reports how the *benchmark library* was compiled (the system
// package ships a debug build), not how this binary — the code under test —
// was compiled. tools/perf/check_bench_solver.py gates on the key we emit
// here, which reflects the translation unit's own optimization state.
int main(int argc, char** argv) {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("neuro_build_type", "release");
#else
  benchmark::AddCustomContext("neuro_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
