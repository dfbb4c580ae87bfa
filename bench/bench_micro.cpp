// Component micro-benchmarks (google-benchmark): per-kernel costs of every
// stage the pipeline is built from. These are host-hardware numbers, useful
// for spotting regressions and for sanity-checking the work accounting that
// feeds the platform models.
#include <benchmark/benchmark.h>
#include <algorithm>
#include <span>

#include "base/rng.h"
#include "core/deformation_field.h"
#include "core/pipeline.h"
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

/// The Fig. 6 shape: a 96³ phantom at 2.5 mm, built once per process.
const phantom::PhantomCase& fig6_case() {
  static const phantom::PhantomCase cas = [] {
    phantom::PhantomConfig pc;
    pc.dims = {96, 96, 96};
    pc.spacing = {2.5, 2.5, 2.5};
    return phantom::make_case(pc, phantom::ShiftConfig{});
  }();
  return cas;
}

// One saturated localization channel at the Fig. 6 shape on state.range(0)
// ranks. The output and the working grid are allocated once, on this thread,
// as the pipeline allocates them before its rank region; each iteration is
// one rank region.
void BM_DistanceTransform(benchmark::State& state) {
  const auto& labels = fig6_case().preop_labels;
  const int nranks = static_cast<int>(state.range(0));
  ImageF out(labels.dims(), 0.0f, labels.spacing(), labels.origin());
  Image3D<double> squared(labels.dims(), 0.0, labels.spacing(), labels.origin());
  for (auto _ : state) {
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      distance_to_label(labels, 3, 10.0, out, squared, &comm);
    });
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(labels.size()));
}
BENCHMARK(BM_DistanceTransform)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("ranks")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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

// One MI evaluation at the Fig. 6 shape (96^3, 2.5 mm, default registration
// config) on pyramid level state.range(0) at state.range(1) ranks. The
// pyramid and its MI tables are built once, and each rank builds its sampler
// once per run, as register_rigid_mi does per level; the transform moves some
// samples out of the volume. Rank 0 drives the benchmark loop, which runs
// exactly max_iterations times, and the other ranks evaluate as often.
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
  const auto level = static_cast<std::size_t>(state.range(0));
  const int nranks = static_cast<int>(state.range(1));
  RigidTransform t;
  t.center = pyr.center;
  t.translation = {3.0, -2.0, 1.5};
  t.rotation = {0.02, -0.03, 0.01};
  par::run_spmd(nranks, [&](par::Communicator& comm) {
    const reg::MiSampler sampler(pyr.fixed[level], pyr.moving[level], pyr.mi[level], rcfg.mi,
                                 &comm);
    if (comm.rank() == 0) {
      for (auto _ : state) benchmark::DoNotOptimize(sampler.evaluate(t));
    } else {
      for (benchmark::IterationCount i = 0; i < state.max_iterations; ++i) {
        benchmark::DoNotOptimize(sampler.evaluate(t));
      }
    }
  });
  const int stride = rcfg.mi.sample_stride;
  const IVec3 d = pyr.fixed[level].dims();
  const double samples = static_cast<double>((d.x + stride - 1) / stride) *
                         ((d.y + stride - 1) / stride) * ((d.z + stride - 1) / stride);
  // Inverted iteration-invariant rate of samples / 1e9: wall nanoseconds per
  // sample of the whole level, over all ranks.
  state.counters["ns_per_sample"] = benchmark::Counter(
      samples / 1e9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MiSamplerEvaluate)
    ->ArgsProduct({{0, 1}, {1, 2}})
    ->ArgNames({"level", "ranks"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// k-NN classification of the Fig. 6 intraoperative scan in the pipeline's
// feature space (default seg config) on state.range(0) ranks; each iteration
// is one rank region.
void BM_KnnClassifyVolume(benchmark::State& state) {
  const auto& cas = fig6_case();
  const int nranks = static_cast<int>(state.range(0));
  const seg::IntraopSegmentationConfig cfg = core::default_pipeline_config().seg;
  const seg::FeatureStack stack =
      seg::build_feature_stack(cas.intraop, cas.preop_labels, cfg);
  const seg::KnnClassifier knn(seg::model_prototypes(stack, cas.preop_labels, cfg), cfg.k);
  for (auto _ : state) {
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      benchmark::DoNotOptimize(knn.classify_volume_parallel(stack, comm));
    });
  }
  // One traced pass outside the timed loop: its seg.knn spans carry the
  // prototype rows the block search measured.
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
BENCHMARK(BM_KnnClassifyVolume)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("ranks")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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
  solver::BlockJacobiIlu0 precond;

  SolveFixture()
      : mesh(shared_mesh()),
        topo(fem::MeshTopology::build(mesh)),
        system(make_system()),
        precond(system.A) {}

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

void BM_Ilu0Apply(benchmark::State& state) {
  static SolveFixture fixture;
  par::run_spmd(1, [&](par::Communicator& comm) {
    solver::DistVector r(fixture.system.b.global_size(), fixture.system.b.range(), 1.0);
    solver::DistVector z(fixture.system.b.global_size(), fixture.system.b.range());
    for (auto _ : state) {
      fixture.precond.apply(r, z, comm);
      benchmark::DoNotOptimize(z.local().data());
    }
  });
}
BENCHMARK(BM_Ilu0Apply)->Unit(benchmark::kMillisecond);

// Active-surface iterations on state.range(0) ranks: each benchmark
// iteration is one rank region running kIterations surface iterations (no
// convergence stop), so the region's start-up is spread over them; items
// are vertex updates.
void BM_ActiveSurfaceIteration(benchmark::State& state) {
  constexpr int kIterations = 20;
  const auto& cas = shared_case();
  const auto surface = mesh::extract_boundary_surface(shared_mesh(), {3, 4, 5, 6});
  const ImageL mask = seg::mask_of_labels(cas.intraop_labels, {3, 4, 5, 6});
  const ImageF sdf = signed_distance_to_label(mask, 1, 30.0);
  const int nranks = static_cast<int>(state.range(0));
  surface::ActiveSurfaceConfig cfg;
  cfg.max_iterations = kIterations;
  cfg.convergence_mm = 0.0;
  for (auto _ : state) {
    par::run_spmd(nranks, [&](par::Communicator& comm) {
      benchmark::DoNotOptimize(surface::deform_to_distance_field(surface, sdf, cfg, &comm));
    });
  }
  state.SetItemsProcessed(state.iterations() * kIterations * surface.num_vertices());
}
BENCHMARK(BM_ActiveSurfaceIteration)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("ranks")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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
// reads and a lock-free ring write. tools/perf/check_bench_solver.py gates
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
    // measurement (the ring would otherwise start to wrap).
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

// Flight-recorder ring (obs::FlightRecorder): same attr-carrying span as
// BM_SpanWithAttrsOverhead but recording into the recorder's 4096-event ring,
// which wraps. No periodic drain is needed — wrapping IS the steady state,
// which is exactly the cost the gate in tools/perf/check_bench_solver.py
// bounds (enabled <= 2x the attr-span bound; disabled unchanged at the
// inert-span bound).
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
