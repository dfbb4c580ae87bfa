// Robustness study (extension): the paper notes that clinical viability
// "relies upon [the methods] being sufficiently robust to provide accurate
// results for typical clinical cases" and defers validation to more cases.
// The phantom makes a systematic sweep possible: vary image noise and
// deformation magnitude, run the full pipeline, and report accuracy.
//
// Expected shape: accuracy degrades gracefully with noise; the simulation
// keeps beating rigid-only registration across the clinical range of brain
// shift (a few mm to ~1.5 cm peak).
//
// Second section (docs/robustness.md): seeded fault campaigns against the
// degradation ladder. For each fault class this reports the time to a
// *usable* (validated) field and the ladder rung that produced it — the
// operative robustness metric: not "did the solve succeed" but "how fast did
// the surgeon get a field they can trust, and at what fidelity".
//
// Usage:
//   bench_robustness                      # noise sweep + fault section
//   bench_robustness --faults drop,stall  # restrict the fault campaigns
//   bench_robustness --faults none --json out.json
//       # machine-readable fault section only (CI; an env campaign from
//       # NEURO_FAULT_INJECT may still inject into the "none" run)
//   bench_robustness --faults drop --json out.json --postmortem-dir DIR
//       # additionally arm the flight recorder: campaigns that climb the
//       # degradation ladder leave post-mortem bundles in DIR
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/stopwatch.h"
#include "core/evaluation.h"
#include "core/landmarks.h"
#include "core/pipeline.h"
#include "fem/degradation.h"
#include "mesh/mesher.h"
#include "mesh/tri_surface.h"
#include "obs/flight_recorder.h"
#include "phantom/brain_phantom.h"

namespace {

using namespace neuro;

void noise_sweep() {
  std::printf("== Robustness sweep: noise level x deformation magnitude ==\n");
  std::printf(
      " noise | sink(mm) | residual(mm) | recovered(mm) | TRE rigid/sim (mm) | "
      "Dice  | converged\n");

  for (const double noise : {1.5, 3.0, 6.0, 9.0}) {
    for (const double sink : {4.0, 8.0, 12.0}) {
      phantom::PhantomConfig pc;
      pc.dims = {64, 64, 64};
      pc.spacing = {2.5, 2.5, 2.5};
      pc.noise_sigma = noise;
      phantom::ShiftConfig shift;
      shift.max_sink_mm = sink;
      const auto cas = phantom::make_case(pc, shift);

      core::PipelineConfig config = core::default_pipeline_config();
      config.do_rigid_registration = false;
      config.mesher.stride = 3;
      const auto result = core::run_intraop_pipeline(cas.preop, cas.preop_labels,
                                                     cas.intraop, config);
      const auto report = core::evaluate_against_truth(result, cas);
      const auto tre =
          core::evaluate_landmarks(result, core::phantom_landmarks(cas));
      std::printf(
          " %5.1f | %8.1f | %12.2f | %13.2f | %8.2f / %-8.2f | %.3f | %s\n",
          noise, sink, report.residual_rigid_only.mean_mm,
          report.recovered_error.mean_mm, tre.mean_rigid_only_mm,
          tre.mean_simulated_mm, report.brain_dice,
          result.fem.stats.converged ? "yes" : "NO");
    }
  }

  std::printf("\nexpected shape: the recovered field error stays below the "
              "rigid-only residual\nacross the sweep and is nearly noise-"
              "insensitive (the DT priors and surface\nsmoothing absorb it). "
              "Landmark TRE improves strongly for clinically large\nshifts "
              "(8–12 mm) and breaks even at small ones, where there is little\n"
              "deformation left to recover.\n\n");
}

// --- fault campaigns vs the degradation ladder -------------------------------

struct FaultRow {
  std::string name;
  bool usable = false;           ///< a validated field was delivered
  double seconds = 0.0;          ///< time to that field (the clinical metric)
  std::string rung = "-";        ///< ladder rung that produced it
  bool degraded = false;
  std::string trigger;           ///< typed reason the ladder left rung 0
  int attempts = 0;
};

par::FaultConfig campaign(const std::string& name) {
  par::FaultConfig fault;
  fault.seed = 7;
  fault.recv_timeout_ms = 200.0;
  if (name == "drop") {
    fault.kind = par::FaultKind::kDrop;
  } else if (name == "delay") {
    fault.kind = par::FaultKind::kDelay;
    fault.probability = 0.2;
    fault.delay_ms = 5.0;
    fault.recv_timeout_ms = 1000.0;
  } else if (name == "bit_flip") {
    fault.kind = par::FaultKind::kBitFlip;
  } else if (name == "stall") {
    fault.kind = par::FaultKind::kStallRank;
    fault.rank = 1;
    fault.delay_ms = 500.0;
  } else {
    NEURO_REQUIRE(name == "none",
                  "bench_robustness: unknown fault campaign '" << name << "'");
  }
  return fault;
}

FaultRow run_campaign(const mesh::TetMesh& mesh,
                      const std::vector<std::pair<mesh::NodeId, Vec3>>& prescribed,
                      const std::string& name) {
  fem::DeformationSolveOptions options;
  options.nranks = 2;
  options.fault_injection = campaign(name);

  FaultRow row;
  row.name = name;
  Stopwatch sw;
  const auto outcome = fem::solve_deformation_with_fallback(
      mesh, fem::MaterialMap::homogeneous_brain(), prescribed, options, {},
      base::DeadlineBudget(10.0));
  row.seconds = sw.seconds();
  if (outcome.ok()) {
    const fem::DegradationReport& report = outcome.value().report;
    row.usable = true;
    row.rung = fem::degradation_rung_name(report.rung);
    row.degraded = report.degraded;
    row.trigger = report.degraded ? report.trigger.to_string() : "-";
    row.attempts = static_cast<int>(report.attempts.size());
  } else {
    row.trigger = outcome.status().to_string();
  }
  return row;
}

void write_json(const std::vector<FaultRow>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  NEURO_REQUIRE(f != nullptr, "bench_robustness: cannot open " << path);
  std::fprintf(f, "{\n  \"fault_campaigns\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FaultRow& r = rows[i];
    std::fprintf(f,
                 "    {\"fault\": \"%s\", \"usable_field\": %s, "
                 "\"time_to_usable_field_s\": %.6f, \"rung\": \"%s\", "
                 "\"degraded\": %s, \"trigger\": \"%s\", \"attempts\": %d}%s\n",
                 r.name.c_str(), r.usable ? "true" : "false", r.seconds,
                 r.rung.c_str(), r.degraded ? "true" : "false",
                 r.trigger.c_str(), r.attempts, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> faults{"none", "drop", "delay", "bit_flip", "stall"};
  std::string json_path;
  std::string postmortem_dir;
  bool sweep = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      faults = split_csv(argv[++i]);
      sweep = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      sweep = false;
    } else if (std::strcmp(argv[i], "--postmortem-dir") == 0 && i + 1 < argc) {
      postmortem_dir = argv[++i];
      sweep = false;
    } else {
      std::printf("usage: %s [--faults none|drop,delay,bit_flip,stall] "
                  "[--json out.json] [--postmortem-dir DIR]\n", argv[0]);
      return 2;
    }
  }

  if (!postmortem_dir.empty()) {
    // Arming here is safe: no rank thread exists yet, so the recorder may
    // resize the global tracer's ring. redact_timing keeps the
    // seeded campaigns' bundles byte-comparable across runs.
    obs::FlightRecorder::Options recorder_options;
    recorder_options.dump_dir = postmortem_dir;
    recorder_options.redact_timing = true;
    obs::recorder().arm(recorder_options);
  }

  if (sweep) noise_sweep();

  // A modest solid block: big enough for real 2-rank halo traffic, small
  // enough that the TSan CI job finishes each campaign in seconds.
  ImageL labels({13, 13, 13}, 1, {1.0, 1.0, 1.0});
  mesh::MesherConfig mc;
  mc.stride = 2;
  const mesh::TetMesh mesh = mesh::mesh_labeled_volume(labels, mc);
  const auto surface = mesh::extract_boundary_surface(mesh, {1});
  std::vector<std::pair<mesh::NodeId, Vec3>> prescribed;
  for (const auto n : surface.mesh_nodes) {
    prescribed.emplace_back(n, Vec3{0.1, -0.05, 0.08});
  }

  std::printf("== Fault campaigns vs the degradation ladder "
              "(%d nodes, 2 ranks) ==\n", mesh.num_nodes());
  std::printf(" fault     | usable | time-to-field(s) | rung                   "
              "| trigger\n");
  std::vector<FaultRow> rows;
  for (const std::string& name : faults) {
    rows.push_back(run_campaign(mesh, prescribed, name));
    const FaultRow& r = rows.back();
    std::printf(" %-9s | %-6s | %16.3f | %-22s | %s\n", r.name.c_str(),
                r.usable ? "yes" : "NO", r.seconds, r.rung.c_str(),
                r.trigger.c_str());
  }
  if (!json_path.empty()) write_json(rows, json_path);

  std::printf("\nexpected shape: the fault-free run stays on full_solve; a "
              "total drop or a\nstalled rank exhausts both solve rungs and "
              "lands on baseline_interpolation\nwithin ~2 recv timeouts; a "
              "mild delay is absorbed by rung 0. Every row\nreports a usable "
              "validated field — the ladder never aborts.\n");
  return 0;
}
