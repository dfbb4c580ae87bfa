// Black-box flight recorder with triggered post-mortem bundles.
//
// The Tracer's per-thread rings default to a capacity that holds a whole
// batch run exported at exit; a long-running SessionServer never reaches
// exit, so the FlightRecorder shrinks the rings (each keeps the last N events
// indefinitely) and adds a triggered-dump path: when something goes
// wrong — a degradation rung above the full solve, a Krylov watchdog fire, a
// comm fault, a deadline miss, an admission rejection storm, a CheckError or
// a fatal signal — it writes a self-contained post-mortem bundle: the ring
// contents merged across ranks, a metrics snapshot, the triggering context,
// the solver residual history recovered from the ring, and build + seed
// provenance, as one JSON artifact (schema "neuro.postmortem.v1", validated
// by tools/obs/check_trace.py). docs/observability.md documents the bundle
// format and the ring quiescence contract.
//
// Arming:
//   * environment: NEURO_POSTMORTEM_DIR=<dir> arms the process-wide
//     recorder() at startup (the global tracer constructs directly with
//     Options::ring_capacity's default, so no quiescent reconfiguration is
//     needed).
//   * programmatic: FlightRecorder::arm() at a quiescent point (benches and
//     tests use this) — it resizes the tracer's ring and clears it.
//
// Dumping is cheap to request and rate-limited (Options::max_dumps); an
// unarmed recorder still counts triggers in the metrics registry so tests
// can observe trigger paths without touching the filesystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/trace.h"

namespace neuro::obs {

/// Why a post-mortem bundle was written.
enum class DumpTrigger : std::uint8_t {
  kManual,          ///< explicit request (CLI, tests)
  kDegradation,     ///< fem degradation ladder left the full solve
  kWatchdog,        ///< Krylov watchdog stop (divergence/stagnation/NaN)
  kCommFault,       ///< communicator fault surfaced to a request
  kDeadlineMiss,    ///< a request ran out of deadline budget
  kAdmissionStorm,  ///< consecutive admission rejections crossed threshold
  kCheckFailure,    ///< NEURO_CHECK fired (via base::set_check_failure_hook)
  kFatalSignal,     ///< best-effort dump from a fatal-signal handler
};

/// Stable lower_snake_case trigger name as written into bundles.
[[nodiscard]] std::string_view dump_trigger_name(DumpTrigger trigger);

/// Maps a failure Status to the trigger class it evidences: comm faults,
/// deadline misses and solver-stop codes get their own class; anything else
/// reports as `fallback`.
[[nodiscard]] DumpTrigger dump_trigger_from_status(base::StatusCode code,
                                                   DumpTrigger fallback);

/// Free-form context attached to a dump by the triggering site (session and
/// request ids, the degradation rung chosen, the fault seed, ...). Attrs
/// reuse the trace Attr type so values serialize identically to span args.
struct DumpContext {
  std::string detail;       ///< one-line human summary of what happened
  std::vector<Attr> attrs;  ///< structured trigger context

  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::int64_t value);
  void attr(std::string_view key, int value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  void attr(std::string_view key, std::string_view value);
};

class FlightRecorder {
 public:
  struct Options {
    /// Ring capacity handed to Tracer::set_ring_capacity on arm(); the
    /// NEURO_POSTMORTEM_DIR path builds the global tracer with the default.
    /// It comfortably exceeds the 1000-events-per-rank post-mortem retention
    /// contract.
    std::size_t ring_capacity = 4096;
    /// Directory for postmortem_NNNN.json artifacts; empty = record-only
    /// (rings run, triggers count, nothing is written).
    std::string dump_dir;
    /// Bundles written before further dumps are suppressed (counted in
    /// obs.recorder.dumps_suppressed). Keeps a flapping service from
    /// filling the disk with near-identical bundles.
    std::size_t max_dumps = 8;
    /// Omits timestamps/durations from bundle events so that two runs of a
    /// deterministic workload serialize byte-identically (timing is the one
    /// sanctioned nondeterminism; cf. the determinism CI job's
    /// `grep -v seconds`). Dump ordering is unaffected.
    bool redact_timing = false;
  };

  /// A recorder over `tracer` (tests use a local tracer; production code
  /// uses recorder(), which wraps the global tracer).
  explicit FlightRecorder(Tracer& tracer);

  /// Arms the recorder: resizes the tracer's ring (clearing it), enables
  /// recording, and remembers the dump sink. Quiescent only — no thread may
  /// be recording into `tracer` during the switch.
  void arm(Options options);
  /// Like arm() but assumes the tracer already has its ring and is enabled
  /// (the NEURO_POSTMORTEM_DIR path constructs the global tracer that way):
  /// only wires the dump sink, never touches the tracer, so it is safe even
  /// while other threads record.
  void adopt_sink(Options options);
  /// True once arm() ran (or the env path configured a sink).
  [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Records a "recorder.trigger" event into the ring (so the bundle that
  /// eventually gets written contains the trigger itself) and bumps the
  /// obs.recorder.triggers.<name> metrics counter. Safe from any thread,
  /// armed or not; never writes a file.
  void note(DumpTrigger trigger, const DumpContext& context);

  /// note() + write one post-mortem bundle to dump_dir (rate-limited; no-op
  /// file-wise when unarmed or dump_dir is empty). Safe while other threads
  /// record — ring dumping parks writers per the quiescence contract.
  /// Returns the artifact path, or empty when nothing was written.
  std::string dump(DumpTrigger trigger, const DumpContext& context)
      NEURO_EXCLUDES(dump_mutex_);

  /// Serializes one bundle for the current ring/metrics state without
  /// touching the filesystem (tests and the CLI use this directly).
  void write_bundle(std::ostream& os, DumpTrigger trigger,
                    const DumpContext& context) const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Tracer& tracer_;
  std::atomic<bool> armed_{false};
  Options options_;
  mutable base::Mutex dump_mutex_;
  std::size_t dumps_written_ NEURO_GUARDED_BY(dump_mutex_) = 0;
  std::uint64_t dump_sequence_ NEURO_GUARDED_BY(dump_mutex_) = 0;
};

/// The process-wide recorder over the global tracer. First use installs the
/// base::set_check_failure_hook bridge; when NEURO_POSTMORTEM_DIR is set the
/// recorder starts armed with that sink (and NEURO_POSTMORTEM_SIGNALS=1
/// additionally installs best-effort fatal-signal handlers).
FlightRecorder& recorder();

/// True when NEURO_POSTMORTEM_DIR names a dump directory.
[[nodiscard]] bool postmortem_enabled_by_env();

/// Installs std::signal handlers (SIGSEGV, SIGABRT, SIGFPE) that write a
/// best-effort kFatalSignal bundle through recorder() and re-raise. Not
/// async-signal-safe in the strict sense — a last-resort diagnostic, not a
/// recovery path; see docs/observability.md.
void install_fatal_signal_dump();

}  // namespace neuro::obs
