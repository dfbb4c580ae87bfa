// Per-rank tracing with Chrome trace-event export (docs/observability.md).
//
// A Tracer collects timestamped spans and counter samples into per-thread
// (per-rank: the SPMD runtime binds each rank thread via set_thread_rank)
// streams and merges them into one Chrome trace-event JSON file — one
// Perfetto "thread" per rank, spans as complete `X` events, counter samples
// as `C` events. Spans are RAII, nest by scope, and carry key/value
// attributes (the Krylov loops attach the residual and the allreduce count of
// every iteration; the communicator attaches src/tag/bytes to halo waits).
//
// Every stream is a bounded ring of Options::ring_capacity events: it grows
// until full, then overwrites its oldest event. The default (1 << 22) keeps a
// whole traced batch run; obs::FlightRecorder::arm shrinks it at a quiescent
// point so a long-running service keeps the last N events indefinitely. The
// export marks every rank that lost events — to ring wrap, or shed during a
// concurrent dump — with `trace_truncated`/`trace_dropped` events, and
// tools/obs/check_trace.py rejects such a trace.
//
// Cost model:
//   * tracer disabled (the clinical default): Tracer::span() is one relaxed
//     atomic load and returns an inert Span — no clock read, no allocation.
//     bench_micro's BM_SpanOverhead pins this down; CI gates it.
//   * tracer enabled: two steady_clock reads plus one write into the calling
//     thread's own ring (no lock on the hot path; a mutex is taken once per
//     thread per tracer to register the stream).
//   * NEURO_OBS_DISABLED compile definition: Tracer::enabled() is constant
//     false, so instrumentation behind it folds to nothing at compile time.
//
// dump_ring() may run *while other threads record*: writers stay lock-free
// and wait-free (they drop the one colliding event into the per-stream
// dropped counter instead of blocking), and the dumper waits for each
// in-flight write to retire before copying that stream. Every other reader
// (snapshot, write_chrome_trace, event_count, clear) must only run when no
// thread is recording — after run_spmd has joined its rank threads. The
// pipeline, CLI and benches all export at end of run, which satisfies this.
// See docs/observability.md for the full quiescence contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace neuro::obs {

class Tracer;

/// One key/value span attribute. Values are doubles, integers, or short
/// strings (e.g. a degradation rung name); exported into the event's "args".
struct Attr {
  enum class Kind : std::uint8_t { kDouble, kInt, kString };
  std::string key;
  Kind kind = Kind::kDouble;
  double d = 0.0;
  std::int64_t i = 0;
  std::string s;
};

/// A finished span or counter sample, as stored in a rank stream and
/// returned by Tracer::snapshot(). Timestamps are microseconds relative to
/// the tracer's epoch (steady clock, shared by all ranks of the process).
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kCounter };
  std::string name;
  Kind kind = Kind::kSpan;
  double ts_us = 0.0;
  double dur_us = 0.0;   ///< spans only
  double value = 0.0;    ///< counters only
  int rank = -1;         ///< -1 = the orchestrating main thread
  std::uint64_t seq = 0; ///< append order within the originating stream
  std::vector<Attr> attrs;
};

/// RAII span. Obtain from Tracer::span() (records only while the tracer is
/// enabled; otherwise fully inert) or Tracer::timed_span() (always measures
/// wall-clock so callers may use the span as their stopwatch, records only
/// while enabled). Movable, not copyable; closes on destruction.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { move_from(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      close();
      move_from(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  /// True when this span will be recorded into a trace on close. Callers use
  /// this to skip attribute computation on the disabled path.
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  /// Seconds elapsed since the span opened (or its final duration once
  /// closed). Zero for an inert, untimed span.
  [[nodiscard]] double seconds() const;

  /// Ends the span: records it (when active) and returns its duration in
  /// seconds. Idempotent; also run by the destructor.
  double close();

  /// Attaches a key/value attribute. No-op unless the span is active.
  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::int64_t value);
  void attr(std::string_view key, int value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  void attr(std::string_view key, std::string_view value);

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string_view name, bool timed);
  void move_from(Span& other) noexcept;

  Tracer* tracer_ = nullptr;  ///< null = not recording
  bool timed_ = false;
  bool closed_ = false;
  double seconds_ = 0.0;
  std::chrono::steady_clock::time_point start_{};
  std::string name_;
  std::vector<Attr> attrs_;
};

/// Collects spans and counters from any number of threads. See file header
/// for the cost model and the export contract.
class Tracer {
 public:
  struct Options {
    /// Events each per-thread stream retains (>= 1). Once full, a stream
    /// overwrites its oldest event; the export reports the loss. Bounds
    /// tracer memory on runaway loops.
    std::size_t ring_capacity = 1u << 22;
  };

  explicit Tracer(bool enabled = false);
  Tracer(bool enabled, Options options);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const {
#ifdef NEURO_OBS_DISABLED
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }
  /// Ignored (stays disabled) under the NEURO_OBS_DISABLED compile definition.
  void set_enabled(bool enabled);

  /// A recording span when enabled; an inert one (no clock read) otherwise.
  [[nodiscard]] Span span(std::string_view name) {
    return Span(enabled() ? this : nullptr, name, /*timed=*/enabled());
  }

  /// A span that always measures wall-clock — the caller's stopwatch — and
  /// additionally records into the trace when the tracer is enabled. The
  /// pipeline's Fig. 6 StageTiming rows are views over these spans.
  [[nodiscard]] Span timed_span(std::string_view name) {
    return Span(enabled() ? this : nullptr, name, /*timed=*/true);
  }

  /// Records one sample of a named counter (exported as a `C` event, one
  /// counter track per rank). No-op while disabled.
  void counter(std::string_view name, double value);

  /// Number of events retained across all streams (quiescent only).
  [[nodiscard]] std::size_t event_count() const NEURO_EXCLUDES(streams_mutex_);
  /// Events lost to ring wrap or shed during a dump (quiescent only).
  [[nodiscard]] std::size_t dropped_count() const
      NEURO_EXCLUDES(streams_mutex_);

  /// Deterministic merged copy of all streams: dump_ring().events, sorted by
  /// (rank, ts, -dur, seq). Call only while no thread is recording.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const
      NEURO_EXCLUDES(streams_mutex_);

  /// Writes the merged Chrome trace-event JSON ({"traceEvents": [...]}):
  /// thread-name metadata per rank, a `trace_truncated` instant and a
  /// `trace_dropped` counter on each rank that lost events, spans as `X`,
  /// counters as `C`. The output is a deterministic function of the
  /// collected events. Call only while no thread is recording.
  void write_chrome_trace(std::ostream& os) const;

  /// Discards all collected events (quiescent only). Streams registered by
  /// live threads stay registered.
  void clear() NEURO_EXCLUDES(streams_mutex_);

  /// Sets the per-stream capacity (>= 1) and discards all collected events.
  /// Quiescent only — call before spawning recording threads
  /// (obs::FlightRecorder::arm does this).
  void set_ring_capacity(std::size_t capacity) NEURO_EXCLUDES(streams_mutex_);
  /// Current per-stream capacity.
  [[nodiscard]] std::size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  /// Per-stream accounting attached to a ring dump. `rank` is the rank the
  /// stream last recorded for (-1 = orchestrating main thread).
  struct RingStreamStats {
    int rank = -1;
    std::uint64_t recorded = 0;  ///< events ever recorded into the stream
    std::uint64_t retained = 0;  ///< events present in the dump
    std::uint64_t wrapped = 0;   ///< events overwritten by ring wrap
    std::uint64_t dropped = 0;   ///< events shed during dumps
  };

  /// One triggered flight-recorder dump: ring contents of every non-empty
  /// stream merged in snapshot() order, plus per-stream accounting.
  struct RingDump {
    std::size_t ring_capacity = 0;
    std::vector<RingStreamStats> streams;
    std::vector<TraceEvent> events;
  };

  /// Copies the retained events of every stream. Safe while other threads
  /// record (see the quiescence contract in the file header). Streams that
  /// never recorded are omitted.
  [[nodiscard]] RingDump dump_ring() const NEURO_EXCLUDES(streams_mutex_);

  /// Opaque per-thread event buffer (defined in trace.cpp).
  struct Stream;

 private:
  friend class Span;

  /// The calling thread's stream, registering one on first use.
  Stream* stream_for_this_thread();
  void record(TraceEvent event);
  [[nodiscard]] double now_us() const;

  // enabled_ is the lock-free fast-path switch (annotation-exempt: a relaxed
  // atomic, see the cost model above). streams_mutex_ guards only the
  // registration list; the Stream buffers it points to are annotation-exempt
  // by design — each is written exclusively by its owning thread, and
  // cross-thread reads go through dump_ring's handshake or happen at
  // quiescent points (the contract above).
  std::atomic<bool> enabled_{false};
  // ring_capacity_ is read relaxed on the record path; dump_pending_ is the
  // seq_cst handshake with in-flight writes (each Stream carries an odd/even
  // generation counter; see record/dump_ring).
  std::atomic<std::size_t> ring_capacity_{0};
  mutable std::atomic<bool> dump_pending_{false};
  std::uint64_t id_ = 0;  ///< process-unique, keys the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  mutable base::Mutex streams_mutex_;
  std::vector<std::unique_ptr<Stream>> streams_ NEURO_GUARDED_BY(streams_mutex_);
};

/// The process-wide tracer used by the hot-path instrumentation (Krylov
/// loops, communicator, FEM phases). Disabled unless the NEURO_TRACE
/// environment variable is truthy or a tool enables it programmatically.
Tracer& global();

/// True when the NEURO_TRACE environment variable asks for tracing ("1",
/// "true", "on", ...; "0"/"" do not). Always false under NEURO_OBS_DISABLED.
[[nodiscard]] bool trace_enabled_by_env();

/// Sugar over global(): a recording-only span (inert when disabled).
[[nodiscard]] inline Span global_span(std::string_view name) {
  return global().span(name);
}
/// Sugar over global(): an always-timed span (stopwatch + trace when on).
[[nodiscard]] inline Span timed_span(std::string_view name) {
  return global().timed_span(name);
}
/// Sugar over global(): one counter sample (dropped when disabled).
inline void counter(std::string_view name, double value) {
  global().counter(name, value);
}

/// Binds the calling thread to a rank for trace attribution; rank -1 is the
/// orchestrating main thread. par::run_spmd installs one per rank thread.
class ScopedThreadRank {
 public:
  explicit ScopedThreadRank(int rank);
  ~ScopedThreadRank();
  ScopedThreadRank(const ScopedThreadRank&) = delete;
  ScopedThreadRank& operator=(const ScopedThreadRank&) = delete;

 private:
  int previous_;
};

/// The rank bound to the calling thread (-1 outside SPMD regions).
[[nodiscard]] int thread_rank();

}  // namespace neuro::obs
