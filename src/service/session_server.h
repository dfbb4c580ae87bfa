// Multi-tenant surgical-session service (docs/service.md).
//
// SessionServer promotes core::SurgerySession from a per-case object into a
// long-running service: a registry of sessions (one per operating room), a
// bounded request queue, and a worker pool dispatching pipeline solves over a
// shared rank pool. Chrisochoides et al. (PAPERS.md, arXiv 2309.03336) frame
// intraoperative registration as exactly this service problem — under load it
// is the service, not the solver, that fails first.
//
// The robustness contract, verified by tests/service_test.cpp and
// bench/bench_service.cpp:
//
//   * Admission control: requests whose deadline the measured cost model says
//     cannot be met are rejected kDeadlineExceeded at submit; a full queue
//     rejects kResourceExhausted; a draining server rejects kUnavailable.
//     Doomed work is never queued.
//   * Backpressure: the queue is a BoundedQueue — overload manifests as typed
//     rejections and a queue-depth gauge, never as unbounded memory.
//   * Degrade, don't cancel: an admitted request that slips its budget
//     mid-flight hands its *remaining* seconds to the pipeline, whose
//     degradation ladder (docs/robustness.md) trades fidelity for time; even
//     an already-expired budget yields the cheap rungs, not a cancellation.
//   * Bounded retry: transient kCommFault / kUnavailable failures retry with
//     exponential backoff at most RetryPolicy::max_retries times, each
//     attempt drawing a seed-shifted (still deterministic) fault stream.
//   * Checkpointed recovery: every completed scan refreshes the session's
//     SessionCheckpoint in the server; a crashed (CheckError) or evicted
//     session is rebuilt from it on the next request, numbering scans
//     continuously.
//   * Graceful drain/shutdown: drain() completes queued and in-flight work
//     while rejecting new admissions; shutdown() completes in-flight solves
//     and fails still-queued requests with a typed kUnavailable. Every
//     admitted request terminates in exactly one RequestReport — none are
//     lost, none deadlock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/deadline.h"
#include "base/mutex.h"
#include "base/status.h"
#include "base/strong_id.h"
#include "base/thread_annotations.h"
#include "core/surgery_session.h"
#include "service/bounded_queue.h"
#include "service/cost_model.h"

namespace neuro::service {

using SessionId = base::StrongId<struct ServiceSessionTag>;
using RequestId = base::StrongId<struct ServiceRequestTag>;

/// Bounded retry of transient failures. Backoff sleeps are clamped to the
/// request's remaining budget, so retrying never pushes a request past the
/// point where even the cheap ladder rungs could not be attempted.
struct RetryPolicy {
  int max_retries = 2;
  double backoff_seconds = 0.02;
  double backoff_multiplier = 2.0;
};

/// Live service telemetry: rolling SLO quantiles over recent requests,
/// queue-depth history, and an optional periodic snapshot publisher. The
/// snapshot format ("neuro.snapshot.v1") is documented in
/// docs/observability.md; `neurofem obs --snapshot FILE` pretty-prints one.
struct TelemetryOptions {
  /// > 0 starts a publisher thread that writes snapshot_path every
  /// interval (and once more at shutdown). 0 = synchronous-only (tests call
  /// publish_snapshot directly).
  double publish_interval_seconds = 0.0;
  /// Snapshot file the publisher (re)writes; written via a .tmp sibling +
  /// rename so readers never observe a torn file.
  std::string snapshot_path;
  /// Rolling sample window (per session and server-wide) behind the
  /// p50/p99 time-to-field quantiles.
  std::size_t window = 64;
  /// SLO threshold for the attainment gauge; 0 falls back to
  /// default_deadline_seconds (if that is 0 too, attainment reads 1).
  double slo_target_seconds = 0.0;
  /// Consecutive admission rejections (with no admit in between) that
  /// trigger one kAdmissionStorm post-mortem dump; 0 disables the trigger.
  int admission_storm_threshold = 16;
};

struct ServerOptions {
  int workers = 2;          ///< dispatcher threads; 0 = submit-only (tests)
  int rank_pool = 4;        ///< SPMD ranks shared by concurrent solves
  int ranks_per_solve = 2;  ///< preferred grant per request (may get fewer)
  std::size_t queue_capacity = 16;
  /// Default per-request deadline when RequestOptions does not set one;
  /// 0 = unlimited (the DeadlineBudget convention).
  double default_deadline_seconds = 0.0;
  /// Admission rejects when predicted seconds exceed margin * remaining
  /// budget; < 1 admits optimistically, > 1 rejects conservatively.
  double admission_margin = 1.0;
  RetryPolicy retry;
  CostModelOptions cost;
  core::SessionRetention retention{.keep_full_results = 2};
  TelemetryOptions telemetry;
};

struct RequestOptions {
  double deadline_seconds = -1.0;  ///< < 0: server default; 0: unlimited
};

struct RequestTicket {
  RequestId id{};
};

/// The terminal record of one admitted request. status.ok() means a usable,
/// validation-gated field was delivered (possibly from a degraded rung);
/// anything else is a typed failure after the retry budget was spent.
struct RequestReport {
  RequestId id{};
  SessionId session{};
  base::Status status;
  bool degraded = false;
  bool crashed = false;  ///< this request's solve corrupted the live session
  bool resumed = false;  ///< the session was rebuilt from its checkpoint
  std::string rung = "-";  ///< accepted ladder rung name; "-" when no field
  int scan_index = -1;   ///< session scan number this request became
  int retries = 0;
  int ranks = 0;         ///< ranks granted by the shared pool
  double queue_seconds = 0.0;
  double service_seconds = 0.0;
  double time_to_field_seconds = 0.0;  ///< admission to terminal state
};

/// Aggregate lifetime counters (ServerStats::submitted ==
/// admitted + the five rejection counters; admitted == usable + failed).
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_deadline = 0;
  std::int64_t rejected_unknown_session = 0;
  std::int64_t rejected_draining = 0;
  /// an empty scan, a NaN or infinite voxel, or dims that differ from the
  /// session's first well-formed scan
  std::int64_t rejected_invalid_scan = 0;
  std::int64_t completed = 0;  ///< admitted requests that reached a report
  std::int64_t usable = 0;     ///< completed with a usable field
  std::int64_t degraded = 0;   ///< usable but from a fallback rung
  std::int64_t failed = 0;     ///< completed with a typed failure
  std::int64_t retries = 0;
  std::int64_t crashes = 0;
  std::int64_t resumes = 0;
  std::int64_t max_queue_depth = 0;
};

/// Fixed-capacity ring of recent samples backing the rolling SLO quantiles
/// and the queue-depth history (plain vector storage — src/service bans
/// unbounded containers). Not thread-safe; the server keeps instances under
/// state_mutex_.
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity = 64)
      : samples_(capacity > 0 ? capacity : 1, 0.0) {}

  void add(double sample) {
    samples_[static_cast<std::size_t>(next_ % samples_.size())] = sample;
    ++next_;
  }

  /// Samples currently retained (<= capacity).
  [[nodiscard]] std::size_t count() const {
    return next_ < samples_.size() ? static_cast<std::size_t>(next_)
                                   : samples_.size();
  }
  /// Samples ever added.
  [[nodiscard]] std::uint64_t total() const { return next_; }

  /// Nearest-rank quantile (q in [0,1]) over the retained window; 0 when
  /// empty.
  [[nodiscard]] double quantile(double q) const;
  /// Fraction of retained samples <= threshold; 1 when empty.
  [[nodiscard]] double fraction_within(double threshold) const;
  /// Retained samples, oldest first.
  [[nodiscard]] std::vector<double> history() const;

 private:
  std::vector<double> samples_;
  std::uint64_t next_ = 0;
};

/// A counting pool of SPMD ranks shared by concurrent solves. acquire()
/// blocks until at least one rank is free and grants min(want, free): a
/// waiter never holds a partial grant, so the pool cannot deadlock — under
/// contention solves simply run narrower.
class RankPool {
 public:
  explicit RankPool(int capacity);

  [[nodiscard]] int acquire(int want) NEURO_EXCLUDES(mutex_);
  void release(int granted) NEURO_EXCLUDES(mutex_);

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int free_ranks() const NEURO_EXCLUDES(mutex_);

 private:
  const int capacity_;
  mutable base::Mutex mutex_;
  base::CondVar freed_;
  int free_ NEURO_GUARDED_BY(mutex_);
};

class SessionServer {
 public:
  explicit SessionServer(ServerOptions options = {});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Registers a case: the preoperative data and the pipeline config every
  /// scan of this session will run with. Throws base::StatusError
  /// (kFailedPrecondition) when `preop` is empty or holds a NaN or infinite
  /// voxel.
  [[nodiscard]] SessionId open_session(ImageF preop, ImageL preop_labels,
                                       core::PipelineConfig config)
      NEURO_EXCLUDES(state_mutex_);

  /// Drops the session's live state, keeping its checkpoint: the next
  /// admitted request rebuilds the session from the checkpoint (the
  /// explicit-eviction twin of crash recovery).
  void evict_session(SessionId session) NEURO_EXCLUDES(state_mutex_);

  /// The session's current checkpoint (live state when present, else the
  /// last one recorded by a completed scan).
  [[nodiscard]] core::SessionCheckpoint session_checkpoint(
      SessionId session) const NEURO_EXCLUDES(state_mutex_);

  /// Admission control + enqueue. Returns a ticket to wait() on, or a typed
  /// rejection: kUnavailable (draining/shut down), kFailedPrecondition
  /// (unknown session; or an invalid scan: `intraop` is empty, holds a NaN
  /// or infinite voxel, or its dims differ from the session's first
  /// well-formed scan),
  /// kDeadlineExceeded (predicted cost exceeds the budget),
  /// kResourceExhausted (queue full).
  [[nodiscard]] base::Outcome<RequestTicket> submit(SessionId session,
                                                    ImageF intraop,
                                                    RequestOptions options = {})
      NEURO_EXCLUDES(state_mutex_);

  /// Blocks until the request reaches its terminal state and consumes the
  /// ticket (each ticket may be waited exactly once).
  [[nodiscard]] RequestReport wait(const RequestTicket& ticket)
      NEURO_EXCLUDES(state_mutex_);

  /// Rejects new admissions and blocks until queued + in-flight work has
  /// completed. Requires workers > 0 (nothing could drain otherwise).
  void drain() NEURO_EXCLUDES(state_mutex_);

  /// Stops the server: rejects new admissions, lets in-flight solves finish,
  /// fails still-queued requests with kUnavailable, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown() NEURO_EXCLUDES(state_mutex_);

  [[nodiscard]] ServerStats stats() const NEURO_EXCLUDES(state_mutex_);

  /// Writes one live telemetry snapshot ("neuro.snapshot.v1"): queue depth +
  /// history, server-wide and per-session rolling p50/p99 time-to-field and
  /// SLO attainment, lifetime stats, and the metrics registry. Also
  /// refreshes the service.slo.* gauges. The publisher thread calls this
  /// every publish_interval_seconds; tests and tools may call it directly at
  /// any time.
  void publish_snapshot(std::ostream& os) NEURO_EXCLUDES(state_mutex_);

  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] CostModel& cost_model() { return cost_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t max_queue_depth() const {
    return queue_.max_depth();
  }

 private:
  /// Registry entry for one case. `preop`/`labels`/`config` are immutable
  /// after open_session; `mutex` serializes scans of this session and guards
  /// the live object and its checkpoint.
  struct SessionState {
    ImageF preop;
    ImageL labels;
    core::PipelineConfig config;
    base::Mutex mutex;
    std::unique_ptr<core::SurgerySession> live NEURO_GUARDED_BY(mutex);
    core::SessionCheckpoint checkpoint NEURO_GUARDED_BY(mutex);
  };

  struct PendingRequest {
    RequestId id{};
    SessionId session{};
    SessionState* state = nullptr;
    ImageF intraop;
    base::DeadlineBudget budget;  ///< started at admission
  };

  struct CompletionSlot {
    bool done = false;
    RequestReport report;
  };

  void worker_loop();
  void telemetry_loop();
  /// Writes the snapshot to telemetry.snapshot_path via .tmp + rename.
  void publish_snapshot_to_path();
  [[nodiscard]] RequestReport process(PendingRequest request);
  /// Terminal report for a request the server will not dispatch (shutdown
  /// popped it from the queue): typed kUnavailable, never silently dropped.
  [[nodiscard]] RequestReport abandon(PendingRequest request) const;
  void finish(RequestReport report) NEURO_EXCLUDES(state_mutex_);
  /// Counts a rejected submission under `counter`, or by status code when
  /// null, and returns `status`.
  [[nodiscard]] base::Status reject(base::Status status,
                                    std::int64_t ServerStats::*counter = nullptr)
      NEURO_EXCLUDES(state_mutex_);
  [[nodiscard]] SessionState* find_session(SessionId session) const
      NEURO_EXCLUDES(state_mutex_);
  [[nodiscard]] bool aborting() const NEURO_EXCLUDES(state_mutex_);

  const ServerOptions options_;
  CostModel cost_;
  BoundedQueue<PendingRequest> queue_;
  RankPool pool_;

  mutable base::Mutex state_mutex_;
  base::CondVar completion_cv_;  ///< signals slot completion and drain
  std::map<SessionId, std::unique_ptr<SessionState>> sessions_
      NEURO_GUARDED_BY(state_mutex_);
  std::map<RequestId, CompletionSlot> slots_ NEURO_GUARDED_BY(state_mutex_);
  /// Dims of each session's first well-formed scan. The session records its
  /// prototype locations and its last good field on that grid, so every
  /// later scan must share it.
  std::map<SessionId, IVec3> scan_dims_ NEURO_GUARDED_BY(state_mutex_);
  ServerStats stats_ NEURO_GUARDED_BY(state_mutex_);
  // Telemetry state: rolling time-to-field windows (server-wide and per
  // session), admission-time queue-depth history, and the consecutive
  // rejection counter behind the admission-storm trigger.
  RollingWindow ttf_window_ NEURO_GUARDED_BY(state_mutex_);
  std::map<SessionId, RollingWindow> session_ttf_ NEURO_GUARDED_BY(state_mutex_);
  RollingWindow queue_depth_history_ NEURO_GUARDED_BY(state_mutex_);
  int consecutive_rejections_ NEURO_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t snapshot_sequence_ NEURO_GUARDED_BY(state_mutex_) = 0;
  base::CondVar telemetry_cv_;  ///< wakes the publisher for shutdown
  std::int64_t next_session_id_ NEURO_GUARDED_BY(state_mutex_) = 0;
  std::int64_t next_request_id_ NEURO_GUARDED_BY(state_mutex_) = 0;
  int outstanding_ NEURO_GUARDED_BY(state_mutex_) = 0;
  bool draining_ NEURO_GUARDED_BY(state_mutex_) = false;
  bool aborting_ NEURO_GUARDED_BY(state_mutex_) = false;
  bool shut_down_ NEURO_GUARDED_BY(state_mutex_) = false;

  std::vector<std::thread> workers_;
  std::thread publisher_;  ///< telemetry publisher; joined by shutdown()
};

}  // namespace neuro::service
