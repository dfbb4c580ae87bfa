#include "service/session_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "base/check.h"
#include "fem/degradation.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neuro::service {
namespace {

/// Request size in the unit the cost model is keyed on.
double megavoxels(const ImageF& image) {
  const IVec3 d = image.dims();
  return static_cast<double>(d.x) * d.y * d.z / 1e6;
}

/// The deadline handed to an already-expired request: small enough that the
/// ladder goes straight to its cheap rungs, nonzero so the pipeline does not
/// read it as "unlimited" (degrade, don't cancel).
constexpr double kMinSteeringSeconds = 1e-3;

/// Worker poll interval: bounds how long shutdown waits for an idle worker.
constexpr double kPopTimeoutSeconds = 0.2;

/// RAII over a RankPool grant: released on every exit path of process(),
/// including exceptions escaping the pipeline.
class RankGrant {
 public:
  RankGrant(RankPool& pool, int want)
      : pool_(pool), granted_(pool.acquire(want)) {}
  ~RankGrant() { pool_.release(granted_); }

  RankGrant(const RankGrant&) = delete;
  RankGrant& operator=(const RankGrant&) = delete;

  [[nodiscard]] int granted() const { return granted_; }

 private:
  RankPool& pool_;
  int granted_;
};

void observe_time_to_field(double seconds) {
  obs::metrics()
      .histogram("service.time_to_field_seconds",
                 {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0})
      .observe(seconds);
}

}  // namespace

double RollingWindow::quantile(double q) const {
  const std::size_t n = count();
  if (n == 0) return 0.0;
  std::vector<double> sorted = history();
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with at least ceil(q*n) samples <= it.
  const double rank = std::ceil(q * static_cast<double>(n));
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= n) index = n - 1;
  return sorted[index];
}

double RollingWindow::fraction_within(double threshold) const {
  const std::size_t n = count();
  if (n == 0) return 1.0;
  const std::vector<double> samples = history();
  std::size_t within = 0;
  for (const double sample : samples) {
    if (sample <= threshold) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(n);
}

std::vector<double> RollingWindow::history() const {
  const std::size_t n = count();
  std::vector<double> out;
  out.reserve(n);
  const std::uint64_t start = next_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(samples_[static_cast<std::size_t>((start + i) %
                                                    samples_.size())]);
  }
  return out;
}

RankPool::RankPool(int capacity) : capacity_(capacity), free_(capacity) {
  NEURO_REQUIRE(capacity >= 1, "RankPool: capacity must be >= 1");
}

int RankPool::acquire(int want) {
  NEURO_REQUIRE(want >= 1, "RankPool::acquire: want must be >= 1");
  base::MutexLock lock(mutex_);
  while (free_ == 0) {
    freed_.wait(mutex_);
  }
  const int granted = std::min(want, free_);
  free_ -= granted;
  return granted;
}

void RankPool::release(int granted) {
  base::MutexLock lock(mutex_);
  free_ += granted;
  NEURO_REQUIRE(free_ <= capacity_, "RankPool::release: over-release");
  freed_.notify_all();
}

int RankPool::free_ranks() const {
  base::MutexLock lock(mutex_);
  return free_;
}

SessionServer::SessionServer(ServerOptions options)
    : options_(options),
      cost_(options.cost),
      queue_(options.queue_capacity),
      pool_(options.rank_pool),
      ttf_window_(options.telemetry.window),
      queue_depth_history_(options.telemetry.window) {
  NEURO_REQUIRE(options_.workers >= 0, "SessionServer: negative worker count");
  NEURO_REQUIRE(options_.ranks_per_solve >= 1,
                "SessionServer: ranks_per_solve must be >= 1");
  NEURO_REQUIRE(options_.retry.max_retries >= 0,
                "SessionServer: negative max_retries");
  NEURO_REQUIRE(options_.admission_margin > 0.0,
                "SessionServer: admission_margin must be positive");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.telemetry.publish_interval_seconds > 0.0 &&
      !options_.telemetry.snapshot_path.empty()) {
    publisher_ = std::thread([this] { telemetry_loop(); });
  }
}

SessionServer::~SessionServer() { shutdown(); }

SessionId SessionServer::open_session(ImageF preop, ImageL preop_labels,
                                      core::PipelineConfig config) {
  base::Status valid = core::check_scan(preop, "preop");
  if (!valid.ok()) throw base::StatusError(std::move(valid));
  auto state = std::make_unique<SessionState>();
  state->preop = std::move(preop);
  state->labels = std::move(preop_labels);
  state->config = std::move(config);
  base::MutexLock lock(state_mutex_);
  NEURO_REQUIRE(!draining_, "SessionServer::open_session: server is draining");
  const SessionId id(next_session_id_++);
  sessions_.emplace(id, std::move(state));
  return id;
}

void SessionServer::evict_session(SessionId session) {
  SessionState* state = find_session(session);
  NEURO_REQUIRE(state != nullptr,
                "SessionServer::evict_session: unknown session "
                    << session.value());
  base::MutexLock lock(state->mutex);
  state->live.reset();
}

core::SessionCheckpoint SessionServer::session_checkpoint(
    SessionId session) const {
  SessionState* state = find_session(session);
  NEURO_REQUIRE(state != nullptr,
                "SessionServer::session_checkpoint: unknown session "
                    << session.value());
  base::MutexLock lock(state->mutex);
  if (state->live != nullptr) return state->live->checkpoint();
  return state->checkpoint;
}

base::Outcome<RequestTicket> SessionServer::submit(
    SessionId session, ImageF intraop, RequestOptions request_options) {
  SessionState* state = nullptr;
  bool draining = false;
  {
    base::MutexLock lock(state_mutex_);
    ++stats_.submitted;
    draining = draining_;
    const auto it = sessions_.find(session);
    if (it != sessions_.end()) state = it->second.get();
  }
  obs::metrics().counter("service.submitted").add();
  if (draining) {
    return reject({base::StatusCode::kUnavailable,
                   "SessionServer: draining, not admitting new requests"});
  }
  if (state == nullptr) {
    std::ostringstream oss;
    oss << "SessionServer: unknown session " << session.value();
    return reject({base::StatusCode::kFailedPrecondition, oss.str()});
  }
  base::Status valid = core::check_scan(intraop, "intraop");
  if (valid.ok()) {
    base::MutexLock lock(state_mutex_);
    const auto [dims, first] = scan_dims_.try_emplace(session, intraop.dims());
    if (!first && dims->second != intraop.dims()) {
      std::ostringstream oss;
      oss << "intraop scan dims " << intraop.dims()
          << " differ from the session's scan dims " << dims->second;
      valid = {base::StatusCode::kFailedPrecondition, oss.str()};
    }
  }
  if (!valid.ok()) return reject(std::move(valid), &ServerStats::rejected_invalid_scan);

  const double deadline_seconds = request_options.deadline_seconds < 0.0
                                      ? options_.default_deadline_seconds
                                      : request_options.deadline_seconds;
  base::DeadlineBudget budget(deadline_seconds);
  if (budget.limited()) {
    // Admission control: reject work the measured cost model says cannot
    // finish inside its budget, instead of queueing it to fail later.
    const double size = megavoxels(intraop);
    const double predicted_service = cost_.predict_service_seconds(size);
    const double predicted_wait = static_cast<double>(queue_.size()) *
                                  cost_.mean_service_seconds() /
                                  std::max(1, options_.workers);
    const double predicted = predicted_service + predicted_wait;
    if (predicted > options_.admission_margin * budget.remaining_seconds()) {
      std::ostringstream oss;
      oss << "SessionServer: predicted " << predicted << " s (service "
          << predicted_service << " s + queue wait " << predicted_wait
          << " s) cannot meet a " << deadline_seconds << " s deadline";
      return reject({base::StatusCode::kDeadlineExceeded, oss.str()});
    }
  }

  PendingRequest request;
  request.session = session;
  request.state = state;
  request.intraop = std::move(intraop);
  request.budget = budget;
  {
    base::MutexLock lock(state_mutex_);
    request.id = RequestId(next_request_id_++);
    // The slot exists before the push so a worker can never complete a
    // request whose slot is still missing.
    slots_.emplace(request.id, CompletionSlot{});
    ++outstanding_;
  }
  const RequestId id = request.id;
  base::Status pushed = queue_.try_push(std::move(request));
  if (!pushed.ok()) {
    {
      base::MutexLock lock(state_mutex_);
      slots_.erase(id);
      --outstanding_;
    }
    return reject(std::move(pushed));
  }
  {
    base::MutexLock lock(state_mutex_);
    ++stats_.admitted;
    const auto depth = static_cast<std::int64_t>(queue_.size());
    if (depth > stats_.max_queue_depth) stats_.max_queue_depth = depth;
    queue_depth_history_.add(static_cast<double>(depth));
    consecutive_rejections_ = 0;  // an admit ends any rejection storm
  }
  obs::metrics().counter("service.admitted").add();
  obs::metrics().gauge("service.queue_depth").set(
      static_cast<double>(queue_.size()));
  return RequestTicket{id};
}

RequestReport SessionServer::wait(const RequestTicket& ticket) {
  base::MutexLock lock(state_mutex_);
  const auto it = slots_.find(ticket.id);
  NEURO_REQUIRE(it != slots_.end(),
                "SessionServer::wait: unknown or already-waited ticket "
                    << ticket.id.value());
  while (!it->second.done) {
    completion_cv_.wait(state_mutex_);
  }
  RequestReport report = std::move(it->second.report);
  slots_.erase(it);
  return report;
}

void SessionServer::drain() {
  NEURO_REQUIRE(options_.workers > 0,
                "SessionServer::drain: no workers to drain the queue; "
                "use shutdown()");
  base::MutexLock lock(state_mutex_);
  draining_ = true;
  while (outstanding_ > 0) {
    completion_cv_.wait(state_mutex_);
  }
}

void SessionServer::shutdown() {
  {
    base::MutexLock lock(state_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    draining_ = true;
    aborting_ = true;
  }
  telemetry_cv_.notify_all();
  queue_.close();
  for (auto& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  // Anything the workers did not pop (always everything when workers == 0)
  // terminates typed rather than lost.
  for (;;) {
    base::Outcome<PendingRequest> popped = queue_.pop(0.0);
    if (!popped.ok()) break;
    finish(abandon(std::move(popped.value())));
  }
  if (publisher_.joinable()) {
    publisher_.join();
    // One terminal snapshot so the file reflects the drained end state.
    publish_snapshot_to_path();
  }
}

ServerStats SessionServer::stats() const {
  base::MutexLock lock(state_mutex_);
  return stats_;
}

void SessionServer::telemetry_loop() {
  const std::chrono::duration<double> interval(
      options_.telemetry.publish_interval_seconds);
  for (;;) {
    {
      base::MutexLock lock(state_mutex_);
      if (shut_down_) return;
      (void)telemetry_cv_.wait_for(state_mutex_, interval);
      if (shut_down_) return;
    }
    publish_snapshot_to_path();
  }
}

void SessionServer::publish_snapshot_to_path() {
  const std::string& path = options_.telemetry.snapshot_path;
  if (path.empty()) return;
  // Write-then-rename so readers never observe a half-written snapshot.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) {
      obs::metrics().counter("service.snapshot_errors").add();
      return;
    }
    publish_snapshot(os);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    obs::metrics().counter("service.snapshot_errors").add();
    return;
  }
  obs::metrics().counter("service.snapshots_written").add();
}

void SessionServer::publish_snapshot(std::ostream& os) {
  struct SessionRow {
    std::uint64_t id = 0;
    std::int64_t requests = 0;
    std::size_t samples = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double attainment = 1.0;
  };
  std::uint64_t sequence = 0;
  ServerStats stats;
  std::vector<double> depth_history;
  double target = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double attainment = 1.0;
  std::size_t window_samples = 0;
  std::int64_t window_requests = 0;
  std::vector<SessionRow> sessions;
  {
    base::MutexLock lock(state_mutex_);
    sequence = ++snapshot_sequence_;
    stats = stats_;
    depth_history = queue_depth_history_.history();
    target = options_.telemetry.slo_target_seconds > 0.0
                 ? options_.telemetry.slo_target_seconds
                 : options_.default_deadline_seconds;
    p50 = ttf_window_.quantile(0.50);
    p99 = ttf_window_.quantile(0.99);
    attainment = target > 0.0 ? ttf_window_.fraction_within(target) : 1.0;
    window_samples = ttf_window_.count();
    window_requests = static_cast<std::int64_t>(ttf_window_.total());
    sessions.reserve(session_ttf_.size());
    for (const auto& [id, window] : session_ttf_) {
      SessionRow row;
      row.id = id.value();
      row.requests = static_cast<std::int64_t>(window.total());
      row.samples = window.count();
      row.p50 = window.quantile(0.50);
      row.p99 = window.quantile(0.99);
      row.attainment = target > 0.0 ? window.fraction_within(target) : 1.0;
      sessions.push_back(row);
    }
  }
  // Gauge names carry the "seconds" suffix on purpose: the determinism CI
  // job strips timing lines by that token, and wall-clock quantiles are
  // sanctioned nondeterminism. attainment_ratio is a pure count ratio.
  obs::metrics().gauge("service.slo.p50_time_to_field_seconds").set(p50);
  obs::metrics().gauge("service.slo.p99_time_to_field_seconds").set(p99);
  obs::metrics().gauge("service.slo.attainment_ratio").set(attainment);
  obs::metrics().gauge("service.slo.target_seconds").set(target);
  obs::metrics()
      .gauge("service.queue_depth")
      .set(static_cast<double>(queue_.size()));

  os << R"({"schema":"neuro.snapshot.v1","sequence":)" << sequence;
  os << R"(,"queue":{"depth":)" << queue_.size() << R"(,"capacity":)"
     << options_.queue_capacity << R"(,"max_depth":)" << queue_.max_depth()
     << R"(,"history":[)";
  for (std::size_t i = 0; i < depth_history.size(); ++i) {
    if (i > 0) os << ',';
    obs::detail::write_json_double(os, depth_history[i]);
  }
  os << "]}";
  os << R"(,"slo":{"target_seconds":)";
  obs::detail::write_json_double(os, target);
  os << R"(,"window":)" << options_.telemetry.window << R"(,"samples":)"
     << window_samples << R"(,"requests":)" << window_requests
     << R"(,"p50_seconds":)";
  obs::detail::write_json_double(os, p50);
  os << R"(,"p99_seconds":)";
  obs::detail::write_json_double(os, p99);
  os << R"(,"attainment":)";
  obs::detail::write_json_double(os, attainment);
  os << "}";
  os << R"(,"sessions":[)";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionRow& row = sessions[i];
    if (i > 0) os << ',';
    os << R"({"session":)" << row.id << R"(,"requests":)" << row.requests
       << R"(,"samples":)" << row.samples << R"(,"p50_seconds":)";
    obs::detail::write_json_double(os, row.p50);
    os << R"(,"p99_seconds":)";
    obs::detail::write_json_double(os, row.p99);
    os << R"(,"attainment":)";
    obs::detail::write_json_double(os, row.attainment);
    os << '}';
  }
  os << "]";
  os << R"(,"stats":{"submitted":)" << stats.submitted << R"(,"admitted":)"
     << stats.admitted << R"(,"rejected_queue_full":)"
     << stats.rejected_queue_full << R"(,"rejected_deadline":)"
     << stats.rejected_deadline << R"(,"rejected_unknown_session":)"
     << stats.rejected_unknown_session << R"(,"rejected_draining":)"
     << stats.rejected_draining << R"(,"rejected_invalid_scan":)"
     << stats.rejected_invalid_scan << R"(,"completed":)" << stats.completed
     << R"(,"usable":)" << stats.usable << R"(,"degraded":)" << stats.degraded
     << R"(,"failed":)" << stats.failed << R"(,"retries":)" << stats.retries
     << R"(,"crashes":)" << stats.crashes << R"(,"resumes":)" << stats.resumes
     << R"(,"max_queue_depth":)" << stats.max_queue_depth << "}";
  os << R"(,"metrics":)";
  obs::metrics().write_json_array(os);
  os << "}\n";
}

void SessionServer::worker_loop() {
  for (;;) {
    base::Outcome<PendingRequest> popped = queue_.pop(kPopTimeoutSeconds);
    if (!popped.ok()) {
      if (popped.status().code() == base::StatusCode::kUnavailable) return;
      continue;  // poll timeout: re-check for work or close
    }
    obs::metrics().gauge("service.queue_depth").set(
        static_cast<double>(queue_.size()));
    if (aborting()) {
      finish(abandon(std::move(popped.value())));
      continue;
    }
    finish(process(std::move(popped.value())));
  }
}

RequestReport SessionServer::process(PendingRequest request) {
  RequestReport report;
  report.id = request.id;
  report.session = request.session;
  report.queue_seconds = request.budget.elapsed_seconds();

  obs::Span span = obs::timed_span("service.request");
  span.attr("session", static_cast<std::int64_t>(request.session.value()));
  span.attr("request", static_cast<std::int64_t>(request.id.value()));
  span.attr("queue_seconds", report.queue_seconds);

  SessionState& state = *request.state;
  base::MutexLock lock(state.mutex);
  RankGrant grant(pool_, options_.ranks_per_solve);
  report.ranks = grant.granted();
  if (state.live == nullptr) {
    // Eviction or a prior crash dropped the live object; the case continues
    // from its checkpoint, numbering scans where it left off.
    report.resumed = state.checkpoint.scans_processed > 0;
    state.live = std::make_unique<core::SurgerySession>(
        state.preop, state.labels, state.config, state.checkpoint,
        options_.retention);
    if (report.resumed) obs::metrics().counter("service.resumes").add();
  }

  int attempt = 0;
  double backoff = options_.retry.backoff_seconds;
  for (;;) {
    core::ScanOverrides overrides;
    overrides.nranks = grant.granted();
    overrides.fault_seed_offset = static_cast<std::uint64_t>(attempt);
    if (request.budget.limited()) {
      // Degrade, don't cancel: the pipeline gets whatever budget remains
      // (epsilon once expired), and its ladder trades fidelity for time.
      overrides.deadline_seconds =
          std::max(kMinSteeringSeconds, request.budget.remaining_seconds());
    }
    try {
      const core::PipelineResult& result =
          state.live->process_scan(request.intraop, overrides);
      report.degraded = result.degradation.degraded;
      report.rung = fem::degradation_rung_name(result.degradation.rung);
      report.scan_index = state.live->scans_processed() - 1;
      state.checkpoint = state.live->checkpoint();
      cost_.record(megavoxels(request.intraop), result.timeline);
      break;
    } catch (const base::StatusError& error) {
      const base::StatusCode code = error.status().code();
      const bool transient = code == base::StatusCode::kCommFault ||
                             code == base::StatusCode::kUnavailable;
      if (transient && attempt < options_.retry.max_retries &&
          !request.budget.expired()) {
        ++attempt;
        ++report.retries;
        obs::metrics().counter("service.retries").add();
        double sleep_seconds = backoff;
        if (request.budget.limited()) {
          sleep_seconds =
              std::min(sleep_seconds, request.budget.remaining_seconds());
        }
        // The backoff wait is part of the request's observable lifetime:
        // one service.retry span per attempt plus the backoff histogram.
        obs::Span retry_span = obs::timed_span("service.retry");
        if (retry_span.active()) {
          retry_span.attr("attempt", attempt);
          retry_span.attr("status", base::status_code_name(code));
          retry_span.attr("sleep_seconds", sleep_seconds);
        }
        obs::metrics()
            .histogram("service.backoff_seconds",
                       {0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0})
            .observe(sleep_seconds);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_seconds));
        retry_span.close();
        backoff *= options_.retry.backoff_multiplier;
        continue;
      }
      report.status = error.status();
      // The retry budget is spent (or the failure is not transient): comm
      // faults, deadline misses and watchdog stops leave a post-mortem
      // bundle with the request context attached.
      if (const obs::DumpTrigger trigger = obs::dump_trigger_from_status(
              code, obs::DumpTrigger::kManual);
          trigger != obs::DumpTrigger::kManual) {
        obs::DumpContext context;
        context.detail =
            std::string("request failed terminally: ") + error.what();
        context.attr("session",
                     static_cast<std::int64_t>(request.session.value()));
        context.attr("request",
                     static_cast<std::int64_t>(request.id.value()));
        context.attr("attempts", attempt + 1);
        context.attr("status", base::status_code_name(code));
        obs::recorder().dump(trigger, context);
      }
      break;
    } catch (const CheckError& error) {
      // Invariant corruption inside this session's pipeline: quarantine the
      // live object (the next request resumes from the checkpoint) and fail
      // this request typed instead of taking the server down.
      state.live.reset();
      report.crashed = true;
      report.status = {
          base::StatusCode::kUnavailable,
          std::string("SessionServer: session crashed: ") + error.what()};
      obs::metrics().counter("service.crashes").add();
      // The check-failure hook already dumped at throw time with no request
      // context; this second dump (rate-limited with the first) attaches the
      // session and request ids to the same incident.
      {
        obs::DumpContext context;
        context.detail =
            std::string("session crashed on invariant check: ") + error.what();
        context.attr("session",
                     static_cast<std::int64_t>(request.session.value()));
        context.attr("request",
                     static_cast<std::int64_t>(request.id.value()));
        context.attr("attempts", attempt + 1);
        obs::recorder().dump(obs::DumpTrigger::kCheckFailure, context);
      }
      break;
    }
  }

  report.time_to_field_seconds = request.budget.elapsed_seconds();
  report.service_seconds =
      report.time_to_field_seconds - report.queue_seconds;
  span.attr("rung", report.rung);
  span.attr("retries", report.retries);
  span.attr("ranks", report.ranks);
  span.attr("status", base::status_code_name(report.status.code()));
  return report;
}

RequestReport SessionServer::abandon(PendingRequest request) const {
  RequestReport report;
  report.id = request.id;
  report.session = request.session;
  report.queue_seconds = request.budget.elapsed_seconds();
  report.time_to_field_seconds = report.queue_seconds;
  report.status = {base::StatusCode::kUnavailable,
                   "SessionServer: shut down before dispatch"};
  return report;
}

void SessionServer::finish(RequestReport report) {
  obs::metrics()
      .counter(report.status.ok() ? "service.completed" : "service.failed")
      .add();
  if (report.status.ok() && report.degraded) {
    obs::metrics().counter("service.degraded").add();
  }
  observe_time_to_field(report.time_to_field_seconds);
  {
    base::MutexLock lock(state_mutex_);
    ++stats_.completed;
    if (report.status.ok()) {
      ++stats_.usable;
      if (report.degraded) ++stats_.degraded;
    } else {
      ++stats_.failed;
    }
    stats_.retries += report.retries;
    if (report.crashed) ++stats_.crashes;
    if (report.resumed) ++stats_.resumes;
    ttf_window_.add(report.time_to_field_seconds);
    auto window_it = session_ttf_.find(report.session);
    if (window_it == session_ttf_.end()) {
      window_it = session_ttf_
                      .emplace(report.session,
                               RollingWindow(options_.telemetry.window))
                      .first;
    }
    window_it->second.add(report.time_to_field_seconds);
    --outstanding_;
    const auto it = slots_.find(report.id);
    NEURO_REQUIRE(it != slots_.end(),
                  "SessionServer: report for unknown request "
                      << report.id.value());
    it->second.report = std::move(report);
    it->second.done = true;
  }
  completion_cv_.notify_all();
}

base::Status SessionServer::reject(base::Status status,
                                   std::int64_t ServerStats::*counter) {
  int rejections = 0;
  bool storm = false;
  {
    base::MutexLock lock(state_mutex_);
    if (counter != nullptr) {
      ++(stats_.*counter);
    } else {
      switch (status.code()) {
        case base::StatusCode::kResourceExhausted:
          ++stats_.rejected_queue_full;
          break;
        case base::StatusCode::kDeadlineExceeded:
          ++stats_.rejected_deadline;
          break;
        case base::StatusCode::kFailedPrecondition:
          ++stats_.rejected_unknown_session;
          break;
        default:
          ++stats_.rejected_draining;
          break;
      }
    }
    ++consecutive_rejections_;
    rejections = consecutive_rejections_;
    // Exactly-at-threshold so one storm produces one dump; the counter
    // resets on the next admit.
    storm = options_.telemetry.admission_storm_threshold > 0 &&
            rejections == options_.telemetry.admission_storm_threshold;
  }
  obs::metrics()
      .counter(std::string("service.rejected.") +
               base::status_code_name(status.code()))
      .add();
  if (storm) {
    obs::DumpContext context;
    context.detail =
        std::string("admission rejection storm: ") + status.message();
    context.attr("consecutive_rejections", rejections);
    context.attr("last_status", base::status_code_name(status.code()));
    obs::recorder().dump(obs::DumpTrigger::kAdmissionStorm, context);
  }
  return status;
}

SessionServer::SessionState* SessionServer::find_session(
    SessionId session) const {
  base::MutexLock lock(state_mutex_);
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool SessionServer::aborting() const {
  base::MutexLock lock(state_mutex_);
  return aborting_;
}

}  // namespace neuro::service
