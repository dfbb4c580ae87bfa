// Overload and recovery tests for the multi-tenant session service
// (docs/service.md): typed admission rejection under saturation, cost-model
// deadline rejection, mid-flight deadline → degradation-ladder rung, seeded
// comm-fault retry determinism, checkpointed resume after eviction and after
// a crashed solve, and drain/shutdown with zero lost or deadlocked requests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "fem/degradation.h"
#include "obs/metrics.h"
#include "par/fault_inject.h"
#include "phantom/brain_phantom.h"
#include "service/bounded_queue.h"
#include "service/cost_model.h"
#include "service/session_server.h"

namespace neuro::service {
namespace {

TEST(BoundedQueueTest, PushPopOrderAndTypedOverflow) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.try_push(1).ok());
  EXPECT_TRUE(queue.try_push(2).ok());
  EXPECT_EQ(queue.try_push(3).code(), base::StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.max_depth(), 2u);

  auto first = queue.pop(0.0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1);
  auto second = queue.pop(0.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2);

  const auto timed_out = queue.pop(0.01);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), base::StatusCode::kDeadlineExceeded);
}

TEST(BoundedQueueTest, CloseDrainsRemainingThenReportsUnavailable) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.try_push(7).ok());
  queue.close();
  EXPECT_EQ(queue.try_push(8).code(), base::StatusCode::kUnavailable);
  auto drained = queue.pop(0.0);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value(), 7);
  const auto done = queue.pop(0.0);
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.status().code(), base::StatusCode::kUnavailable);
}

TEST(CostModelTest, PriorThenMeasurementScaling) {
  CostModel model(CostModelOptions{.alpha = 0.5, .prior_seconds = 2.0});
  EXPECT_DOUBLE_EQ(model.predict_service_seconds(1.0), 2.0);
  EXPECT_DOUBLE_EQ(model.mean_service_seconds(), 2.0);

  model.record(1.0, {{"seg", 0.2}, {"fem", 0.3}});
  EXPECT_EQ(model.observations(), 1);
  EXPECT_DOUBLE_EQ(model.predict_service_seconds(1.0), 0.5);
  EXPECT_DOUBLE_EQ(model.predict_service_seconds(2.0), 1.0);
  EXPECT_DOUBLE_EQ(model.mean_service_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(model.predict_stage_seconds("fem", 2.0), 0.6);
  EXPECT_DOUBLE_EQ(model.predict_stage_seconds("unknown", 2.0), 0.0);

  model.record(1.0, {{"seg", 0.4}, {"fem", 0.5}});
  // EWMA with alpha 0.5: total/mvox moves from 0.5 halfway toward 0.9.
  EXPECT_NEAR(model.predict_service_seconds(1.0), 0.7, 1e-12);
}

TEST(RankPoolTest, GrantsAtMostFreeRanksNeverBlocksPartially) {
  RankPool pool(4);
  EXPECT_EQ(pool.capacity(), 4);
  const int first = pool.acquire(3);
  EXPECT_EQ(first, 3);
  const int second = pool.acquire(3);  // one free rank: partial grant
  EXPECT_EQ(second, 1);
  pool.release(second);
  pool.release(first);
  EXPECT_EQ(pool.free_ranks(), 4);
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    phantom::PhantomConfig pc;
    pc.dims = {32, 32, 32};
    pc.spacing = {3.5, 3.5, 3.5};
    cases_ = new std::vector<phantom::PhantomCase>(phantom::make_case_sequence(
        pc, phantom::ShiftConfig{}, {0.0, 0.5, 1.0}));
  }
  static void TearDownTestSuite() {
    delete cases_;
    cases_ = nullptr;
  }

  static core::PipelineConfig pipeline_config() {
    core::PipelineConfig config = core::default_pipeline_config();
    config.do_rigid_registration = false;
    return config;
  }

  static SessionId open_session(SessionServer& server) {
    return server.open_session((*cases_)[0].preop, (*cases_)[0].preop_labels,
                               pipeline_config());
  }

  static std::vector<phantom::PhantomCase>* cases_;
};
std::vector<phantom::PhantomCase>* ServiceTest::cases_ = nullptr;

TEST_F(ServiceTest, SaturationRejectsTypedAndShutdownLosesNothing) {
  ServerOptions options;
  options.workers = 0;  // nothing dispatches: pure admission/backpressure
  options.queue_capacity = 2;
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto t1 = server.submit(session, (*cases_)[0].intraop);
  auto t2 = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto overflow = server.submit(session, (*cases_)[2].intraop);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), base::StatusCode::kResourceExhausted);
  auto unknown = server.submit(SessionId(99), (*cases_)[0].intraop);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), base::StatusCode::kFailedPrecondition);

  server.shutdown();  // queued requests terminate typed — none lost
  const RequestReport r1 = server.wait(t1.value());
  const RequestReport r2 = server.wait(t2.value());
  EXPECT_EQ(r1.status.code(), base::StatusCode::kUnavailable);
  EXPECT_EQ(r2.status.code(), base::StatusCode::kUnavailable);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected_queue_full, 1);
  EXPECT_EQ(stats.rejected_unknown_session, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.usable, 0);
  EXPECT_LE(stats.max_queue_depth, 2);

  auto after = server.submit(session, (*cases_)[0].intraop);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), base::StatusCode::kUnavailable);
}

TEST_F(ServiceTest, NonFiniteScansRejectedBeforeQueueing) {
  ServerOptions options;
  options.workers = 1;
  SessionServer server(options);
  const SessionId session = open_session(server);

  ImageF scan = (*cases_)[1].intraop;
  scan(5, 6, 7) = std::numeric_limits<float>::quiet_NaN();
  auto rejected = server.submit(session, scan);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), base::StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("(5,6,7)"), std::string::npos)
      << rejected.status().message();

  auto empty = server.submit(session, ImageF{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), base::StatusCode::kFailedPrecondition);
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos)
      << empty.status().message();

  // The first well-formed scan fixes the session's grid.
  auto first = server.submit(session, (*cases_)[0].intraop);
  ASSERT_TRUE(first.ok());
  const RequestReport first_report = server.wait(first.value());
  ASSERT_TRUE(first_report.status.ok()) << first_report.status.message();

  // Follow-up scans on another grid are rejected before queueing, not
  // admitted to crash the live session.
  for (const int n : {2, 16}) {
    const ImageF other({n, n, n}, 100.0f, (*cases_)[0].intraop.spacing());
    auto mismatched = server.submit(session, other);
    ASSERT_FALSE(mismatched.ok()) << n;
    EXPECT_EQ(mismatched.status().code(), base::StatusCode::kFailedPrecondition);
    EXPECT_NE(mismatched.status().message().find("differ"), std::string::npos)
        << mismatched.status().message();
  }

  // The live session takes the next valid scan; nothing was rebuilt.
  auto next = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(next.ok());
  const RequestReport next_report = server.wait(next.value());
  ASSERT_TRUE(next_report.status.ok()) << next_report.status.message();
  EXPECT_FALSE(next_report.resumed);
  EXPECT_EQ(next_report.scan_index, 1);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected_invalid_scan, 4);
  EXPECT_EQ(stats.rejected_unknown_session, 0);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_EQ(stats.resumes, 0);

  ImageF preop = (*cases_)[0].preop;
  preop(0, 0, 0) = std::numeric_limits<float>::infinity();
  for (const ImageF& bad : {preop, ImageF{}}) {
    try {
      static_cast<void>(server.open_session(bad, (*cases_)[0].preop_labels,
                                            pipeline_config()));
      ADD_FAILURE() << "open_session accepted an invalid preop scan";
    } catch (const base::StatusError& e) {
      EXPECT_EQ(e.status().code(), base::StatusCode::kFailedPrecondition);
    }
  }
}

TEST_F(ServiceTest, AdmissionRejectsDoomedDeadlines) {
  ServerOptions options;
  options.workers = 0;
  options.cost.prior_seconds = 100.0;  // conservative empty-model stance
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto doomed = server.submit(session, (*cases_)[0].intraop,
                              RequestOptions{.deadline_seconds = 0.5});
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), base::StatusCode::kDeadlineExceeded);

  // An unlimited deadline is admissible regardless of the prior.
  auto fine = server.submit(session, (*cases_)[0].intraop);
  ASSERT_TRUE(fine.ok());
  server.shutdown();
  EXPECT_EQ(server.wait(fine.value()).status.code(),
            base::StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_deadline, 1);
}

TEST_F(ServiceTest, SolvesAndResumesAfterEviction) {
  ServerOptions options;
  options.workers = 1;
  options.rank_pool = 2;
  options.ranks_per_solve = 2;
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto t1 = server.submit(session, (*cases_)[0].intraop);
  ASSERT_TRUE(t1.ok());
  const RequestReport r1 = server.wait(t1.value());
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_EQ(r1.scan_index, 0);
  EXPECT_FALSE(r1.degraded);
  EXPECT_FALSE(r1.resumed);
  EXPECT_EQ(r1.ranks, 2);
  EXPECT_GT(r1.time_to_field_seconds, 0.0);
  EXPECT_GE(r1.service_seconds, 0.0);

  EXPECT_EQ(server.session_checkpoint(session).scans_processed, 1);
  server.evict_session(session);

  auto t2 = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(t2.ok());
  const RequestReport r2 = server.wait(t2.value());
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_TRUE(r2.resumed);
  EXPECT_EQ(r2.scan_index, 1);  // numbering continues across the eviction

  EXPECT_EQ(server.cost_model().observations(), 2);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.usable, 2);
  EXPECT_EQ(stats.resumes, 1);
}

TEST_F(ServiceTest, FollowUpsReusePreopModelUntilEviction) {
  // The session hands its preop model from scan to scan; eviction drops it
  // with the live session, so the resumed session builds it once again.
  ServerOptions options;
  options.workers = 1;
  SessionServer server(options);
  const SessionId session = open_session(server);
  auto& built = obs::metrics().counter("pipeline.preop_model.built");
  auto& reused = obs::metrics().counter("pipeline.preop_model.reused");
  const auto run = [&](std::size_t scan) {
    auto ticket = server.submit(session, (*cases_)[scan].intraop);
    ASSERT_TRUE(ticket.ok());
    const RequestReport report = server.wait(ticket.value());
    ASSERT_TRUE(report.status.ok()) << report.status;
  };
  const std::int64_t built0 = built.value();
  const std::int64_t reused0 = reused.value();
  run(0);  // model-building scan
  run(1);
  run(2);
  EXPECT_EQ(built.value() - built0, 1);
  EXPECT_EQ(reused.value() - reused0, 2);

  server.evict_session(session);
  run(1);  // resumed from the checkpoint: rebuilds
  run(2);
  EXPECT_EQ(built.value() - built0, 2);
  EXPECT_EQ(reused.value() - reused0, 3);
}

TEST_F(ServiceTest, MidFlightDeadlineSteersDownTheLadder) {
  ServerOptions options;
  options.workers = 1;
  SessionServer server(options);
  // A denser mesh than the other tests: the full solve must not be able to
  // finish inside the epsilon budget left after the earlier stages, or there
  // is nothing to degrade from.
  core::PipelineConfig config = pipeline_config();
  config.mesher.stride = 2;
  const SessionId session = server.open_session(
      (*cases_)[0].preop, (*cases_)[0].preop_labels, config);

  // The empty cost model admits optimistically (prior 0); the solve then
  // slips its 50 ms budget mid-flight and must degrade, not cancel.
  auto slipped = server.submit(session, (*cases_)[2].intraop,
                               RequestOptions{.deadline_seconds = 0.05});
  ASSERT_TRUE(slipped.ok());
  const RequestReport report = server.wait(slipped.value());
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.rung, std::string(fem::degradation_rung_name(
                             fem::DegradationRung::kFullSolve)));
  EXPECT_EQ(server.stats().degraded, 1);
}

RequestReport run_seeded_fault_campaign(
    const std::vector<phantom::PhantomCase>& cases) {
  ServerOptions options;
  options.workers = 1;
  options.rank_pool = 2;
  options.ranks_per_solve = 2;
  options.retry.max_retries = 1;
  options.retry.backoff_seconds = 0.001;
  SessionServer server(options);

  core::PipelineConfig config = core::default_pipeline_config();
  config.do_rigid_registration = false;
  config.fem.fault_injection.kind = par::FaultKind::kDrop;
  config.fem.fault_injection.probability = 1.0;
  config.fem.fault_injection.seed = 7;
  config.fem.fault_injection.recv_timeout_ms = 25.0;
  config.degradation.allow_baseline = false;  // force ladder exhaustion
  const SessionId session = server.open_session(
      cases[0].preop, cases[0].preop_labels, config);

  auto ticket = server.submit(session, cases[0].intraop);
  EXPECT_TRUE(ticket.ok());
  return server.wait(ticket.value());
}

TEST_F(ServiceTest, SeededCommFaultRetryIsDeterministic) {
  const RequestReport first = run_seeded_fault_campaign(*cases_);
  EXPECT_FALSE(first.status.ok());
  EXPECT_EQ(first.retries, 1);  // one bounded retry, then a typed failure
  EXPECT_EQ(first.rung, "-");

  const RequestReport second = run_seeded_fault_campaign(*cases_);
  EXPECT_EQ(second.status.code(), first.status.code());
  EXPECT_EQ(second.retries, first.retries);
  EXPECT_EQ(second.rung, first.rung);
}

TEST_F(ServiceTest, CrashedSessionResumesFromCheckpoint) {
  ServerOptions options;
  options.workers = 1;
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto good = server.submit(session, (*cases_)[0].intraop);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(server.wait(good.value()).status.ok());

  // A poison request: a scan of the session's shape placed 10 m from the
  // preoperative volume passes admission, but its brain mesh is empty, which
  // aborts the pipeline's invariant checks mid-scan. The server quarantines
  // the session and fails the request typed instead of dying.
  const ImageF& shape = (*cases_)[1].intraop;
  ImageF misplaced(shape.dims(), 0.0f, shape.spacing(), Vec3{1e4, 1e4, 1e4});
  misplaced.data() = shape.data();
  auto poison = server.submit(session, misplaced);
  ASSERT_TRUE(poison.ok());
  const RequestReport crash = server.wait(poison.value());
  EXPECT_FALSE(crash.status.ok());
  EXPECT_TRUE(crash.crashed);
  EXPECT_EQ(crash.status.code(), base::StatusCode::kUnavailable);

  auto after = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(after.ok());
  const RequestReport recovered = server.wait(after.value());
  ASSERT_TRUE(recovered.status.ok()) << recovered.status;
  EXPECT_TRUE(recovered.resumed);
  EXPECT_EQ(recovered.scan_index, 1);  // the poison scan never counted

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.resumes, 1);
  EXPECT_EQ(stats.usable, 2);
  EXPECT_EQ(stats.failed, 1);
}

TEST_F(ServiceTest, DrainCompletesInFlightAndRejectsNew) {
  ServerOptions options;
  options.workers = 1;
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto t1 = server.submit(session, (*cases_)[0].intraop);
  auto t2 = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());

  server.drain();
  auto rejected = server.submit(session, (*cases_)[2].intraop);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), base::StatusCode::kUnavailable);

  EXPECT_TRUE(server.wait(t1.value()).status.ok());
  EXPECT_TRUE(server.wait(t2.value()).status.ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.usable, 2);
  EXPECT_EQ(stats.rejected_draining, 1);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST_F(ServiceTest, ServiceInstrumentsAreRegistered) {
  // Self-contained (ctest dispatches every test into its own process, so no
  // other test has populated the registry): drive one admission, one typed
  // overflow rejection and one abandoned completion, then check the
  // process-wide instruments counted them. Deltas, not absolutes, so the test
  // also passes inside a full single-process binary run.
  auto& m = obs::metrics();
  auto& histogram = m.histogram("service.time_to_field_seconds",
                                {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  const std::int64_t submitted = m.counter("service.submitted").value();
  const std::int64_t admitted = m.counter("service.admitted").value();
  const std::int64_t rejected =
      m.counter("service.rejected.resource_exhausted").value();
  const std::int64_t failed = m.counter("service.failed").value();
  const std::int64_t observed = histogram.total_count();

  ServerOptions options;
  options.workers = 0;  // admission only; shutdown abandons the queued request
  options.queue_capacity = 1;
  SessionServer server(options);
  const SessionId session = open_session(server);
  const auto first = server.submit(session, (*cases_)[0].intraop);
  ASSERT_TRUE(first.ok());
  const auto second = server.submit(session, (*cases_)[1].intraop);
  EXPECT_EQ(second.status().code(), base::StatusCode::kResourceExhausted);
  server.shutdown();
  EXPECT_EQ(server.wait(first.value()).status.code(),
            base::StatusCode::kUnavailable);

  EXPECT_EQ(m.counter("service.submitted").value(), submitted + 2);
  EXPECT_EQ(m.counter("service.admitted").value(), admitted + 1);
  EXPECT_EQ(m.counter("service.rejected.resource_exhausted").value(),
            rejected + 1);
  EXPECT_EQ(m.counter("service.failed").value(), failed + 1);
  EXPECT_EQ(histogram.total_count(), observed + 1);
}

TEST(RollingWindowTest, QuantilesAttainmentAndHistory) {
  RollingWindow window(4);
  EXPECT_EQ(window.quantile(0.5), 0.0);        // empty: well-defined zeros
  EXPECT_EQ(window.fraction_within(1.0), 1.0);  // vacuously attained

  window.add(1.0);
  window.add(2.0);
  window.add(3.0);
  window.add(4.0);
  EXPECT_EQ(window.quantile(0.50), 2.0);  // nearest-rank: ceil(0.5*4) = 2nd
  EXPECT_EQ(window.quantile(0.99), 4.0);
  EXPECT_EQ(window.fraction_within(2.0), 0.5);

  window.add(10.0);  // evicts the oldest (1.0); window is now {2,3,4,10}
  EXPECT_EQ(window.count(), 4u);
  EXPECT_EQ(window.total(), 5u);
  EXPECT_EQ(window.quantile(0.99), 10.0);
  const std::vector<double> history = window.history();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history.front(), 2.0);  // oldest first
  EXPECT_EQ(history.back(), 10.0);
}

TEST_F(ServiceTest, SnapshotPublishesSloTelemetry) {
  ServerOptions options;
  options.workers = 1;
  options.telemetry.window = 8;
  options.telemetry.slo_target_seconds = 300.0;  // generous: both attain
  SessionServer server(options);
  const SessionId session = open_session(server);

  auto t1 = server.submit(session, (*cases_)[0].intraop);
  auto t2 = server.submit(session, (*cases_)[1].intraop);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(server.wait(t1.value()).status.ok());
  ASSERT_TRUE(server.wait(t2.value()).status.ok());

  std::ostringstream os;
  server.publish_snapshot(os);
  const std::string snapshot = os.str();
  EXPECT_NE(snapshot.find("\"schema\":\"neuro.snapshot.v1\""),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"sequence\":1"), std::string::npos);
  EXPECT_NE(snapshot.find("\"target_seconds\":300"), std::string::npos);
  EXPECT_NE(snapshot.find("\"session\":" +
                          std::to_string(session.value())),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"attainment\":1"), std::string::npos);
  EXPECT_NE(snapshot.find("\"metrics\":["), std::string::npos);

  // Publishing refreshed the SLO gauges from the rolling window.
  auto& m = obs::metrics();
  const double p50 =
      m.gauge("service.slo.p50_time_to_field_seconds").value();
  const double p99 =
      m.gauge("service.slo.p99_time_to_field_seconds").value();
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_EQ(m.gauge("service.slo.attainment_ratio").value(), 1.0);
  EXPECT_EQ(m.gauge("service.slo.target_seconds").value(), 300.0);

  // A second publish advances the sequence number.
  std::ostringstream os2;
  server.publish_snapshot(os2);
  EXPECT_NE(os2.str().find("\"sequence\":2"), std::string::npos);
}

TEST_F(ServiceTest, PublisherThreadWritesSnapshotFile) {
  const std::string path = ::testing::TempDir() + "neuro_snapshot.json";
  std::remove(path.c_str());
  {
    ServerOptions options;
    options.workers = 1;
    options.telemetry.publish_interval_seconds = 0.002;
    options.telemetry.snapshot_path = path;
    SessionServer server(options);
    const SessionId session = open_session(server);
    auto ticket = server.submit(session, (*cases_)[0].intraop);
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(server.wait(ticket.value()).status.ok());
    server.shutdown();  // joins the publisher, writes the terminal snapshot
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema\":\"neuro.snapshot.v1\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"usable\":1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, AdmissionRejectionStormTriggersRecorder) {
  auto& storm_counter =
      obs::metrics().counter("obs.recorder.triggers.admission_storm");
  const std::int64_t before = storm_counter.value();

  ServerOptions options;
  options.workers = 0;
  options.queue_capacity = 1;
  options.telemetry.admission_storm_threshold = 3;
  SessionServer server(options);
  const SessionId session = open_session(server);
  ASSERT_TRUE(server.submit(session, (*cases_)[0].intraop).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(server.submit(session, (*cases_)[1].intraop).ok());
  }
  // Exactly one trigger: the storm fires when the consecutive-rejection
  // count crosses the threshold, not on every rejection after it.
  EXPECT_EQ(storm_counter.value(), before + 1);
  server.shutdown();
}

TEST_F(ServiceTest, RetryPathRecordsBackoffTelemetry) {
  auto& m = obs::metrics();
  auto& backoff = m.histogram("service.backoff_seconds",
                              {0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0});
  const std::int64_t observed = backoff.total_count();
  const std::int64_t comm_triggers =
      m.counter("obs.recorder.triggers.comm_fault").value();

  const RequestReport report = run_seeded_fault_campaign(*cases_);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.retries, 1);
  // One retry -> one backoff observation, and the terminal comm failure
  // noted a comm_fault trigger (the recorder is unarmed here, so it counts
  // without writing a bundle).
  EXPECT_EQ(backoff.total_count(), observed + 1);
  EXPECT_GE(m.counter("obs.recorder.triggers.comm_fault").value(),
            comm_triggers + 1);
}

}  // namespace
}  // namespace neuro::service
