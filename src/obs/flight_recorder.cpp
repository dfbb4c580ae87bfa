#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "base/check.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace neuro::obs {

namespace {

using detail::write_attrs_body;
using detail::write_json_double;
using detail::write_json_fixed3;
using detail::write_json_string;

const char* env_or_empty(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

/// The bundle's build provenance, from this translation unit's own flags
/// (same convention as bench_micro's neuro_build_type context key).
const char* build_type_string() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

bool obs_compiled_in() {
#ifdef NEURO_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

/// Serializes one ring event. Under redact_timing the ts/dur fields are
/// omitted entirely so deterministic workloads produce byte-identical
/// bundles (counter/attr values and ordering are already deterministic).
void write_event(std::ostream& os, const TraceEvent& event,
                 bool redact_timing) {
  os << R"({"name":)";
  write_json_string(os, event.name);
  os << R"(,"kind":")"
     << (event.kind == TraceEvent::Kind::kSpan ? "span" : "counter")
     << R"(","rank":)" << event.rank << R"(,"seq":)" << event.seq;
  if (!redact_timing) {
    os << R"(,"ts_us":)";
    write_json_fixed3(os, event.ts_us);
    if (event.kind == TraceEvent::Kind::kSpan) {
      os << R"(,"dur_us":)";
      write_json_fixed3(os, event.dur_us);
    }
  }
  if (event.kind == TraceEvent::Kind::kCounter) {
    os << R"(,"value":)";
    write_json_double(os, event.value);
  }
  if (!event.attrs.empty()) {
    os << R"(,"args":{)";
    write_attrs_body(os, event.attrs);
    os << '}';
  }
  os << '}';
}

/// Recovers the solver residual history from the ring: per-iteration spans
/// named "<solver>.iteration" carry iteration/residual attrs (krylov.cpp).
void write_residual_history(std::ostream& os,
                            const std::vector<TraceEvent>& events) {
  os << "[";
  bool first = true;
  for (const auto& event : events) {
    if (event.kind != TraceEvent::Kind::kSpan) continue;
    static constexpr std::string_view kSuffix = ".iteration";
    if (event.name.size() <= kSuffix.size() ||
        event.name.compare(event.name.size() - kSuffix.size(), kSuffix.size(),
                           kSuffix) != 0) {
      continue;
    }
    const Attr* iteration = nullptr;
    const Attr* residual = nullptr;
    for (const auto& attr : event.attrs) {
      if (attr.key == "iteration" && attr.kind == Attr::Kind::kInt) {
        iteration = &attr;
      } else if (attr.key == "residual" && attr.kind == Attr::Kind::kDouble) {
        residual = &attr;
      }
    }
    if (iteration == nullptr || residual == nullptr) continue;
    if (!first) os << ",\n";
    first = false;
    os << R"({"solver":)";
    write_json_string(
        os, event.name.substr(0, event.name.size() - kSuffix.size()));
    os << R"(,"rank":)" << event.rank << R"(,"iteration":)" << iteration->i
       << R"(,"residual":)";
    write_json_double(os, residual->d);
    os << '}';
  }
  os << "]";
}

void check_failure_bridge(const char* message) {
  DumpContext context;
  context.detail = message;
  recorder().dump(DumpTrigger::kCheckFailure, context);
}

volatile std::sig_atomic_t g_in_fatal_signal = 0;

void fatal_signal_bridge(int signum) {
  // Best effort only: allocation and locking below are not async-signal-safe,
  // but the process is dying anyway — a partial bundle beats none. Reentry
  // (a second signal while dumping) falls straight through to the default
  // handler.
  if (g_in_fatal_signal == 0) {
    g_in_fatal_signal = 1;
    DumpContext context;
    context.detail = "fatal signal";
    context.attr("signal", signum);
    recorder().dump(DumpTrigger::kFatalSignal, context);
  }
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

}  // namespace

std::string_view dump_trigger_name(DumpTrigger trigger) {
  switch (trigger) {
    case DumpTrigger::kManual: return "manual";
    case DumpTrigger::kDegradation: return "degradation";
    case DumpTrigger::kWatchdog: return "watchdog";
    case DumpTrigger::kCommFault: return "comm_fault";
    case DumpTrigger::kDeadlineMiss: return "deadline_miss";
    case DumpTrigger::kAdmissionStorm: return "admission_storm";
    case DumpTrigger::kCheckFailure: return "check_failure";
    case DumpTrigger::kFatalSignal: return "fatal_signal";
  }
  return "unknown";
}

DumpTrigger dump_trigger_from_status(base::StatusCode code,
                                     DumpTrigger fallback) {
  switch (code) {
    case base::StatusCode::kCommFault:
    case base::StatusCode::kUnavailable:
      return DumpTrigger::kCommFault;
    case base::StatusCode::kDeadlineExceeded:
      return DumpTrigger::kDeadlineMiss;
    case base::StatusCode::kSolverStagnated:
    case base::StatusCode::kSolverDiverged:
    case base::StatusCode::kNumericalInvalid:
      return DumpTrigger::kWatchdog;
    default:
      return fallback;
  }
}

void DumpContext::attr(std::string_view key, double value) {
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kDouble;
  a.d = value;
  attrs.push_back(std::move(a));
}

void DumpContext::attr(std::string_view key, std::int64_t value) {
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kInt;
  a.i = value;
  attrs.push_back(std::move(a));
}

void DumpContext::attr(std::string_view key, std::string_view value) {
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kString;
  a.s = value;
  attrs.push_back(std::move(a));
}

FlightRecorder::FlightRecorder(Tracer& tracer) : tracer_(tracer) {}

void FlightRecorder::arm(Options options) {
  options_ = std::move(options);
  tracer_.set_ring_capacity(options_.ring_capacity);
  tracer_.set_enabled(true);
  armed_.store(true, std::memory_order_release);
}

void FlightRecorder::adopt_sink(Options options) {
  options_ = std::move(options);
  options_.ring_capacity = tracer_.ring_capacity();
  armed_.store(true, std::memory_order_release);
}

void FlightRecorder::note(DumpTrigger trigger, const DumpContext& context) {
  metrics()
      .counter(std::string("obs.recorder.triggers.") +
               std::string(dump_trigger_name(trigger)))
      .add(1);
  Span span = tracer_.span("recorder.trigger");
  if (span.active()) {
    span.attr("trigger", dump_trigger_name(trigger));
    if (!context.detail.empty()) span.attr("detail", context.detail);
    for (const auto& a : context.attrs) {
      switch (a.kind) {
        case Attr::Kind::kDouble: span.attr(a.key, a.d); break;
        case Attr::Kind::kInt: span.attr(a.key, a.i); break;
        case Attr::Kind::kString: span.attr(a.key, a.s); break;
      }
    }
  }
  span.close();
}

std::string FlightRecorder::dump(DumpTrigger trigger,
                                 const DumpContext& context) {
  note(trigger, context);
  if (!armed() || options_.dump_dir.empty()) return "";
  // The whole dump runs under dump_mutex_: concurrent triggers must not
  // overlap their dump_ring() handshakes (the second would clear the
  // tracer's dump_pending_ flag out from under the first).
  base::MutexLock lock(dump_mutex_);
  if (dumps_written_ >= options_.max_dumps) {
    metrics().counter("obs.recorder.dumps_suppressed").add(1);
    return "";
  }
  ++dumps_written_;
  ++dump_sequence_;
  std::ostringstream name;
  name << "postmortem_";
  name.fill('0');
  name.width(4);
  name << dump_sequence_ << ".json";
  const std::string path = options_.dump_dir + "/" + name.str();
  std::error_code ec;
  std::filesystem::create_directories(options_.dump_dir, ec);
  std::ofstream out(path);
  if (!out) {
    metrics().counter("obs.recorder.dump_errors").add(1);
    return "";
  }
  write_bundle(out, trigger, context);
  metrics().counter("obs.recorder.dumps_written").add(1);
  return path;
}

void FlightRecorder::write_bundle(std::ostream& os, DumpTrigger trigger,
                                  const DumpContext& context) const {
  const Tracer::RingDump dump = tracer_.dump_ring();
  os << "{\n\"schema\":\"neuro.postmortem.v1\",\n";

  os << R"("trigger":{"kind":)";
  write_json_string(os, dump_trigger_name(trigger));
  os << R"(,"detail":)";
  write_json_string(os, context.detail);
  os << R"(,"attrs":{)";
  write_attrs_body(os, context.attrs);
  os << "}},\n";

  os << R"("provenance":{"build_type":")" << build_type_string()
     << R"(","obs_compiled_in":)" << (obs_compiled_in() ? "true" : "false")
     << R"(,"redact_timing":)" << (options_.redact_timing ? "true" : "false")
     << R"(,"env":{"NEURO_FAULT_INJECT":)";
  write_json_string(os, env_or_empty("NEURO_FAULT_INJECT"));
  os << R"(,"NEURO_TRACE":)";
  write_json_string(os, env_or_empty("NEURO_TRACE"));
  os << R"(,"NEURO_SEED":)";
  write_json_string(os, env_or_empty("NEURO_SEED"));
  os << "}},\n";

  os << R"("streams":[)";
  for (std::size_t i = 0; i < dump.streams.size(); ++i) {
    const auto& s = dump.streams[i];
    if (i > 0) os << ",\n";
    os << R"({"rank":)" << s.rank << R"(,"recorded":)" << s.recorded
       << R"(,"retained":)" << s.retained << R"(,"wrapped":)" << s.wrapped
       << R"(,"dropped":)" << s.dropped << "}";
  }
  os << "],\n";

  os << R"("ring":{"capacity":)" << dump.ring_capacity << R"(,"events":[)"
     << "\n";
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    if (i > 0) os << ",\n";
    write_event(os, dump.events[i], options_.redact_timing);
  }
  os << "\n]},\n";

  os << R"("metrics":)";
  metrics().write_json_array(os);
  os << ",\n";

  os << R"("residual_history":)";
  write_residual_history(os, dump.events);
  os << "\n}\n";
}

FlightRecorder& recorder() {
  static FlightRecorder* instance = [] {
    auto* rec = new FlightRecorder(global());
    if (postmortem_enabled_by_env()) {
      // global() already constructed with the recorder's ring (trace.cpp
      // consults postmortem_enabled_by_env before any thread records), so
      // only the sink needs wiring — adopt_sink never touches the tracer,
      // making this safe even when the first recorder() call lands on a
      // rank thread while its siblings record.
      FlightRecorder::Options options;
      options.dump_dir = env_or_empty("NEURO_POSTMORTEM_DIR");
      rec->adopt_sink(std::move(options));
      const char* signals = std::getenv("NEURO_POSTMORTEM_SIGNALS");
      if (signals != nullptr && signals[0] == '1') install_fatal_signal_dump();
    }
    set_check_failure_hook(&check_failure_bridge);
    return rec;
  }();
  return *instance;
}

bool postmortem_enabled_by_env() {
  const char* dir = std::getenv("NEURO_POSTMORTEM_DIR");
  return dir != nullptr && dir[0] != '\0';
}

void install_fatal_signal_dump() {
  std::signal(SIGSEGV, &fatal_signal_bridge);
  std::signal(SIGABRT, &fatal_signal_bridge);
  std::signal(SIGFPE, &fatal_signal_bridge);
}

}  // namespace neuro::obs
