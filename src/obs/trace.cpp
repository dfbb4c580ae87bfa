#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "base/check.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"

namespace neuro::obs {

namespace {

using detail::write_attr_value;
using detail::write_json_string;

thread_local int t_thread_rank = -1;

/// Maps a rank to its Chrome-trace thread id: the main thread is tid 0,
/// rank r is tid r+1, so every rank gets its own Perfetto track.
int tid_of_rank(int rank) { return rank + 1; }

void write_timestamp(std::ostream& os, double us) {
  detail::write_json_fixed3(os, us);
}

}  // namespace

// ---------------------------------------------------------------------------
// Span

Span::Span(Tracer* tracer, std::string_view name, bool timed)
    : tracer_(tracer), timed_(timed) {
  if (tracer_ != nullptr) name_ = name;
  if (timed_) start_ = std::chrono::steady_clock::now();
}

void Span::move_from(Span& other) noexcept {
  tracer_ = other.tracer_;
  timed_ = other.timed_;
  closed_ = other.closed_;
  seconds_ = other.seconds_;
  start_ = other.start_;
  name_ = std::move(other.name_);
  attrs_ = std::move(other.attrs_);
  other.tracer_ = nullptr;
  other.timed_ = false;
  other.closed_ = true;
}

double Span::seconds() const {
  if (closed_ || !timed_) return seconds_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

double Span::close() {
  if (closed_) return seconds_;
  closed_ = true;
  if (!timed_) return 0.0;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.name = std::move(name_);
    event.kind = TraceEvent::Kind::kSpan;
    event.ts_us =
        std::chrono::duration<double, std::micro>(start_ - tracer_->epoch_)
            .count();
    event.dur_us = seconds_ * 1e6;
    event.rank = t_thread_rank;
    event.attrs = std::move(attrs_);
    tracer_->record(std::move(event));
    tracer_ = nullptr;
  }
  return seconds_;
}

void Span::attr(std::string_view key, double value) {
  if (tracer_ == nullptr || closed_) return;
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kDouble;
  a.d = value;
  attrs_.push_back(std::move(a));
}

void Span::attr(std::string_view key, std::int64_t value) {
  if (tracer_ == nullptr || closed_) return;
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kInt;
  a.i = value;
  attrs_.push_back(std::move(a));
}

void Span::attr(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr || closed_) return;
  Attr a;
  a.key = key;
  a.kind = Attr::Kind::kString;
  a.s = value;
  attrs_.push_back(std::move(a));
}

// ---------------------------------------------------------------------------
// Tracer

/// One thread's ring of its last ring_capacity events. The owning thread
/// writes without locking; the registration list is the only shared state
/// under a mutex. `gen` (odd while a write is in flight, even at rest) lets a
/// concurrent dump_ring wait out in-flight writes; see Tracer::record.
struct Tracer::Stream {
  std::thread::id owner;
  std::vector<TraceEvent> events;
  std::uint64_t seq = 0;      ///< events recorded (owner thread only)
  int last_rank = -1;         ///< rank of the latest recorded event
  std::atomic<std::uint64_t> gen{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> wrapped{0};
};

namespace {

/// Thread-local stream cache, keyed by process-unique tracer id so a
/// destroyed tracer's slot can never alias a live one. Two entries cover the
/// common case (the global tracer plus one local tracer per thread).
struct StreamCacheEntry {
  std::uint64_t tracer_id = 0;
  Tracer::Stream* stream = nullptr;
};
thread_local StreamCacheEntry t_stream_cache[2];

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Tracer::Tracer(bool enabled) : Tracer(enabled, Options{}) {}

Tracer::Tracer(bool enabled, Options options)
    : id_(next_tracer_id()), epoch_(std::chrono::steady_clock::now()) {
  set_ring_capacity(options.ring_capacity);
  set_enabled(enabled);
}

Tracer::~Tracer() = default;

void Tracer::set_enabled(bool enabled) {
#ifdef NEURO_OBS_DISABLED
  (void)enabled;
#else
  enabled_.store(enabled, std::memory_order_relaxed);
#endif
}

Tracer::Stream* Tracer::stream_for_this_thread() {
  for (auto& entry : t_stream_cache) {
    if (entry.tracer_id == id_) return entry.stream;
  }
  base::MutexLock lock(streams_mutex_);
  const auto self = std::this_thread::get_id();
  Stream* stream = nullptr;
  for (const auto& s : streams_) {
    if (s->owner == self) {
      stream = s.get();
      break;
    }
  }
  if (stream == nullptr) {
    streams_.push_back(std::make_unique<Stream>());
    stream = streams_.back().get();
    stream->owner = self;
  }
  // Evict the stalest slot (round-robin is fine at two entries).
  static thread_local std::size_t next_slot = 0;
  t_stream_cache[next_slot % 2] = {id_, stream};
  ++next_slot;
  return stream;
}

void Tracer::record(TraceEvent event) {
  Stream* stream = stream_for_this_thread();
  const std::size_t ring = ring_capacity_.load(std::memory_order_relaxed);
  // Writers never block: mark the write in flight (gen goes odd), then check
  // for a concurrent dump. The seq_cst ordering on both sides makes this a
  // store-buffering handshake — either the dumper sees this stream's odd gen
  // and waits for it to go even again, or this writer sees dump_pending and
  // sheds the event without touching the ring. Either way the dumper never
  // copies a half-written ring slot.
  stream->gen.fetch_add(1, std::memory_order_seq_cst);
  if (dump_pending_.load(std::memory_order_seq_cst)) {
    stream->dropped.fetch_add(1, std::memory_order_relaxed);
    stream->gen.fetch_add(1, std::memory_order_release);
    return;
  }
  event.seq = stream->seq;
  stream->last_rank = event.rank;
  if (stream->events.size() < ring) {
    stream->events.push_back(std::move(event));
  } else {
    stream->events[stream->seq % ring] = std::move(event);
    stream->wrapped.fetch_add(1, std::memory_order_relaxed);
  }
  ++stream->seq;
  stream->gen.fetch_add(1, std::memory_order_release);
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.kind = TraceEvent::Kind::kCounter;
  event.ts_us = now_us();
  event.value = value;
  event.rank = t_thread_rank;
  record(std::move(event));
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t Tracer::event_count() const {
  base::MutexLock lock(streams_mutex_);
  std::size_t n = 0;
  for (const auto& s : streams_) n += s->events.size();
  return n;
}

std::size_t Tracer::dropped_count() const {
  base::MutexLock lock(streams_mutex_);
  std::size_t n = 0;
  for (const auto& s : streams_) {
    n += s->wrapped.load(std::memory_order_relaxed) +
         s->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

std::vector<TraceEvent> Tracer::snapshot() const { return dump_ring().events; }

void Tracer::write_chrome_trace(std::ostream& os) const {
  const RingDump dump = dump_ring();
  const std::vector<TraceEvent>& events = dump.events;
  // Per-rank loss: events overwritten by ring wrap plus events shed during a
  // dump, attributed to the rank each stream last recorded for. The streams
  // arrive sorted by rank.
  std::vector<std::pair<int, std::uint64_t>> lost_by_rank;
  for (const auto& s : dump.streams) {
    const std::uint64_t n = s.wrapped + s.dropped;
    if (n == 0) continue;
    if (!lost_by_rank.empty() && lost_by_rank.back().first == s.rank) {
      lost_by_rank.back().second += n;
    } else {
      lost_by_rank.emplace_back(s.rank, n);
    }
  }
  std::vector<int> ranks;
  for (const auto& e : events) {
    if (std::find(ranks.begin(), ranks.end(), e.rank) == ranks.end()) {
      ranks.push_back(e.rank);
    }
  }
  std::sort(ranks.begin(), ranks.end());

  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
     << R"("args":{"name":"neurofem"}})";
  for (const int rank : ranks) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid_of_rank(rank)
       << R"(,"name":"thread_name","args":{"name":")"
       << (rank < 0 ? std::string("main") : "rank " + std::to_string(rank))
       << "\"}}";
  }
  // One loss instant per affected rank, on that rank's own track, plus a
  // `C` counter series so viewers and check_trace.py can attribute loss to
  // the thread that suffered it.
  for (const auto& [rank, n] : lost_by_rank) {
    sep();
    os << R"({"ph":"I","pid":0,"tid":)" << tid_of_rank(rank)
       << R"(,"ts":0,"s":"t","name":"trace_truncated","args":{"dropped":)" << n
       << R"(,"rank":)" << rank << "}}";
    sep();
    os << R"({"ph":"C","pid":0,"tid":)" << tid_of_rank(rank)
       << R"(,"ts":0,"name":"trace_dropped","args":{"value":)" << n << "}}";
  }

  for (const auto& e : events) {
    sep();
    if (e.kind == TraceEvent::Kind::kSpan) {
      os << R"({"ph":"X","pid":0,"tid":)" << tid_of_rank(e.rank) << R"(,"ts":)";
      write_timestamp(os, e.ts_us);
      os << R"(,"dur":)";
      write_timestamp(os, e.dur_us);
      os << R"(,"name":)";
      write_json_string(os, e.name);
      if (!e.attrs.empty()) {
        os << R"(,"args":{)";
        for (std::size_t i = 0; i < e.attrs.size(); ++i) {
          if (i > 0) os << ',';
          write_json_string(os, e.attrs[i].key);
          os << ':';
          write_attr_value(os, e.attrs[i]);
        }
        os << '}';
      }
      os << '}';
    } else {
      os << R"({"ph":"C","pid":0,"tid":)" << tid_of_rank(e.rank) << R"(,"ts":)";
      write_timestamp(os, e.ts_us);
      os << R"(,"name":)";
      write_json_string(os, e.name);
      os << R"(,"args":{"value":)";
      detail::write_json_double(os, e.value);
      os << "}}";
    }
  }
  os << "\n]}\n";
}

void Tracer::clear() {
  base::MutexLock lock(streams_mutex_);
  for (auto& s : streams_) {
    s->events.clear();
    s->seq = 0;
    s->last_rank = -1;
    s->dropped.store(0, std::memory_order_relaxed);
    s->wrapped.store(0, std::memory_order_relaxed);
  }
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  NEURO_REQUIRE(capacity > 0, "Tracer: ring_capacity >= 1");
  clear();
  ring_capacity_.store(capacity, std::memory_order_relaxed);
}

Tracer::RingDump Tracer::dump_ring() const {
  RingDump dump;
  dump.ring_capacity = ring_capacity_.load(std::memory_order_relaxed);
  // Park concurrent writers: after this store, a writer either observes it
  // and sheds its event, or had already gone in-flight (odd gen) — the
  // per-stream wait below lets those retire. A stream observed even after
  // the store stays untouched until dump_pending_ clears.
  dump_pending_.store(true, std::memory_order_seq_cst);
  {
    base::MutexLock lock(streams_mutex_);
    for (const auto& s : streams_) {
      while ((s->gen.load(std::memory_order_seq_cst) & 1) != 0) {
        std::this_thread::yield();
      }
      if (s->seq == 0) continue;  // never recorded; keep dumps stable
      RingStreamStats stats;
      stats.rank = s->last_rank;
      stats.recorded = s->seq;
      stats.retained = s->events.size();
      stats.wrapped = s->wrapped.load(std::memory_order_relaxed);
      stats.dropped = s->dropped.load(std::memory_order_relaxed);
      dump.streams.push_back(stats);
      dump.events.insert(dump.events.end(), s->events.begin(),
                         s->events.end());
    }
  }
  dump_pending_.store(false, std::memory_order_seq_cst);
  std::sort(dump.streams.begin(), dump.streams.end(),
            [](const RingStreamStats& a, const RingStreamStats& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.recorded < b.recorded;
            });
  // Deterministic merge order regardless of stream registration order: by
  // rank track, then time; ties put the longer (enclosing) span first so
  // viewers nest complete events correctly.
  std::sort(dump.events.begin(), dump.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.name < b.name;
            });
  return dump;
}

// ---------------------------------------------------------------------------
// Globals and rank binding

namespace {

Tracer::Options global_tracer_options() {
  Tracer::Options options;
  // Arming the flight recorder via NEURO_POSTMORTEM_DIR gives the global
  // tracer the recorder's ring from construction, before any thread
  // records, so no quiescent reconfiguration is ever needed on the env path.
  if (postmortem_enabled_by_env()) {
    options.ring_capacity = FlightRecorder::Options{}.ring_capacity;
  }
  return options;
}

}  // namespace

Tracer& global() {
  static Tracer tracer(trace_enabled_by_env() || postmortem_enabled_by_env(),
                       global_tracer_options());
  return tracer;
}

bool trace_enabled_by_env() {
#ifdef NEURO_OBS_DISABLED
  return false;
#else
  const char* env = std::getenv("NEURO_TRACE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
#endif
}

ScopedThreadRank::ScopedThreadRank(int rank) : previous_(t_thread_rank) {
  t_thread_rank = rank;
}

ScopedThreadRank::~ScopedThreadRank() { t_thread_rank = previous_; }

int thread_rank() { return t_thread_rank; }

}  // namespace neuro::obs
