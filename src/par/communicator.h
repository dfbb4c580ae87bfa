// In-process message-passing runtime.
//
// Ranks are threads; a Communicator gives each rank an MPI-like interface:
// barrier, broadcast, reductions, gathers, and point-to-point send/recv.
// All parallel algorithms in this library are written SPMD against this
// interface and never share mutable state outside it, so the decomposition is
// honest — the same code would port to MPI mechanically (DESIGN.md §6).
//
// Every operation is accounted in the rank's WorkCounter so the perf module
// can apply a network cost model (Fast Ethernet vs. SMP bus) to the run.
//
// Debug builds can additionally cross-check that every rank issues the same
// sequence of collectives (see par/verify.h): with verification on, a
// diverging rank produces a per-rank report and a CollectiveMismatchError on
// all ranks instead of a deadlock or silent slot corruption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "base/check.h"
#include "base/mutex.h"
#include "base/strong_id.h"
#include "base/thread_annotations.h"
#include "obs/trace.h"
#include "par/fault_inject.h"
#include "par/verify.h"
#include "par/work_counter.h"

namespace neuro::par {

class Communicator;

namespace detail {

/// State shared by all ranks of one parallel run.
class Team {
 public:
  explicit Team(int size, bool verify = verify_enabled_by_default(),
                FaultConfig fault = fault_config_from_env());

  int size() const { return size_; }
  bool verify() const { return verify_; }

  /// Sense-reversing central barrier. With verification on, `op` (when
  /// non-null) is this rank's claim about which collective the barrier
  /// belongs to; the last rank to arrive cross-checks all claims and fails
  /// the whole team on a mismatch.
  void barrier(int rank, const CollectiveOp* op = nullptr)
      NEURO_EXCLUDES(barrier_mutex_);

  /// Publish this rank's contribution for a collective and wait until all
  /// ranks have published; afterwards slots() may be read by everyone until
  /// the matching release().
  void publish(int rank, const void* data, std::size_t bytes,
               const CollectiveOp* op = nullptr) NEURO_EXCLUDES(barrier_mutex_);
  struct Slot {
    const void* data = nullptr;
    std::size_t bytes = 0;
  };
  const Slot& slot(int rank) const { return slots_[static_cast<std::size_t>(rank)]; }
  /// Second barrier: all ranks done reading; slots may be reused.
  void release(int rank) NEURO_EXCLUDES(barrier_mutex_);

  /// Point-to-point mailbox keyed by (src, dst, tag). Both directions pass
  /// through the fault injector when one is configured; recv waits are
  /// bounded (fault-config override, else NEURO_COMM_TIMEOUT_MS, default
  /// 30 s) and surface CommFaultError instead of deadlocking on a message
  /// that was dropped or whose sender exited.
  void send_bytes(int src, int dst, int tag, const void* data, std::size_t bytes);
  std::vector<std::byte> recv_bytes(int src, int dst, int tag)
      NEURO_EXCLUDES(barrier_mutex_);

  /// Records a send/recv in the rank's history (verification only) so
  /// divergence reports show recent point-to-point traffic. Throws if the
  /// team has already failed verification.
  void note_p2p(int rank, const CollectiveOp& op)
      NEURO_EXCLUDES(barrier_mutex_);

  /// Called by run_spmd when a rank leaves the body (normally or by
  /// exception; `failed` marks the exception case). A rank exiting while
  /// others wait at a collective is a guaranteed deadlock and fails the team
  /// immediately — as a CollectiveMismatchError report under verification,
  /// as a CommFaultError otherwise. A failed exit faults the team either way
  /// so blocked ranks unwind promptly instead of waiting out their timeouts.
  void rank_exited(int rank, bool failed = false)
      NEURO_EXCLUDES(barrier_mutex_);

 private:
  /// Ring buffer of a rank's recent operations, for divergence reports.
  struct RankHistory {
    static constexpr std::size_t kDepth = 8;
    CollectiveOp ops[kDepth];
    std::uint64_t count = 0;
    void push(const CollectiveOp& op) { ops[count++ % kDepth] = op; }
  };

  struct Mailbox {
    base::Mutex mutex;
    base::CondVar cv;
    std::map<std::pair<int, int>, std::deque<std::vector<std::byte>>> queues
        NEURO_GUARDED_BY(mutex);
  };

  // All verification state below is guarded by barrier_mutex_; the barrier is
  // the natural serialization point and verification is a debug mode, so the
  // extra time under the lock is acceptable there. The _locked helpers carry
  // NEURO_REQUIRES so calling one without the lock is a compile error under
  // Clang's thread-safety analysis.
  void push_history_locked(int rank, const CollectiveOp& op)
      NEURO_REQUIRES(barrier_mutex_);
  void check_pending_locked() NEURO_REQUIRES(barrier_mutex_);
  [[noreturn]] void fail_locked(const std::string& headline)
      NEURO_REQUIRES(barrier_mutex_);
  std::string describe_ranks_locked() const NEURO_REQUIRES(barrier_mutex_);
  /// Non-verify failure path: marks the team faulted (kCommFault) and wakes
  /// every blocked rank so the fault propagates instead of deadlocking.
  void declare_comm_fault_locked(const std::string& reason)
      NEURO_REQUIRES(barrier_mutex_);
  /// True when `box` holds a deliverable message for (src, tag) = `key`.
  static bool has_message_locked(const Mailbox& box,
                                 const std::pair<int, int>& key)
      NEURO_REQUIRES(box.mutex);
  /// The effective bounded-recv wait for this team.
  [[nodiscard]] double recv_timeout_ms() const;

  int size_;
  bool verify_;

  // Lock order: a Mailbox mutex may be held when barrier_mutex_ is acquired
  // (recv polling checks team state); never the other way around.
  base::Mutex barrier_mutex_;
  base::CondVar barrier_cv_;
  int barrier_count_ NEURO_GUARDED_BY(barrier_mutex_) = 0;
  bool barrier_sense_ NEURO_GUARDED_BY(barrier_mutex_) = false;

  // Rank-exit bookkeeping (always on: recv's early-exit detection needs it).
  std::vector<bool> exited_ NEURO_GUARDED_BY(barrier_mutex_);
  int exited_count_ NEURO_GUARDED_BY(barrier_mutex_) = 0;

  // Non-verify fault state: set once, after which every collective entry and
  // recv poll throws CommFaultError carrying the report.
  bool comm_fault_ NEURO_GUARDED_BY(barrier_mutex_) = false;
  std::string comm_fault_report_ NEURO_GUARDED_BY(barrier_mutex_);

  // Verification state (unused, and never touched, when verify_ is false).
  std::vector<CollectiveOp> pending_ NEURO_GUARDED_BY(barrier_mutex_);
  std::vector<bool> pending_valid_ NEURO_GUARDED_BY(barrier_mutex_);
  std::vector<RankHistory> history_ NEURO_GUARDED_BY(barrier_mutex_);
  bool failed_ NEURO_GUARDED_BY(barrier_mutex_) = false;
  std::string report_ NEURO_GUARDED_BY(barrier_mutex_);

  // Fault injection. Annotation-exempt: set once in the constructor, const
  // thereafter; the injector is internally synchronized (par/fault_inject.h).
  std::unique_ptr<FaultInjector> injector_;

  // Annotation-exempt by design: a rank's slot is written only between that
  // rank's publish() and the matching release() barriers, and read by others
  // only inside that window — the sense-reversing barrier provides both the
  // exclusion and the happens-before edges (docs/parallel_model.md). A mutex
  // here would serialize the very protocol that makes collectives scale.
  std::vector<Slot> slots_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // indexed by dst
};

}  // namespace detail

/// Per-rank handle to the team. All methods must be called collectively by
/// every rank of the team (except send/recv, which are matched pairwise).
class Communicator {
 public:
  Communicator(int rank, detail::Team* team)
      : rank_(rank), team_(team), verify_(team->verify()) {}

  [[nodiscard]] int rank() const { return rank_; }
  /// This rank as a strong id (the mesh partition and the solver exchange
  /// plans are indexed by Rank).
  [[nodiscard]] Rank rank_id() const { return Rank{rank_}; }
  [[nodiscard]] int size() const { return team_->size(); }

  WorkCounter& work() { return work_; }
  [[nodiscard]] const WorkCounter& work() const { return work_; }

  void barrier() {
    work_.add_collective(0.0);
    if (verify_) [[unlikely]] {
      const CollectiveOp op = next_op(OpKind::kBarrier, 0);
      team_->barrier(rank_, &op);
    } else {
      team_->barrier(rank_);
    }
  }

  /// Broadcasts `data` (resized on non-roots) from `root` to all ranks.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t count = data.size();
    // Size exchange + payload: one collective round for accounting purposes.
    publish(OpKind::kBroadcast, rank_ == root ? &count : nullptr,
            rank_ == root ? sizeof(count) : 0, root);
    if (rank_ != root) {
      count = *static_cast<const std::uint64_t*>(team_->slot(root).data);
      data.resize(count);
    }
    team_->release(rank_);
    publish(OpKind::kBroadcast,
            rank_ == root ? static_cast<const void*>(data.data()) : nullptr,
            rank_ == root ? count * sizeof(T) : 0, root);
    if (rank_ != root && count > 0) {
      std::memcpy(data.data(), team_->slot(root).data, count * sizeof(T));
    }
    team_->release(rank_);
    work_.add_collective(static_cast<double>(count * sizeof(T)));
  }

  /// Element-wise sum-allreduce over fixed-size vectors (same size on all
  /// ranks). Reduction is performed in rank order on every rank, so the
  /// result is identical everywhere and across runs.
  template <typename T>
  void allreduce_sum(std::span<T> inout) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    // Publish a copy, since inout is overwritten while the other ranks still
    // read it. The copy lives in this communicator's scratch, reused across
    // calls: release() is a barrier, so every rank has finished reading it
    // before this rank's next collective writes it again.
    const std::size_t bytes = inout.size_bytes();
    std::byte* copy = reduce_scratch(bytes);
    if (bytes > 0) std::memcpy(copy, inout.data(), bytes);
    publish(OpKind::kAllreduceSum, copy, bytes);
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] = T{};
    for (int r = 0; r < size(); ++r) {
      const auto* src = static_cast<const T*>(team_->slot(r).data);
      NEURO_CHECK(team_->slot(r).bytes == bytes);
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += src[i];
    }
    team_->release(rank_);
    work_.add_collective(static_cast<double>(bytes));
  }

  /// Scalar sum-allreduce.
  template <typename T>
  T allreduce_sum(T value) {
    allreduce_sum(std::span<T>(&value, 1));
    return value;
  }

  /// Scalar max-allreduce.
  template <typename T>
  T allreduce_max(T value) {
    T local = value;
    publish(OpKind::kAllreduceMax, &local, sizeof(T));
    T result = local;
    for (int r = 0; r < size(); ++r) {
      const T v = *static_cast<const T*>(team_->slot(r).data);
      if (v > result) result = v;
    }
    team_->release(rank_);
    work_.add_collective(sizeof(T));
    return result;
  }

  /// Scalar min-allreduce.
  template <typename T>
  T allreduce_min(T value) {
    T local = value;
    publish(OpKind::kAllreduceMin, &local, sizeof(T));
    T result = local;
    for (int r = 0; r < size(); ++r) {
      const T v = *static_cast<const T*>(team_->slot(r).data);
      if (v < result) result = v;
    }
    team_->release(rank_);
    work_.add_collective(sizeof(T));
    return result;
  }

  /// Gathers variable-length contributions from all ranks, concatenated in
  /// rank order. Every rank receives the full result.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> copy(local.begin(), local.end());
    publish(OpKind::kAllgatherv, copy.data(), copy.size() * sizeof(T));
    std::vector<T> result;
    for (int r = 0; r < size(); ++r) {
      const auto& s = team_->slot(r);
      const auto* src = static_cast<const T*>(s.data);
      result.insert(result.end(), src, src + s.bytes / sizeof(T));
    }
    team_->release(rank_);
    work_.add_collective(static_cast<double>(copy.size() * sizeof(T)));
    return result;
  }

  /// Per-rank variant of allgatherv that keeps rank boundaries.
  template <typename T>
  std::vector<std::vector<T>> allgather_parts(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> copy(local.begin(), local.end());
    publish(OpKind::kAllgatherParts, copy.data(), copy.size() * sizeof(T));
    std::vector<std::vector<T>> result(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      const auto& s = team_->slot(r);
      const auto* src = static_cast<const T*>(s.data);
      result[static_cast<std::size_t>(r)].assign(src, src + s.bytes / sizeof(T));
    }
    team_->release(rank_);
    work_.add_collective(static_cast<double>(copy.size() * sizeof(T)));
    return result;
  }

  /// Blocking point-to-point send. Matched by recv() on `dst` with the same tag.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    NEURO_REQUIRE(dst >= 0 && dst < size(), "send: bad destination rank " << dst);
    obs::Span span = obs::global_span("comm.send");
    if (span.active()) [[unlikely]] {
      span.attr("dst", dst);
      span.attr("tag", tag);
      span.attr("bytes", static_cast<std::int64_t>(data.size() * sizeof(T)));
    }
    if (verify_) [[unlikely]] {
      team_->note_p2p(rank_, next_op(OpKind::kSend, data.size() * sizeof(T), dst, tag));
    }
    team_->send_bytes(rank_, dst, tag, data.data(), data.size() * sizeof(T));
    work_.add_comm(static_cast<double>(data.size() * sizeof(T)));
  }

  /// Typed-rank overload.
  template <typename T>
  void send(Rank dst, int tag, std::span<const T> data) {
    send(dst.value(), tag, data);
  }

  /// Blocking point-to-point receive from `src` with `tag`.
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    NEURO_REQUIRE(src >= 0 && src < size(), "recv: bad source rank " << src);
    obs::Span span = obs::global_span("comm.recv");
    if (span.active()) [[unlikely]] {
      span.attr("src", src);
      span.attr("tag", tag);
    }
    if (verify_) [[unlikely]] {
      team_->note_p2p(rank_, next_op(OpKind::kRecv, 0, src, tag));
    }
    std::vector<std::byte> bytes = team_->recv_bytes(src, rank_, tag);
    if (span.active()) [[unlikely]] {
      span.attr("bytes", static_cast<std::int64_t>(bytes.size()));
    }
    NEURO_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    }
    return out;
  }

  /// Typed-rank overload.
  template <typename T>
  std::vector<T> recv(Rank src, int tag) {
    return recv<T>(src.value(), tag);
  }

  /// Handle for a nonblocking receive posted with irecv(); complete it with
  /// wait(). Handles must not outlive the Communicator that issued them.
  struct PendingRecv {
    int src = -1;
    int tag = -1;
    bool completed = false;
  };

  /// Nonblocking point-to-point send. The mailbox runtime buffers eagerly, so
  /// the payload is enqueued (through the fault injector, like send()) and the
  /// call returns immediately; there is no send-side wait. Accounted as
  /// overlappable traffic so the cost model can hide it behind compute.
  template <typename T>
  void isend(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    NEURO_REQUIRE(dst >= 0 && dst < size(), "isend: bad destination rank " << dst);
    obs::Span span = obs::global_span("comm.isend");
    if (span.active()) [[unlikely]] {
      span.attr("dst", dst);
      span.attr("tag", tag);
      span.attr("bytes", static_cast<std::int64_t>(data.size() * sizeof(T)));
    }
    if (verify_) [[unlikely]] {
      team_->note_p2p(rank_, next_op(OpKind::kIsend, data.size() * sizeof(T), dst, tag));
    }
    team_->send_bytes(rank_, dst, tag, data.data(), data.size() * sizeof(T));
    work_.add_comm_overlapped(static_cast<double>(data.size() * sizeof(T)));
  }

  /// Typed-rank overload.
  template <typename T>
  void isend(Rank dst, int tag, std::span<const T> data) {
    isend(dst.value(), tag, data);
  }

  /// Posts a nonblocking receive from `src` with `tag`. The message is not
  /// consumed until the matching wait(); posting records the operation (for
  /// verifier divergence reports) and lets the caller compute while the
  /// sender's payload is in flight.
  [[nodiscard]] PendingRecv irecv(int src, int tag) {
    NEURO_REQUIRE(src >= 0 && src < size(), "irecv: bad source rank " << src);
    obs::Span span = obs::global_span("comm.irecv");
    if (span.active()) [[unlikely]] {
      span.attr("src", src);
      span.attr("tag", tag);
    }
    if (verify_) [[unlikely]] {
      team_->note_p2p(rank_, next_op(OpKind::kIrecv, 0, src, tag));
    }
    return PendingRecv{src, tag, false};
  }

  /// Typed-rank overload.
  [[nodiscard]] PendingRecv irecv(Rank src, int tag) {
    return irecv(src.value(), tag);
  }

  /// Completes a posted irecv and returns its payload. Blocks (bounded, fault
  /// aware — see Team::recv_bytes) only if the message has not yet arrived.
  template <typename T>
  std::vector<T> wait(PendingRecv& pending) {
    static_assert(std::is_trivially_copyable_v<T>);
    NEURO_REQUIRE(!pending.completed, "wait: receive already completed");
    obs::Span span = obs::global_span("comm.wait");
    if (span.active()) [[unlikely]] {
      span.attr("src", pending.src);
      span.attr("tag", pending.tag);
    }
    std::vector<std::byte> bytes = team_->recv_bytes(pending.src, rank_, pending.tag);
    pending.completed = true;
    if (span.active()) [[unlikely]] {
      span.attr("bytes", static_cast<std::int64_t>(bytes.size()));
    }
    NEURO_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    }
    return out;
  }

 private:
  // Collectives and point-to-point ops are numbered independently: every rank
  // performs the same collectives (that is what the verifier checks), but
  // send/recv counts legitimately differ between ranks and must not shift the
  // collective sequence numbers being compared.
  CollectiveOp next_op(OpKind kind, std::uint64_t bytes, int root = -1,
                       int tag = -1) {
    const bool p2p = kind == OpKind::kSend || kind == OpKind::kRecv ||
                     kind == OpKind::kIsend || kind == OpKind::kIrecv;
    return CollectiveOp{kind, p2p ? p2p_seq_++ : seq_++, root, tag, bytes};
  }

  void publish(OpKind kind, const void* data, std::size_t bytes, int root = -1) {
    if (verify_) [[unlikely]] {
      const CollectiveOp op = next_op(kind, bytes, root);
      team_->publish(rank_, data, bytes, &op);
    } else {
      team_->publish(rank_, data, bytes);
    }
  }

  /// allreduce_sum's scratch for `bytes`: the inline buffer, which holds the
  /// solver's reductions and a 32-bin MI histogram, or a heap buffer kept
  /// for larger spans. The inline buffer lives on the rank thread's stack,
  /// so those reductions leave the heap and its layout untouched.
  std::byte* reduce_scratch(std::size_t bytes) {
    if (bytes <= sizeof(reduce_inline_)) return reduce_inline_;
    if (reduce_heap_.size() < bytes) reduce_heap_.resize(bytes);
    return reduce_heap_.data();
  }

  int rank_;
  detail::Team* team_;
  bool verify_;
  std::uint64_t seq_ = 0;
  std::uint64_t p2p_seq_ = 0;
  WorkCounter work_;
  alignas(64) std::byte reduce_inline_[8192];
  std::vector<std::byte> reduce_heap_;
};

/// Half-open index range [begin, end).
struct BlockRange {
  int begin = 0;
  int end = 0;
};

/// The contiguous block of `n` items that `rank` of `nranks` owns: equal
/// blocks in rank order, the remainder spread one each over the first ranks.
inline BlockRange block_range(int n, int rank, int nranks) {
  const int base = n / nranks;
  const int extra = n % nranks;
  const int begin = rank * base + (rank < extra ? rank : extra);
  return {begin, begin + base + (rank < extra ? 1 : 0)};
}

/// This rank's block of `n` items in a call that takes an optional
/// communicator: all of them when `comm` is null (the serial call).
inline BlockRange block_range(int n, const Communicator* comm) {
  return comm != nullptr ? block_range(n, comm->rank(), comm->size()) : BlockRange{0, n};
}

/// A barrier when `comm` is non-null; nothing in the serial call.
inline void barrier(Communicator* comm) {
  if (comm != nullptr) comm->barrier();
}

/// Options for run_spmd.
struct SpmdOptions {
  /// Collective-order verification (par/verify.h). kAuto follows the
  /// NEURO_PAR_VERIFY compile definition / environment variable.
  enum class Verify : std::uint8_t { kAuto, kOff, kOn };
  Verify verify = Verify::kAuto;
  /// Seeded fault campaign for this run (par/fault_inject.h). Inactive by
  /// default, in which case the environment campaign (if any) applies.
  FaultConfig fault;
};

/// Runs `body(comm)` on `nranks` threads. Rethrows the first exception thrown
/// by any rank after all threads have joined (preferring application errors
/// over secondary verifier reports). Returns the per-rank work accumulated
/// over the whole run (whatever was not take()n inside the body).
std::vector<WorkRecord> run_spmd(int nranks,
                                 const std::function<void(Communicator&)>& body,
                                 const SpmdOptions& options);
std::vector<WorkRecord> run_spmd(int nranks,
                                 const std::function<void(Communicator&)>& body);

}  // namespace neuro::par
