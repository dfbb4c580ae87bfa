// Unit tests for the in-process message-passing runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.h"
#include "par/communicator.h"

namespace neuro::par {
namespace {

TEST(RunSpmdTest, SingleRankRunsInline) {
  int calls = 0;
  run_spmd(1, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(RunSpmdTest, AllRanksRunExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_rank(8);
  run_spmd(8, [&](Communicator& comm) {
    ++calls;
    ++per_rank[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(calls.load(), 8);
  for (auto& c : per_rank) EXPECT_EQ(c.load(), 1);
}

TEST(RunSpmdTest, RejectsZeroRanks) {
  EXPECT_THROW(run_spmd(0, [](Communicator&) {}), CheckError);
}

TEST(RunSpmdTest, SingleRankExceptionPropagates) {
  EXPECT_THROW(
      run_spmd(1, [](Communicator&) { NEURO_CHECK_MSG(false, "boom"); }),
      CheckError);
}

TEST(BarrierTest, OrdersPhases) {
  // Every rank increments in phase 1; after the barrier all increments from
  // phase 1 must be visible to every rank.
  constexpr int P = 6;
  std::atomic<int> counter{0};
  run_spmd(P, [&](Communicator& comm) {
    ++counter;
    comm.barrier();
    EXPECT_EQ(counter.load(), P);
    comm.barrier();
    // Reusable across generations.
    ++counter;
    comm.barrier();
    EXPECT_EQ(counter.load(), 2 * P);
  });
}

TEST(BroadcastTest, RootDataReachesAll) {
  run_spmd(5, [](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 2) data = {10, 20, 30};
    comm.broadcast(data, 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[0], 10);
    EXPECT_EQ(data[2], 30);
  });
}

TEST(BroadcastTest, EmptyVectorBroadcasts) {
  run_spmd(3, [](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 0) data.clear();
    comm.broadcast(data, 0);
    EXPECT_TRUE(data.empty());
  });
}

TEST(AllreduceTest, SumMatchesFormulaOnEveryRank) {
  run_spmd(7, [](Communicator& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(total, 28.0);  // 1+2+...+7
  });
}

TEST(AllreduceTest, SumIsBitwiseIdenticalAcrossRanks) {
  // Irrational contributions: summation order matters in floating point, so
  // identical results on all ranks prove the reduction uses a fixed order.
  constexpr int P = 6;
  std::vector<double> results(P);
  run_spmd(P, [&](Communicator& comm) {
    const double mine = std::sqrt(2.0 + comm.rank()) * 1e-3;
    results[static_cast<std::size_t>(comm.rank())] = comm.allreduce_sum(mine);
  });
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(results[0], results[static_cast<std::size_t>(r)]);
  }
}

TEST(AllreduceTest, VectorSum) {
  run_spmd(4, [](Communicator& comm) {
    std::vector<double> v{static_cast<double>(comm.rank()), 1.0};
    comm.allreduce_sum(std::span<double>(v.data(), v.size()));
    EXPECT_DOUBLE_EQ(v[0], 6.0);  // 0+1+2+3
    EXPECT_DOUBLE_EQ(v[1], 4.0);
    // Past the communicator's 8 KB inline scratch, back inside it, then
    // past it again without growing the heap scratch.
    for (const std::int64_t n : {3000, 2, 1100}) {
      std::vector<std::int64_t> w(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        w[static_cast<std::size_t>(i)] = comm.rank() * 1000 + i;
      }
      comm.allreduce_sum(std::span<std::int64_t>(w));
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(w[static_cast<std::size_t>(i)], 6000 + 4 * i) << n << " " << i;
      }
    }
  });
}

TEST(AllreduceTest, MaxAndMin) {
  run_spmd(5, [](Communicator& comm) {
    EXPECT_EQ(comm.allreduce_max(comm.rank() * 10), 40);
    EXPECT_EQ(comm.allreduce_min(comm.rank() * 10), 0);
    EXPECT_DOUBLE_EQ(comm.allreduce_max(-1.0 * comm.rank()), 0.0);
  });
}

TEST(AllgatherTest, ConcatenatesInRankOrder) {
  run_spmd(4, [](Communicator& comm) {
    // Rank r contributes r copies of r (variable lengths).
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto all = comm.allgatherv(std::span<const int>(mine.data(), mine.size()));
    std::vector<int> expected;
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < r; ++i) expected.push_back(r);
    }
    EXPECT_EQ(all, expected);
  });
}

TEST(AllgatherTest, PartsKeepRankBoundaries) {
  run_spmd(3, [](Communicator& comm) {
    std::vector<double> mine{static_cast<double>(comm.rank())};
    const auto parts = comm.allgather_parts(std::span<const double>(mine.data(), 1));
    ASSERT_EQ(parts.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(parts[static_cast<std::size_t>(r)].size(), 1u);
      EXPECT_DOUBLE_EQ(parts[static_cast<std::size_t>(r)][0], r);
    }
  });
}

TEST(SendRecvTest, PairwiseExchange) {
  run_spmd(2, [](Communicator& comm) {
    const std::vector<int> mine{comm.rank() * 100, comm.rank() * 100 + 1};
    const int other = 1 - comm.rank();
    comm.send(other, 42, std::span<const int>(mine.data(), mine.size()));
    const auto got = comm.recv<int>(other, 42);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], other * 100);
  });
}

TEST(SendRecvTest, TagsAreIndependentChannels) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> a{1}, b{2};
      comm.send(1, 7, std::span<const int>(a.data(), 1));
      comm.send(1, 8, std::span<const int>(b.data(), 1));
    } else {
      // Receive in the opposite order of sending: tags must demultiplex.
      EXPECT_EQ(comm.recv<int>(0, 8).at(0), 2);
      EXPECT_EQ(comm.recv<int>(0, 7).at(0), 1);
    }
  });
}

TEST(SendRecvTest, MessagesOnSameTagStayOrdered) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::vector<int> msg{i};
        comm.send(1, 0, std::span<const int>(msg.data(), 1));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.recv<int>(0, 0).at(0), i);
      }
    }
  });
}

TEST(SendRecvTest, EmptyMessage) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, std::span<const double>());
    } else {
      EXPECT_TRUE(comm.recv<double>(0, 3).empty());
    }
  });
}

TEST(WorkCounterTest, AccumulatesAndTakes) {
  WorkCounter wc;
  wc.add_flops(10);
  wc.add_mem_bytes(100);
  wc.add_comm(64, 2);
  wc.add_collective(8);
  const WorkRecord r = wc.take();
  EXPECT_DOUBLE_EQ(r.flops, 10);
  EXPECT_DOUBLE_EQ(r.mem_bytes, 100);
  EXPECT_DOUBLE_EQ(r.comm_bytes, 64);
  EXPECT_DOUBLE_EQ(r.comm_msgs, 2);
  EXPECT_DOUBLE_EQ(r.coll_rounds, 1);
  EXPECT_DOUBLE_EQ(r.coll_bytes, 8);
  // take() resets.
  const WorkRecord r2 = wc.take();
  EXPECT_DOUBLE_EQ(r2.flops, 0);
}

TEST(WorkCounterTest, CommunicatorAccountsCollectives) {
  auto work = run_spmd(3, [](Communicator& comm) {
    comm.allreduce_sum(1.0);
    comm.barrier();
  });
  ASSERT_EQ(work.size(), 3u);
  for (const auto& w : work) {
    EXPECT_DOUBLE_EQ(w.coll_rounds, 2.0);  // allreduce + barrier
    EXPECT_DOUBLE_EQ(w.coll_bytes, 8.0);
  }
}

TEST(SendRecvTest, NonblockingExchangeOverlapsCompute) {
  auto work = run_spmd(2, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    const std::vector<double> payload{comm.rank() + 1.0, 7.0};
    // Post the receive, ship the halo, "compute", then complete.
    auto pending = comm.irecv(other, 42);
    comm.isend(other, 42, std::span<const double>(payload.data(), payload.size()));
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += i;
    const auto got = comm.wait<double>(pending);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], other + 1.0);
    EXPECT_DOUBLE_EQ(got[1], 7.0);
    EXPECT_DOUBLE_EQ(acc, 4950.0);
  });
  // Nonblocking traffic lands in the overlap counters, not the blocking ones:
  // the cost model may hide it behind compute.
  for (const auto& w : work) {
    EXPECT_DOUBLE_EQ(w.overlap_comm_bytes, 16.0);
    EXPECT_DOUBLE_EQ(w.overlap_comm_msgs, 1.0);
    EXPECT_DOUBLE_EQ(w.comm_bytes, 0.0);
    EXPECT_DOUBLE_EQ(w.comm_msgs, 0.0);
  }
}

TEST(SendRecvTest, WaitCompletesExactlyOnce) {
  run_spmd(2, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    const std::vector<int> payload{comm.rank()};
    auto pending = comm.irecv(other, 3);
    comm.isend(other, 3, std::span<const int>(payload.data(), payload.size()));
    ASSERT_EQ(comm.wait<int>(pending).size(), 1u);
    EXPECT_THROW(static_cast<void>(comm.wait<int>(pending)), CheckError);
  });
}

TEST(WorkCounterTest, SendAccountsBytes) {
  auto work = run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> msg(16);
      comm.send(1, 0, std::span<const double>(msg.data(), msg.size()));
    } else {
      comm.recv<double>(0, 0);
    }
  });
  EXPECT_DOUBLE_EQ(work[0].comm_bytes, 128.0);
  EXPECT_DOUBLE_EQ(work[0].comm_msgs, 1.0);
  EXPECT_DOUBLE_EQ(work[1].comm_bytes, 0.0);
}

TEST(PhaseWorkTest, RecordsAndRetrieves) {
  PhaseWork pw;
  pw.record("assemble", std::vector<WorkRecord>(4));
  EXPECT_TRUE(pw.has_phase("assemble"));
  EXPECT_FALSE(pw.has_phase("solve"));
  EXPECT_EQ(pw.phase("assemble").size(), 4u);
  EXPECT_THROW(static_cast<void>(pw.phase("solve")), CheckError);
}

TEST(PhaseWorkTest, NamesAndReportAreSortedRegardlessOfInsertion) {
  // Export determinism: the report must be a pure function of the recorded
  // data, not of insertion order — two runs that record phases in different
  // orders still produce byte-identical reports.
  PhaseWork a;
  a.record("solve", std::vector<WorkRecord>(2));
  a.record("assemble", std::vector<WorkRecord>(2));
  a.record("mesh", std::vector<WorkRecord>(1));
  PhaseWork b;
  b.record("mesh", std::vector<WorkRecord>(1));
  b.record("assemble", std::vector<WorkRecord>(2));
  b.record("solve", std::vector<WorkRecord>(2));

  const std::vector<std::string> expected{"assemble", "mesh", "solve"};
  EXPECT_EQ(a.names(), expected);
  EXPECT_EQ(b.names(), expected);

  std::ostringstream ra;
  std::ostringstream rb;
  a.write_report(ra);
  b.write_report(rb);
  const std::string report_a = ra.str();
  EXPECT_EQ(report_a, rb.str());
  // Header plus one CSV row per (phase, rank).
  EXPECT_NE(report_a.find(
                "phase,rank,flops,mem_bytes,comm_bytes,comm_msgs,coll_rounds"),
            std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(report_a.begin(), report_a.end(), '\n')),
            1 + 2 + 2 + 1);
}

class SpmdRankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmdRankCountTest, CollectivesConsistentAtAnyRankCount) {
  const int P = GetParam();
  run_spmd(P, [&](Communicator& comm) {
    const int sum = comm.allreduce_sum(comm.rank());
    EXPECT_EQ(sum, P * (P - 1) / 2);
    const auto all =
        comm.allgatherv(std::span<const int>(&sum, 1));
    EXPECT_EQ(static_cast<int>(all.size()), P);
  });
}

INSTANTIATE_TEST_SUITE_P(RankSweep, SpmdRankCountTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

}  // namespace
}  // namespace neuro::par
