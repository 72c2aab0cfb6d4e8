// Edge cases of the simulated machine: asymmetric exchanges, empty
// payloads, repeated barriers, clock monotonicity, cpu scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "loggp/params.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"

namespace bsort::simd {
namespace {

using testing::swap_with;

TEST(MachineEdge, AsymmetricExchange) {
  // A ring: everyone sends only to (rank+1) % P and receives only from
  // (rank-1+P) % P — send and receive peer sets differ.
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    const auto next = static_cast<std::uint64_t>((p.rank() + 1) % P);
    const auto prev = static_cast<std::uint64_t>((p.rank() + P - 1) % P);
    const std::uint64_t send[1] = {next};
    const std::uint64_t recv[1] = {prev};
    const std::size_t sizes[1] = {1};
    p.open_exchange(send, sizes, recv);
    p.send_slot(0)[0] = static_cast<std::uint32_t>(p.rank() * 100);
    p.commit_exchange();
    ASSERT_EQ(p.recv_view_count(), 1u);
    ASSERT_EQ(p.recv_view(0).size(), 1u);
    EXPECT_EQ(p.recv_view(0)[0], static_cast<std::uint32_t>(prev * 100));
  });
}

TEST(MachineEdge, EmptySendStillReceives) {
  // Rank 0 broadcasts; everyone else sends nothing.
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      const std::uint64_t send[3] = {1, 2, 3};
      const std::size_t sizes[3] = {1, 1, 1};
      p.open_exchange(send, sizes, {});
      for (std::size_t i = 0; i < 3; ++i) p.send_slot(i)[0] = 7u;
      p.commit_exchange();
    } else {
      const std::uint64_t recv[1] = {0};
      p.open_exchange({}, {}, recv);
      p.commit_exchange();
      ASSERT_EQ(p.recv_view_count(), 1u);
      const auto got = p.recv_view(0);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                (std::vector<std::uint32_t>{7u}));
    }
  });
}

TEST(MachineEdge, ZeroElementExchangeChargesNothing) {
  Machine m(2, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    p.open_exchange({}, {}, {});
    p.commit_exchange();
  });
  for (const auto& ph : rep.proc_phases) {
    EXPECT_DOUBLE_EQ(ph.transfer(), 0.0);
  }
  EXPECT_EQ(rep.total_comm().elements_sent, 0u);
}

TEST(MachineEdge, ManyBarriersKeepClocksConsistent) {
  const int P = 8;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    for (int i = 0; i < 100; ++i) {
      p.charge(Phase::kCompute, p.rank() == i % P ? 1.0 : 0.0);
      p.barrier();
    }
  });
  // Exactly one VP charged 1us before each of the 100 barriers; after
  // max-sync all clocks agree at 100us.
  for (const double t : rep.proc_us) EXPECT_DOUBLE_EQ(t, 100.0);
}

TEST(MachineEdge, ClockIsMonotoneThroughExchanges) {
  Machine m(4, loggp::meiko_cs2(), MessageMode::kShort);
  m.run([&](Proc& p) {
    double last = p.clock_us();
    for (int round = 0; round < 5; ++round) {
      const std::uint64_t peers[1] = {static_cast<std::uint64_t>((p.rank() + 1) % 4)};
      const std::uint64_t from[1] = {static_cast<std::uint64_t>((p.rank() + 3) % 4)};
      const std::size_t sizes[1] = {10};
      p.open_exchange(peers, sizes, from);
      std::fill_n(p.send_slot(0).begin(), 10, 1u);
      p.commit_exchange();
      EXPECT_GE(p.clock_us(), last);
      last = p.clock_us();
    }
  });
}

TEST(MachineEdge, CpuScaleMultipliesCharges) {
  Machine m(1, loggp::meiko_cs2(), MessageMode::kLong, 50.0);
  auto rep = m.run([&](Proc& p) {
    p.timed(Phase::kCompute, [] {
      volatile double sink = 0;
      double acc = 0;
      for (int i = 0; i < 500000; ++i) acc += static_cast<double>(i);
      sink = acc;
      (void)sink;
    });
  });
  Machine m1(1, loggp::meiko_cs2(), MessageMode::kLong, 1.0);
  auto rep1 = m1.run([&](Proc& p) {
    p.timed(Phase::kCompute, [] {
      volatile double sink = 0;
      double acc = 0;
      for (int i = 0; i < 500000; ++i) acc += static_cast<double>(i);
      sink = acc;
      (void)sink;
    });
  });
  EXPECT_GT(rep.makespan_us, 5 * rep1.makespan_us);
}

TEST(MachineEdge, EmptyReportCriticalPhasesIsZero) {
  // Regression: critical_phases() on a default-constructed report used
  // to index max_element(proc_us) on an empty vector — UB.  It now
  // returns an all-zero breakdown, and total_comm() is well-defined.
  const RunReport rep;
  const auto& ph = rep.critical_phases();
  EXPECT_DOUBLE_EQ(ph.total(), 0.0);
  EXPECT_DOUBLE_EQ(ph.compute(), 0.0);
  EXPECT_DOUBLE_EQ(ph.transfer(), 0.0);
  const auto comm = rep.total_comm();
  EXPECT_EQ(comm.exchanges, 0u);
  EXPECT_EQ(comm.elements_sent, 0u);
  EXPECT_EQ(comm.messages_sent, 0u);
  EXPECT_DOUBLE_EQ(rep.makespan_us, 0.0);
}

TEST(MachineEdge, PooledExchangeDeliversViews) {
  // All-to-all through the arena: rank r sends (r+1) copies of r to
  // every peer, including itself; every view must match.
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    std::vector<std::uint64_t> peers(P);
    std::iota(peers.begin(), peers.end(), 0);
    std::vector<std::size_t> sizes(P, static_cast<std::size_t>(p.rank()) + 1);
    p.open_exchange(peers, sizes, peers);
    for (int d = 0; d < P; ++d) {
      auto slot = p.send_slot(static_cast<std::size_t>(d));
      std::fill(slot.begin(), slot.end(), static_cast<std::uint32_t>(p.rank()));
    }
    p.commit_exchange();
    ASSERT_EQ(p.recv_view_count(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      const auto v = p.recv_view(static_cast<std::size_t>(s));
      ASSERT_EQ(v.size(), static_cast<std::size_t>(s) + 1);
      for (const auto x : v) EXPECT_EQ(x, static_cast<std::uint32_t>(s));
    }
  });
}

TEST(MachineEdge, PooledViewsValidUntilNextOpen) {
  // Views point into the senders' arenas; they must survive until the
  // next open_exchange() (which drains readers before reusing arenas).
  const int P = 2;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    const std::uint64_t partner = static_cast<std::uint64_t>(1 - p.rank());
    std::span<const std::uint32_t> first;
    {
      const std::uint64_t peers[1] = {partner};
      const std::size_t sizes[1] = {4};
      p.open_exchange(peers, sizes, peers);
      auto slot = p.send_slot(0);
      std::fill(slot.begin(), slot.end(), static_cast<std::uint32_t>(p.rank() + 1));
      p.commit_exchange();
      first = p.recv_view(0);
    }
    // Unrelated barriers and charges do not invalidate the view.
    p.barrier();
    p.charge(Phase::kCompute, 1.0);
    p.barrier();
    ASSERT_EQ(first.size(), 4u);
    for (const auto x : first) {
      EXPECT_EQ(x, static_cast<std::uint32_t>(partner + 1));
    }
  });
}

TEST(MachineEdge, PooledZeroSizeSlotsChargeNothing) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    std::vector<std::uint64_t> peers(P);
    std::iota(peers.begin(), peers.end(), 0);
    const std::vector<std::size_t> sizes(P, 0);
    p.open_exchange(peers, sizes, peers);
    p.commit_exchange();
    for (int s = 0; s < P; ++s) {
      EXPECT_TRUE(p.recv_view(static_cast<std::size_t>(s)).empty());
    }
  });
  for (const auto& ph : rep.proc_phases) {
    EXPECT_DOUBLE_EQ(ph.transfer(), 0.0);
  }
  EXPECT_EQ(rep.total_comm().elements_sent, 0u);
}

TEST(MachineEdge, SequentialRunsReuseMachineState) {
  // Two runs on the same Machine must not leak mailbox state.
  Machine m(2, loggp::meiko_cs2(), MessageMode::kLong);
  for (int round = 0; round < 3; ++round) {
    m.run([&](Proc& p) {
      const std::uint32_t payload[1] = {static_cast<std::uint32_t>(round)};
      const auto got = swap_with(p, static_cast<std::uint64_t>(1 - p.rank()), payload);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], static_cast<std::uint32_t>(round));
    });
  }
}

}  // namespace
}  // namespace bsort::simd
