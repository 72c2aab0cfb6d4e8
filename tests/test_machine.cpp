#include "simd/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "backend/backend.hpp"
#include "loggp/cost.hpp"
#include "loggp/params.hpp"
#include "test_helpers.hpp"

namespace bsort::simd {
namespace {

using testing::swap_with;

/// Tests asserting exact analytic charges pin the simulated backend:
/// under BSORT_BACKEND=native (the native CI leg) the transfer charge
/// is measured host time and the closed forms do not apply.
Machine sim_machine(int nprocs, loggp::Params params, MessageMode mode) {
  return Machine(nprocs, params, mode, 1.0, backend::make_simulated());
}

TEST(Machine, RunsAllProcs) {
  Machine m(8, loggp::meiko_cs2(), MessageMode::kLong);
  std::atomic<int> count{0};
  std::vector<int> ranks(8, -1);
  m.run([&](Proc& p) {
    ranks[static_cast<std::size_t>(p.rank())] = p.rank();
    ++count;
  });
  EXPECT_EQ(count.load(), 8);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(ranks[static_cast<std::size_t>(r)], r);
}

TEST(Machine, BarrierSyncsClocks) {
  Machine m(4, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    p.charge(Phase::kCompute, static_cast<double>(p.rank()) * 100.0);
    p.barrier();
    // After the barrier every clock equals the max charged (300us).
    EXPECT_DOUBLE_EQ(p.clock_us(), 300.0);
  });
  EXPECT_DOUBLE_EQ(rep.makespan_us, 300.0);
}

TEST(Machine, ExchangeDeliversPayloads) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    // Everyone sends its rank repeated (rank+1) times to every other
    // peer and stages nothing for itself.
    std::vector<std::uint64_t> peers(P);
    std::iota(peers.begin(), peers.end(), 0);
    std::vector<std::size_t> sizes(P, static_cast<std::size_t>(p.rank()) + 1);
    sizes[static_cast<std::size_t>(p.rank())] = 0;
    p.open_exchange(peers, sizes, peers);
    for (int d = 0; d < P; ++d) {
      auto slot = p.send_slot(static_cast<std::size_t>(d));
      std::fill(slot.begin(), slot.end(), static_cast<std::uint32_t>(p.rank()));
    }
    p.commit_exchange();
    EXPECT_TRUE(p.recv_view(static_cast<std::size_t>(p.rank())).empty());
    for (int s = 0; s < P; ++s) {
      if (s == p.rank()) continue;
      const auto rec = p.recv_view(static_cast<std::size_t>(s));
      ASSERT_EQ(rec.size(), static_cast<std::size_t>(s) + 1);
      for (const auto v : rec) {
        EXPECT_EQ(v, static_cast<std::uint32_t>(s));
      }
    }
  });
}

TEST(Machine, ExchangeWithPartner) {
  Machine m(2, loggp::meiko_cs2(), MessageMode::kLong);
  m.run([&](Proc& p) {
    const std::uint32_t payload[1] = {static_cast<std::uint32_t>(p.rank() + 10)};
    const auto got = swap_with(p, static_cast<std::uint64_t>(1 - p.rank()), payload);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<std::uint32_t>((1 - p.rank()) + 10));
  });
}

TEST(Machine, LongModeChargesLogGPFormula) {
  const auto params = loggp::meiko_cs2();
  Machine m = sim_machine(2, params, MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    const std::vector<std::uint32_t> payload(100, 1);
    swap_with(p, static_cast<std::uint64_t>(1 - p.rank()), payload);
  });
  const double expected = loggp::remap_time_long(params, 100, 1, 4);
  for (const auto& ph : rep.proc_phases) {
    EXPECT_NEAR(ph.transfer(), expected, 1e-9);
  }
  const auto comm = rep.total_comm();
  EXPECT_EQ(comm.exchanges, 1u);
  EXPECT_EQ(comm.elements_sent, 200u);
  EXPECT_EQ(comm.messages_sent, 2u);
}

TEST(Machine, ShortModeChargesPerElement) {
  const auto params = loggp::meiko_cs2();
  Machine m = sim_machine(2, params, MessageMode::kShort);
  auto rep = m.run([&](Proc& p) {
    const std::vector<std::uint32_t> payload(50, 1);
    swap_with(p, static_cast<std::uint64_t>(1 - p.rank()), payload);
  });
  const double expected = loggp::remap_time_short(params, 50);
  for (const auto& ph : rep.proc_phases) {
    EXPECT_NEAR(ph.transfer(), expected, 1e-9);
  }
  EXPECT_EQ(rep.total_comm().messages_sent, 100u);  // one message per key
}

TEST(Machine, TimedChargesCpuTime) {
  Machine m(2, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    volatile double sink = 0;
    p.timed(Phase::kCompute, [&] {
      double acc = 0;
      for (int i = 0; i < 2000000; ++i) acc += static_cast<double>(i);
      sink = acc;
    });
  });
  for (const auto& ph : rep.proc_phases) {
    EXPECT_GT(ph.compute(), 0.0);
    EXPECT_DOUBLE_EQ(ph.pack(), 0.0);
  }
}

TEST(Machine, SingleProcNoDeadlock) {
  Machine m(1, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    p.barrier();
    p.barrier();
    p.charge(Phase::kCompute, 5.0);
  });
  EXPECT_DOUBLE_EQ(rep.makespan_us, 5.0);
}

TEST(Machine, ReportCriticalPhases) {
  Machine m(3, loggp::meiko_cs2(), MessageMode::kLong);
  auto rep = m.run([&](Proc& p) {
    p.charge(Phase::kCompute, p.rank() == 2 ? 99.0 : 1.0);
  });
  EXPECT_DOUBLE_EQ(rep.makespan_us, 99.0);
  EXPECT_DOUBLE_EQ(rep.critical_phases().compute(), 99.0);
}

TEST(Machine, ExceptionPropagates) {
  Machine m(1, loggp::meiko_cs2(), MessageMode::kLong);
  EXPECT_THROW(m.run([&](Proc&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(Machine, ThrowingVpPoisonsBarrier) {
  // Regression: a VP that throws before reaching a barrier used to leave
  // its peers blocked in pthread_cond_wait forever.  The poisoned
  // barrier must unwind every waiter and run() must rethrow.
  const int P = 8;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  EXPECT_THROW(m.run([&](Proc& p) {
                 if (p.rank() == 3) throw std::runtime_error("vp 3 died");
                 p.barrier();
                 p.barrier();  // never completes; poison unwinds us here
               }),
               std::runtime_error);
}

TEST(Machine, ThrowingVpUnwindsPeersInsideExchange) {
  // Same, with the survivors parked inside the exchange protocol rather
  // than a plain barrier.
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  EXPECT_THROW(m.run([&](Proc& p) {
                 if (p.rank() == 0) throw std::runtime_error("early exit");
                 const auto partner = static_cast<std::uint64_t>(p.rank() ^ 1);
                 const std::uint32_t payload[3] = {1u, 2u, 3u};
                 swap_with(p, partner, payload);
               }),
               std::runtime_error);
}

TEST(Machine, MachineUsableAfterThrow) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(m.run([&](Proc& p) {
                   if (p.rank() == round) throw std::runtime_error("boom");
                   p.barrier();
                 }),
                 std::runtime_error);
    // The poisoned barrier must be fully reset: a healthy run on the
    // same Machine still exchanges and reports correctly.
    auto rep = m.run([&](Proc& p) {
      const std::uint32_t payload[1] = {static_cast<std::uint32_t>(p.rank())};
      const auto got = swap_with(p, static_cast<std::uint64_t>(p.rank() ^ 1), payload);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], static_cast<std::uint32_t>(p.rank() ^ 1));
    });
    EXPECT_EQ(rep.proc_us.size(), static_cast<std::size_t>(P));
  }
}

}  // namespace
}  // namespace bsort::simd
