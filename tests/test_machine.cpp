#include "simd/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <thread>

#include "backend/backend.hpp"
#include "fault/error.hpp"
#include "loggp/cost.hpp"
#include "loggp/params.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

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

// ---- run_inline: a barrier-free program on the calling thread -------

/// A local program: each rank sorts its own block of `keys` under a
/// timed compute section and records which thread ran it.
std::function<void(Proc&)> block_sort(std::vector<std::uint32_t>& keys,
                                      std::vector<std::thread::id>& ran_on) {
  return [&keys, &ran_on](Proc& p) {
    const std::size_t n = keys.size() / static_cast<std::size_t>(p.nprocs());
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(n) * p.rank();
    p.timed(Phase::kCompute, [&] { std::sort(first, first + static_cast<std::ptrdiff_t>(n)); });
    ran_on[static_cast<std::size_t>(p.rank())] = std::this_thread::get_id();
  };
}

TEST(MachineInline, RunsEveryRankOnTheCallerWithRunsReportAndRings) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.enable_profiling(64);
  auto vp_keys = util::generate_keys(1024, util::KeyDistribution::kUniform31, 3);
  auto inline_keys = vp_keys;
  std::vector<std::thread::id> vp_threads(P), inline_threads(P);
  const auto on_vps = m.run(block_sort(vp_keys, vp_threads));
  const auto inline_rep = m.run_inline(block_sort(inline_keys, inline_threads));

  EXPECT_EQ(inline_keys, vp_keys);
  for (int r = 0; r < P; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(inline_threads[i], std::this_thread::get_id()) << "rank " << r;
    EXPECT_NE(vp_threads[i], std::this_thread::get_id()) << "rank " << r;
    // Same report shape; each rank charged its own work, into its own ring.
    EXPECT_GT(inline_rep.proc_phases[i].compute(), 0.0);
    EXPECT_DOUBLE_EQ(inline_rep.proc_us[i], inline_rep.proc_phases[i].compute());
    EXPECT_EQ(inline_rep.proc_comm[i].exchanges, 0u);
    EXPECT_EQ(m.vp_spans(r).size(), 1u) << "rank " << r;
    EXPECT_EQ(m.vp_metrics(r).span_count[static_cast<std::size_t>(obs::SpanKind::kCompute)], 1u);
  }
  EXPECT_EQ(inline_rep.proc_us.size(), on_vps.proc_us.size());
  EXPECT_GT(inline_rep.makespan_us, 0.0);
  EXPECT_GT(inline_rep.wall_seconds, 0.0);
  EXPECT_TRUE(inline_rep.obs.enabled);
}

TEST(MachineInline, CollectiveCallsThrowConfigErrorAndMachineStaysUsable) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  const std::uint64_t peers[1] = {0};
  const std::size_t sizes[1] = {1};
  const std::vector<std::function<void(Proc&)>> collectives = {
      [](Proc& p) { p.barrier(); },
      [&](Proc& p) { p.open_exchange(peers, sizes, peers); },
      [](Proc& p) { p.commit_exchange(); },
  };
  for (const auto& collective : collectives) {
    std::atomic<int> ran{0};
    try {
      m.run_inline([&](Proc& p) {
        ++ran;
        collective(p);
      });
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.rank(), 0) << "the lowest failing rank's error is rethrown";
      EXPECT_NE(std::string(e.what()).find("run_inline"), std::string::npos) << e.what();
    }
    EXPECT_EQ(ran.load(), P) << "every rank runs, as on the VPs";
    // Both entries still work on the same machine.
    const auto rep = m.run([](Proc& p) {
      const std::uint32_t payload[1] = {static_cast<std::uint32_t>(p.rank())};
      const auto got = swap_with(p, static_cast<std::uint64_t>(p.rank() ^ 1), payload);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], static_cast<std::uint32_t>(p.rank() ^ 1));
    });
    EXPECT_EQ(rep.total_comm().exchanges, 1u);
    EXPECT_NO_THROW(m.run_inline([](Proc& p) { p.charge(Phase::kCompute, 1.0); }));
  }
}

TEST(MachineInline, OverrunningTheWatchdogThrowsBarrierTimeout) {
  const int P = 4;
  Machine m(P, loggp::meiko_cs2(), MessageMode::kLong);
  m.set_watchdog(1e-9);
  try {
    m.run_inline([](Proc& p) { p.charge(Phase::kCompute, 1.0); });
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    ASSERT_EQ(e.states().size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(e.states()[static_cast<std::size_t>(r)].rank, r);
      EXPECT_STREQ(e.states()[static_cast<std::size_t>(r)].where, "done");
    }
  }
  m.set_watchdog(0);
  EXPECT_DOUBLE_EQ(m.run_inline([](Proc& p) { p.charge(Phase::kCompute, 2.0); }).makespan_us,
                   2.0);
}

TEST(MachineInline, HandoffIsMeasuredOnBarrierFreeRunsOnly) {
  Machine m(4, loggp::meiko_cs2(), MessageMode::kLong);
  EXPECT_EQ(m.handoff_us(), 0.0);
  m.run([](Proc& p) { p.barrier(); });
  m.run_inline([](Proc&) {});
  EXPECT_EQ(m.handoff_us(), 0.0) << "a barrier run or an inline run is no hand-off sample";
  m.run([](Proc&) {});
  EXPECT_GT(m.handoff_us(), 0.0);

  EXPECT_EQ(m.local_sort_us_per_key(), 0.0);
  m.note_local_sort(0, 5.0);
  EXPECT_EQ(m.local_sort_us_per_key(), 0.0) << "an empty sample is ignored";
  m.note_local_sort(100, 5.0);
  EXPECT_DOUBLE_EQ(m.local_sort_us_per_key(), 0.05);
}

}  // namespace
}  // namespace bsort::simd
