// Cross-module integration tests: all sorts agree; reports are sane;
// short vs long message modes produce identical data movement but
// different charged times.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "backend/backend.hpp"
#include "bitonic/sorts.hpp"
#include "loggp/params.hpp"
#include "psort/psort.hpp"
#include "schedule/formulas.hpp"
#include "test_helpers.hpp"
#include "trace/validate.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace bsort {
namespace {

using testing::run_blocked_spmd;
using testing::run_blocked_spmd_on;
using testing::run_vector_spmd;
using testing::run_vector_spmd_on;

TEST(Integration, AllSortsAgreeOnSameInput) {
  const std::size_t N = 1u << 13;
  const int P = 8;
  const auto input = util::generate_keys(N, util::KeyDistribution::kUniform31, 31337);
  auto expected = input;
  std::sort(expected.begin(), expected.end());

  auto a = input;
  run_blocked_spmd(a, P, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::blocked_merge_sort(p, s);
                   });
  auto b = input;
  run_blocked_spmd(b, P, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::cyclic_blocked_sort(p, s);
                   });
  auto c = input;
  run_blocked_spmd(c, P, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::smart_sort(p, s);
                   });
  const auto d = run_vector_spmd(input, P, simd::MessageMode::kLong,
                                 [](simd::Proc& p, std::vector<std::uint32_t>& keys) {
                                   psort::parallel_radix_sort(p, keys);
                                 });
  const auto e = run_vector_spmd(input, P, simd::MessageMode::kLong,
                                 [](simd::Proc& p, std::vector<std::uint32_t>& keys) {
                                   psort::parallel_sample_sort(p, keys);
                                 });
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
  EXPECT_EQ(c, expected);
  EXPECT_EQ(d, expected);
  EXPECT_EQ(e, expected);
}

TEST(Integration, ShortMessagesChargeMoreThanLong) {
  const std::size_t N = 1u << 13;
  const int P = 8;
  auto k1 = util::generate_keys(N, util::KeyDistribution::kUniform31, 7);
  auto k2 = k1;
  // The 5x/10x ratios below are properties of the analytic LogP/LogGP
  // charges, so both machines pin the simulated backend (measured
  // native times do not depend on the message-mode accounting).
  simd::Machine m_long(P, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                       backend::make_simulated());
  simd::Machine m_short(P, loggp::meiko_cs2(), simd::MessageMode::kShort, 1.0,
                        backend::make_simulated());
  const auto rep_long = run_blocked_spmd_on(
      m_long, k1,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
  const auto rep_short = run_blocked_spmd_on(
      m_short, k2,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
  EXPECT_EQ(k1, k2);
  // Same volume; far more messages and far more transfer time.
  EXPECT_EQ(rep_long.total_comm().elements_sent, rep_short.total_comm().elements_sent);
  EXPECT_GT(rep_short.total_comm().messages_sent,
            10 * rep_long.total_comm().messages_sent);
  EXPECT_GT(rep_short.critical_phases().transfer(),
            5 * rep_long.critical_phases().transfer());
}

TEST(Integration, SmartTransfersLessThanCyclicBlocked) {
  const std::size_t N = 1u << 14;
  const int P = 16;
  auto k1 = util::generate_keys(N, util::KeyDistribution::kUniform31, 8);
  auto k2 = k1;
  const auto rep_smart = run_blocked_spmd(
      k1, P, simd::MessageMode::kLong,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
  const auto rep_cb = run_blocked_spmd(
      k2, P, simd::MessageMode::kLong,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::cyclic_blocked_sort(p, s); });
  // Fewer communication steps and lower volume (Theorem 1 + Section 3.2.1).
  EXPECT_LT(rep_smart.total_comm().exchanges, rep_cb.total_comm().exchanges);
  EXPECT_LT(rep_smart.total_comm().elements_sent, rep_cb.total_comm().elements_sent);
}

TEST(Integration, ReportsHavePositivePhases) {
  const std::size_t N = 1u << 12;
  auto keys = util::generate_keys(N, util::KeyDistribution::kUniform31, 9);
  const auto rep = run_blocked_spmd(
      keys, 8, simd::MessageMode::kLong,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
  EXPECT_GT(rep.makespan_us, 0.0);
  EXPECT_GT(rep.critical_phases().compute(), 0.0);
  EXPECT_GT(rep.critical_phases().transfer(), 0.0);
  EXPECT_GT(rep.critical_phases().pack(), 0.0);
  EXPECT_GT(rep.critical_phases().unpack(), 0.0);
  for (const auto t : rep.proc_us) EXPECT_GT(t, 0.0);
}

// Every exchange a sort performs must appear as an exchange record with
// exactly the counters the RunReport accumulated: per VP, the record
// sums equal proc_comm (exchanges / elements / messages) and the charged
// time equals the transfer phase (the only phase charged at commit).
// The compute/pack/unpack deltas can only cover time up to the last
// exchange, so those sums are bounded by the phase totals.
void expect_trace_matches_report(const simd::Machine& m, const simd::RunReport& rep) {
  for (int r = 0; r < m.nprocs(); ++r) {
    const auto meas = trace::measure(m.vp_spans(r));
    const auto& comm = rep.proc_comm[static_cast<std::size_t>(r)];
    const auto& phases = rep.proc_phases[static_cast<std::size_t>(r)];
    ASSERT_EQ(meas.dropped, 0u) << "ring overflow on vp " << r;
    EXPECT_EQ(meas.exchanges, comm.exchanges) << "vp " << r;
    EXPECT_EQ(meas.elements, comm.elements_sent) << "vp " << r;
    EXPECT_EQ(meas.messages, comm.messages_sent) << "vp " << r;
    EXPECT_NEAR(meas.charged_us, phases.transfer(), 1e-9 * (1.0 + phases.transfer()))
        << "vp " << r;
    double compute = 0, pack = 0, unpack = 0;
    trace::for_each_exchange(m.vp_spans(r), [&](const obs::SpanRecord&,
                                                const trace::PhaseDelta& d) {
      compute += d.compute_us;
      pack += d.pack_us;
      unpack += d.unpack_us;
    });
    const double slack = 1e-9;
    EXPECT_LE(compute, phases.compute() + slack) << "vp " << r;
    EXPECT_LE(pack, phases.pack() + slack) << "vp " << r;
    EXPECT_LE(unpack, phases.unpack() + slack) << "vp " << r;
  }
}

TEST(Integration, TraceSumsMatchReportForEverySort) {
  const std::size_t N = 1u << 12;
  const int P = 8;
  const auto input = util::generate_keys(N, util::KeyDistribution::kUniform31, 77);

  const std::function<void(simd::Proc&, std::span<std::uint32_t>)> blocked_sorts[] = {
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::naive_blocked_sort(p, s); },
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::blocked_merge_sort(p, s); },
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::cyclic_blocked_sort(p, s); },
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); },
  };
  for (const auto mode : {simd::MessageMode::kShort, simd::MessageMode::kLong}) {
    for (const auto& sort : blocked_sorts) {
      simd::Machine m(P, loggp::meiko_cs2(), mode);
      m.enable_profiling();
      auto keys = input;
      const auto rep = run_blocked_spmd_on(m, keys, sort);
      expect_trace_matches_report(m, rep);
    }
    const std::function<void(simd::Proc&, std::vector<std::uint32_t>&)> vector_sorts[] = {
        [](simd::Proc& p, std::vector<std::uint32_t>& k) { psort::parallel_radix_sort(p, k); },
        [](simd::Proc& p, std::vector<std::uint32_t>& k) { psort::parallel_sample_sort(p, k); },
    };
    for (const auto& sort : vector_sorts) {
      simd::Machine m(P, loggp::meiko_cs2(), mode);
      m.enable_profiling();
      simd::RunReport rep;
      run_vector_spmd_on(m, input, rep, sort);
      expect_trace_matches_report(m, rep);
    }
  }
}

TEST(Integration, SmartTraceRemapCountMatchesSchedule) {
  const int P = 16;
  const std::size_t n = 1u << 10;
  simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.enable_profiling();
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 78);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });
  const auto expected =
      schedule::smart_remap_count(util::ilog2(n), util::ilog2(static_cast<std::uint64_t>(P)));
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(trace::measure(m.vp_spans(r)).remaps, expected) << "vp " << r;
    // Every annotated exchange carries its layout transition.
    for (const auto& e : testing::exchange_records(m.vp_spans(r))) {
      if (e.remap < 0) continue;
      EXPECT_NE(e.layout_from, trace::LayoutTag::kUnknown);
      EXPECT_NE(e.layout_to, trace::LayoutTag::kUnknown);
      EXPECT_GE(e.group_log2, 1);
    }
  }
}

TEST(Integration, RepeatedRunsAreDataDeterministic) {
  const std::size_t N = 1u << 12;
  const auto input = util::generate_keys(N, util::KeyDistribution::kUniform31, 10);
  auto k1 = input;
  auto k2 = input;
  auto r1 = run_blocked_spmd(k1, 8, simd::MessageMode::kLong,
                             [](simd::Proc& p, std::span<std::uint32_t> s) {
                               bitonic::smart_sort(p, s);
                             });
  auto r2 = run_blocked_spmd(k2, 8, simd::MessageMode::kLong,
                             [](simd::Proc& p, std::span<std::uint32_t> s) {
                               bitonic::smart_sort(p, s);
                             });
  EXPECT_EQ(k1, k2);
  // Communication counters are exactly reproducible (timing is not).
  EXPECT_EQ(r1.total_comm().elements_sent, r2.total_comm().elements_sent);
  EXPECT_EQ(r1.total_comm().messages_sent, r2.total_comm().messages_sent);
}

}  // namespace
}  // namespace bsort
