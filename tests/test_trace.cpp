// The trace subsystem over the machine's one recorder: exchange records
// in the span ring, JSONL export, the model validator (measured R/V/M/
// time vs. the Section 3.4 predictions) and the (L, o, g, G) fitter.  The validator tests include regressions
// against the two historical closed-form bugs: the divide-before-
// multiply truncation in cyclic_blocked_metrics at n < P, and
// smart_metrics returning the in-regime closed forms outside the
// lgP(lgP+1)/2 <= lg n regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "backend/backend.hpp"
#include "bitonic/remap_exec.hpp"
#include "fault/error.hpp"
#include "bitonic/sorts.hpp"
#include "layout/bit_layout.hpp"
#include "loggp/choose.hpp"
#include "loggp/cost.hpp"
#include "loggp/params.hpp"
#include "obs/perfetto.hpp"
#include "obs/spans.hpp"
#include "schedule/formulas.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"
#include "trace/events.hpp"
#include "trace/fit.hpp"
#include "trace/jsonl.hpp"
#include "trace/validate.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace bsort {
namespace {

/// Machines whose trace assertions are the exact analytic charges (or
/// whose fits must recover the machine's OWN parameters) pin the
/// simulated backend: under BSORT_BACKEND=native the charged times are
/// measured on the host and these expectations do not apply.
simd::Machine sim_machine(int nprocs, loggp::Params params, simd::MessageMode mode) {
  return simd::Machine(nprocs, params, mode, 1.0, backend::make_simulated());
}

using testing::exchange_records;
using testing::run_blocked_spmd_on;

// One pairwise exchange per VP: rank r swaps `elems` keys with rank r^1.
void pairwise_program(simd::Proc& p, std::size_t elems) {
  const auto me = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t peers[1] = {me ^ 1};
  const std::size_t sizes[1] = {elems};
  p.open_exchange(peers, sizes, peers);
  auto slot = p.send_slot(0);
  std::fill(slot.begin(), slot.end(), static_cast<std::uint32_t>(me));
  p.commit_exchange();
}

TEST(MachineTracing, RecordsOneEventPerExchange) {
  simd::Machine m = sim_machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.enable_profiling(16);
  m.run([](simd::Proc& p) {
    for (int i = 0; i < 3; ++i) pairwise_program(p, 8);
  });
  const double charge = loggp::remap_time_long(m.params(), 8, 1, 4);
  for (int r = 0; r < m.nprocs(); ++r) {
    const auto t = exchange_records(m.vp_spans(r));
    ASSERT_EQ(t.size(), 3u);
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(t[i].arg, static_cast<std::int32_t>(i));  // exchange ordinal
      EXPECT_EQ(t[i].remap, -1);  // unannotated
      EXPECT_EQ(t[i].elements, 8u);
      EXPECT_EQ(t[i].messages, 1u);
      EXPECT_EQ(t[i].peers, 1u);
      // The record's duration is the charge (up to clock rounding).
      EXPECT_NEAR(t[i].sim_us(), charge, 1e-9 * charge);
    }
  }
}

TEST(MachineTracing, RingsResetBetweenRunsAndOverflowIsReported) {
  simd::Machine m(2, loggp::meiko_cs2(), simd::MessageMode::kShort);
  m.enable_profiling(4);
  m.run([](simd::Proc& p) {
    for (int i = 0; i < 6; ++i) pairwise_program(p, 2);
  });
  // Each exchange writes a barrier-wait and an exchange record: 12
  // records into a ring of 4.  The mixed ring drops its oldest records
  // whatever their kind and keeps the last two exchanges whole.
  const auto& ring = m.vp_spans(0);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 8u);
  EXPECT_EQ(ring[0].kind, obs::SpanKind::kBarrierWait);
  EXPECT_EQ(ring[1].kind, obs::SpanKind::kExchange);
  EXPECT_EQ(ring[1].arg, 4);
  EXPECT_EQ(ring[2].kind, obs::SpanKind::kBarrierWait);
  EXPECT_EQ(ring[3].kind, obs::SpanKind::kExchange);
  EXPECT_EQ(ring[3].arg, 5);
  // An overflowed ring means partial totals: the validator must refuse.
  const auto report = trace::validate_run(m, loggp::Strategy::kBlocked, 2);
  EXPECT_FALSE(report.all_ok());
  EXPECT_FALSE(report.vps[0].complete);
  EXPECT_EQ(report.vps[0].measured.dropped, 8u);
  EXPECT_NE(report.summary().find("ring overflow"), std::string::npos);

  // The next run starts from a clean ring (same capacity).
  m.run([](simd::Proc& p) { pairwise_program(p, 2); });
  EXPECT_EQ(m.vp_spans(0).size(), 2u);
  EXPECT_EQ(m.vp_spans(0).dropped(), 0u);
  EXPECT_EQ(m.vp_spans(0).capacity(), 4u);

  m.disable_profiling();
  EXPECT_FALSE(m.profiling());
}

TEST(MachineTracing, DisabledByDefault) {
  simd::Machine m(2, loggp::meiko_cs2(), simd::MessageMode::kLong);
  EXPECT_FALSE(m.profiling());
  // Runs fine with no rings armed; trace_remap is a no-op.
  m.run([](simd::Proc& p) {
    p.trace_remap(1, trace::LayoutTag::kBlocked, trace::LayoutTag::kBlocked);
    pairwise_program(p, 4);
  });
}

// Before this contract the rings were empty vectors while recording was
// off, and every reader below indexed them out of bounds in Release.
TEST(Recording, AccessorsRejectDisarmedMachine) {
  simd::Machine m(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.run([](simd::Proc& p) { pairwise_program(p, 4); });
  EXPECT_THROW((void)m.vp_spans(3), ConfigError);
  EXPECT_THROW((void)m.vp_metrics(3), ConfigError);
  std::ostringstream os;
  EXPECT_THROW((void)trace::write_jsonl(os, m, {}), ConfigError);
  EXPECT_TRUE(os.str().empty());  // nothing written before the refusal
  EXPECT_THROW((void)trace::validate_run(m, loggp::Strategy::kBlocked, 4), ConfigError);
  EXPECT_THROW(obs::write_perfetto(os, m), ConfigError);
  EXPECT_THROW((void)trace::fit_params(m, 1.0), ConfigError);

  // Armed, the ranks outside [0, P) are refused too.
  m.enable_profiling(16);
  m.run([](simd::Proc& p) { pairwise_program(p, 4); });
  EXPECT_NO_THROW((void)m.vp_spans(3));
  EXPECT_THROW((void)m.vp_spans(4), ConfigError);
  EXPECT_THROW((void)m.vp_spans(-1), ConfigError);
  EXPECT_THROW((void)m.vp_metrics(4), ConfigError);
}

// Every exchange a bitonic sort commits is one exchange record whose
// payload agrees with the RunReport's independent accounting, and the
// local time between records adds up to the phase totals.
TEST(Recording, ExchangeRecordsMatchRunReport) {
  const int P = 8;
  const std::uint64_t n = 1u << 9;
  const std::function<void(simd::Proc&, std::span<std::uint32_t>)> sorts[] = {
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::blocked_merge_sort(p, s); },
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::cyclic_blocked_sort(p, s); },
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); },
  };
  for (const auto mode : {simd::MessageMode::kShort, simd::MessageMode::kLong}) {
    for (const auto& sort : sorts) {
      simd::Machine m(P, loggp::meiko_cs2(), mode);
      m.enable_profiling(1u << 12);
      auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 5);
      const auto rep = run_blocked_spmd_on(m, keys, sort);
      ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
      for (int r = 0; r < P; ++r) {
        const auto& ring = m.vp_spans(r);
        const auto& comm = rep.proc_comm[static_cast<std::size_t>(r)];
        const auto& phases = rep.proc_phases[static_cast<std::size_t>(r)];
        ASSERT_EQ(ring.dropped(), 0u) << "vp " << r;

        std::uint64_t exchanges = 0, elements = 0, messages = 0;
        double transfer = 0;
        trace::PhaseDelta sum;
        trace::for_each_exchange(ring, [&](const obs::SpanRecord& e,
                                           const trace::PhaseDelta& d) {
          ++exchanges;
          elements += e.elements;
          messages += e.messages;
          transfer += e.sim_us();
          sum.compute_us += d.compute_us;
          sum.pack_us += d.pack_us;
          sum.unpack_us += d.unpack_us;
        });
        EXPECT_EQ(exchanges, comm.exchanges) << "vp " << r;
        EXPECT_EQ(elements, comm.elements_sent) << "vp " << r;
        EXPECT_EQ(messages, comm.messages_sent) << "vp " << r;
        EXPECT_NEAR(transfer, phases.transfer(), 1e-9 * phases.transfer()) << "vp " << r;

        // The deltas cover the phases up to the last exchange record;
        // the leaf records after it hold the rest.
        std::size_t last = 0;
        for (std::size_t i = 0; i < ring.size(); ++i) {
          if (ring[i].kind == obs::SpanKind::kExchange) last = i;
        }
        trace::PhaseDelta tail;
        for (std::size_t i = last + 1; i < ring.size(); ++i) {
          const auto k = ring[i].kind;
          if (k == obs::SpanKind::kCompute || k == obs::SpanKind::kStraggler) {
            tail.compute_us += ring[i].sim_us();
          } else if (k == obs::SpanKind::kPack) {
            tail.pack_us += ring[i].sim_us();
          } else if (k == obs::SpanKind::kUnpack) {
            tail.unpack_us += ring[i].sim_us();
          }
        }
        EXPECT_NEAR(sum.compute_us + tail.compute_us, phases.compute(),
                    1e-9 * phases.compute()) << "vp " << r;
        EXPECT_NEAR(sum.pack_us + tail.pack_us, phases.pack(), 1e-9 * phases.pack())
            << "vp " << r;
        EXPECT_NEAR(sum.unpack_us + tail.unpack_us, phases.unpack(),
                    1e-9 * phases.unpack()) << "vp " << r;
      }
    }
  }
}

TEST(Jsonl, MetaLinePlusOneLinePerEvent) {
  simd::Machine m(2, loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.enable_profiling(8);
  m.run([](simd::Proc& p) {
    for (int i = 0; i < 2; ++i) pairwise_program(p, 4);
  });
  std::ostringstream os;
  const auto written =
      trace::write_jsonl(os, m, {.label = "test \"x\"", .algorithm = "pairwise",
                                 .keys_per_proc = 4});
  EXPECT_EQ(written, 4u);  // 2 VPs x 2 events
  const std::string out = os.str();
  std::size_t lines = 0;
  for (const char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5u);  // meta + 4 events
  EXPECT_NE(out.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(out.find("\"label\":\"test \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"mode\":\"long\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"exchange\""), std::string::npos);
}

// ---- Validator: measured == predicted for the three strategies -------

class TraceValidationTest : public ::testing::TestWithParam<simd::MessageMode> {};

TEST_P(TraceValidationTest, BlockedMergeMatchesPrediction) {
  const int P = 8;
  const std::uint64_t n = 1u << 9;
  simd::Machine m = sim_machine(P, loggp::meiko_cs2(), GetParam());
  m.enable_profiling();
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 1);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::blocked_merge_sort(p, s);
  });
  const auto report = trace::validate_run(m, loggp::Strategy::kBlocked, n);
  EXPECT_TRUE(report.all_ok()) << report.summary();
}

TEST_P(TraceValidationTest, CyclicBlockedMatchesPrediction) {
  const int P = 8;
  const std::uint64_t n = 1u << 9;
  simd::Machine m = sim_machine(P, loggp::meiko_cs2(), GetParam());
  m.enable_profiling();
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 2);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::cyclic_blocked_sort(p, s);
  });
  const auto report = trace::validate_run(m, loggp::Strategy::kCyclicBlocked, n);
  EXPECT_TRUE(report.all_ok()) << report.summary();
}

TEST_P(TraceValidationTest, SmartMatchesPrediction) {
  const int P = 8;
  const std::uint64_t n = 1u << 9;  // lgP(lgP+1)/2 = 6 <= 9: usual regime
  simd::Machine m = sim_machine(P, loggp::meiko_cs2(), GetParam());
  m.enable_profiling();
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 3);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });
  const auto report = trace::validate_run(m, loggp::Strategy::kSmart, n);
  EXPECT_TRUE(report.all_ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceValidationTest,
                         ::testing::Values(simd::MessageMode::kShort,
                                           simd::MessageMode::kLong),
                         [](const auto& info) {
                           return info.param == simd::MessageMode::kShort ? "Short"
                                                                          : "Long";
                         });

// Regression: the pre-fix cyclic_blocked_metrics truncated
// 2*n*(P-1)/P*lgP at n < P.  The sort itself is inadmissible there, but
// the remap sequence (blocked -> cyclic -> blocked, lgP times) is well
// defined — execute it raw and check the trace agrees with the fixed
// formula and disagrees with the old one.
TEST(TraceValidation, CatchesCyclicTruncationBugAtSmallN) {
  const std::uint64_t n = 2, P = 8, lgP = 3;
  simd::Machine m(static_cast<int>(P), loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.enable_profiling();
  m.run([&](simd::Proc& p) {
    // The cyclic-blocked program's first stage: blocked -> cyclic -> blocked.
    const auto prog = bitonic::remap_program(bitonic::RemapSort::kCyclicBlocked, 1, 3);
    std::vector<std::uint32_t> keys(n, static_cast<std::uint32_t>(p.rank()));
    std::vector<std::uint32_t> scratch(n);
    for (std::uint64_t i = 0; i < lgP; ++i) {
      bitonic::remap_data_into(p, prog->steps[0], keys, scratch);
      bitonic::remap_data_into(p, prog->steps[1], scratch, keys);
    }
  });

  const auto fixed = loggp::cyclic_blocked_metrics(n, P);
  // The formula this replaced: divide truncates before the * lgP.
  const std::uint64_t old_elements = 2 * n * (P - 1) / P * lgP;  // == 9
  ASSERT_EQ(old_elements, 9u);
  EXPECT_EQ(fixed.elements, 12u);  // 2 lgP remaps x n: worst case keeps nothing

  // Below n = P the per-processor traffic is not uniform: the few ranks
  // the blocked<->cyclic address shift maps to themselves (here 0 and
  // P-1) retain one key per remap, everyone else sends everything.  The
  // metric is the critical path: the busiest processor must match it
  // exactly, nobody may exceed it — and the old truncated value (9)
  // matches NO processor's actual traffic.
  std::uint64_t max_elements = 0, max_messages = 0;
  for (int r = 0; r < m.nprocs(); ++r) {
    const auto meas = trace::measure(m.vp_spans(r));
    EXPECT_EQ(meas.remaps, fixed.remaps);
    EXPECT_LE(meas.elements, fixed.elements);
    EXPECT_LE(meas.messages, fixed.messages);
    EXPECT_NE(meas.elements, old_elements);  // the validator catches the bug
    max_elements = std::max(max_elements, meas.elements);
    max_messages = std::max(max_messages, meas.messages);
  }
  EXPECT_EQ(max_elements, fixed.elements);
  EXPECT_EQ(max_messages, fixed.messages);
}

// Regression: outside the usual regime (lgP(lgP+1)/2 > lg n) the
// pre-fix smart_metrics kept returning the in-regime closed forms in
// Release (the guard was assert-only).  n = 8, P = 8 is out of regime;
// the measured trace matches the general-shape schedule formulas and
// refutes the closed forms.
TEST(TraceValidation, CatchesSmartClosedFormOutOfRegime) {
  const std::uint64_t n = 8, P = 8, lgP = 3;
  simd::Machine m = sim_machine(static_cast<int>(P), loggp::meiko_cs2(),
                                simd::MessageMode::kLong);
  m.enable_profiling();
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 4);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });

  const std::uint64_t old_remaps = lgP + 1;  // in-regime closed form R
  const auto fixed = loggp::smart_metrics(n, P);
  EXPECT_EQ(fixed.remaps, schedule::smart_remap_count(3, 3));
  EXPECT_NE(fixed.remaps, old_remaps);

  const auto report = trace::validate_run(m, loggp::Strategy::kSmart, n);
  EXPECT_TRUE(report.all_ok()) << report.summary();
  for (int r = 0; r < m.nprocs(); ++r) {
    EXPECT_NE(trace::measure(m.vp_spans(r)).remaps, old_remaps);
  }
}

// ---- Fitter ----------------------------------------------------------

TEST(Fit, RecoversParametersFromLongModeCalibration) {
  const auto truth = loggp::meiko_cs2();
  simd::Machine m = sim_machine(8, truth, simd::MessageMode::kLong);
  const auto fit = trace::calibrate(m, truth.o);
  EXPECT_FALSE(m.profiling());  // restored
  EXPECT_TRUE(fit.long_mode);
  EXPECT_GE(fit.events, 3u);
  // The machine charges the exact formulas, so recovery is essentially
  // exact — far inside the 5% acceptance band.
  EXPECT_NEAR(fit.params.L, truth.L, 0.05 * truth.L);
  EXPECT_NEAR(fit.params.g, truth.g, 0.05 * truth.g);
  EXPECT_NEAR(fit.params.G, truth.G, 0.05 * truth.G);
  EXPECT_DOUBLE_EQ(fit.params.o, truth.o);
  EXPECT_LT(fit.max_rel_residual, 1e-9);
}

TEST(Fit, RecoversParametersFromShortModeCalibration) {
  const auto truth = loggp::meiko_cs2();
  simd::Machine m = sim_machine(4, truth, simd::MessageMode::kShort);
  const auto fit = trace::calibrate(m, truth.o);
  EXPECT_FALSE(fit.long_mode);
  EXPECT_NEAR(fit.params.L, truth.L, 0.05 * truth.L);
  EXPECT_NEAR(fit.params.g, truth.g, 0.05 * truth.g);
  EXPECT_DOUBLE_EQ(fit.params.G, 0.0);  // unexercised by short messages
}

TEST(Fit, FittedParametersReproduceStrategyChoice) {
  const auto truth = loggp::modern_cluster();
  simd::Machine m = sim_machine(8, truth, simd::MessageMode::kLong);
  const auto fit = trace::calibrate(m, truth.o);
  for (const std::uint64_t n : {std::uint64_t{64}, std::uint64_t{1} << 12,
                                std::uint64_t{1} << 18}) {
    for (const std::uint64_t P : {std::uint64_t{8}, std::uint64_t{64}}) {
      EXPECT_EQ(loggp::choose_strategy(fit.params, n, P, true),
                loggp::choose_strategy(truth, n, P, true))
          << "n=" << n << " P=" << P;
    }
  }
}

TEST(Fit, ThrowsWithoutTracingOrEnoughRows) {
  simd::Machine m(2, loggp::meiko_cs2(), simd::MessageMode::kLong);
  EXPECT_THROW((void)trace::fit_params(m, 1.0), ConfigError);  // not recording
  m.enable_profiling(8);
  EXPECT_THROW((void)trace::fit_params(m, 1.0), std::invalid_argument);  // no rows
  // Long mode needs two distinct message counts: P = 2 pairwise-only
  // traces leave the g column identically zero.
  m.run([](simd::Proc& p) {
    for (const std::size_t sz : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
      pairwise_program(p, sz);
    }
  });
  EXPECT_THROW((void)trace::fit_params(m, 1.0), std::invalid_argument);
  EXPECT_THROW((void)trace::calibrate(m, 1.0), std::invalid_argument);  // P < 4
}

}  // namespace
}  // namespace bsort
