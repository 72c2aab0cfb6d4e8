#include "api/parallel_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "util/json.hpp"
#include "util/clock.hpp"
#include "util/random.hpp"

namespace bsort::api {
namespace {

class ApiAlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ApiAlgorithmTest, SortsEndToEnd) {
  Config cfg;
  cfg.nprocs = 8;
  cfg.algorithm = GetParam();
  auto keys = util::generate_keys(1u << 12, util::KeyDistribution::kUniform31, 7);
  auto want = keys;
  std::sort(want.begin(), want.end());
  ASSERT_TRUE(config_valid(cfg, keys.size()));
  const auto outcome = parallel_sort(keys, cfg);
  EXPECT_TRUE(outcome.sorted);
  EXPECT_EQ(keys, want);
  EXPECT_GT(outcome.report.makespan_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, ApiAlgorithmTest,
    ::testing::Values(Algorithm::kSmartBitonic, Algorithm::kCyclicBlockedBitonic,
                      Algorithm::kBlockedMergeBitonic, Algorithm::kNaiveBitonic,
                      Algorithm::kParallelRadix, Algorithm::kSampleSort,
                      Algorithm::kColumnSort),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name(algorithm_name(info.param));
      for (auto& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

TEST(ApiConfig, ValidityRules) {
  Config cfg;
  cfg.nprocs = 8;
  cfg.algorithm = Algorithm::kSmartBitonic;
  EXPECT_TRUE(config_valid(cfg, 1u << 12));
  EXPECT_FALSE(config_valid(cfg, (1u << 12) + 1));  // not a power of two
  EXPECT_FALSE(config_valid(cfg, 8));               // n = 1 < 2
  cfg.nprocs = 7;
  EXPECT_FALSE(config_valid(cfg, 1u << 12));  // P not a power of two

  cfg.nprocs = 16;
  cfg.algorithm = Algorithm::kCyclicBlockedBitonic;
  EXPECT_FALSE(config_valid(cfg, 1u << 7));  // N < P^2
  EXPECT_TRUE(config_valid(cfg, 1u << 8));

  cfg.algorithm = Algorithm::kColumnSort;
  EXPECT_FALSE(config_valid(cfg, 1u << 12));  // n = 256 < 2*15^2
  EXPECT_TRUE(config_valid(cfg, 1u << 13));
}

TEST(ApiConfig, SampleSortMayRebalance) {
  Config cfg;
  cfg.nprocs = 4;
  cfg.algorithm = Algorithm::kSampleSort;
  auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kLowEntropy, 5);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto outcome = parallel_sort(keys, cfg);
  EXPECT_TRUE(outcome.sorted);
  EXPECT_EQ(keys, want);  // total content preserved even when imbalanced
}

TEST(ApiConfig, ShortMessageModeWorks) {
  Config cfg;
  cfg.nprocs = 4;
  cfg.mode = simd::MessageMode::kShort;
  auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 3);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto outcome = parallel_sort(keys, cfg);
  EXPECT_TRUE(outcome.sorted);
  EXPECT_EQ(keys, want);
}

TEST(ApiConfig, CpuScaleScalesComputeTime) {
  Config cfg;
  cfg.nprocs = 2;
  auto keys1 = util::generate_keys(1u << 14, util::KeyDistribution::kUniform31, 9);
  auto keys2 = keys1;
  cfg.cpu_scale = 1.0;
  const auto r1 = parallel_sort(keys1, cfg);
  cfg.cpu_scale = 100.0;
  const auto r2 = parallel_sort(keys2, cfg);
  // Compute time should grow by roughly the scale factor (allow wide
  // tolerance for measurement noise).
  EXPECT_GT(r2.report.critical_phases().compute(),
            10 * r1.report.critical_phases().compute());
}

// --- Edge cases over every algorithm: empty input, P = 1, n = P --------
//
// Each case is gated on config_valid: an algorithm may reject a shape
// (e.g. column sort's r >= 2(s-1)^2), but whenever it accepts one it
// must actually sort it — no asserts, no deadlocks, no wrong output.

class ApiEdgeCaseTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ApiEdgeCaseTest, EmptyInputIsValidAndSorts) {
  Config cfg;
  cfg.algorithm = GetParam();
  for (const int P : {1, 8}) {
    cfg.nprocs = P;
    ASSERT_TRUE(config_valid(cfg, 0));
    std::vector<std::uint32_t> keys;
    const auto outcome = parallel_sort(keys, cfg);
    EXPECT_TRUE(outcome.sorted);
    EXPECT_TRUE(keys.empty());
    EXPECT_EQ(outcome.report.proc_us.size(), static_cast<std::size_t>(P));
    EXPECT_EQ(outcome.report.total_comm().elements_sent, 0u);
  }
}

TEST_P(ApiEdgeCaseTest, SingleProcessorSmallInputs) {
  Config cfg;
  cfg.algorithm = GetParam();
  cfg.nprocs = 1;
  for (const std::size_t total : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    if (!config_valid(cfg, total)) continue;
    auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31, 11);
    auto want = keys;
    std::sort(want.begin(), want.end());
    const auto outcome = parallel_sort(keys, cfg);
    EXPECT_TRUE(outcome.sorted) << "total=" << total;
    EXPECT_EQ(keys, want) << "total=" << total;
  }
  // P = 1 must be accepted by every algorithm for some modest size.
  EXPECT_TRUE(config_valid(cfg, 1u << 10));
}

TEST_P(ApiEdgeCaseTest, OneKeyPerProcessorTimesP) {
  // n = P (N = P^2): the boundary of cyclic-blocked's N >= P^2 shape
  // rule and the smallest shape where every remap actually communicates.
  Config cfg;
  cfg.algorithm = GetParam();
  cfg.nprocs = 4;
  const std::size_t total = 16;
  if (!config_valid(cfg, total)) GTEST_SKIP() << "shape rejected";
  auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31, 13);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto outcome = parallel_sort(keys, cfg);
  EXPECT_TRUE(outcome.sorted);
  EXPECT_EQ(keys, want);
}

INSTANTIATE_TEST_SUITE_P(
    All, ApiEdgeCaseTest,
    ::testing::Values(Algorithm::kSmartBitonic, Algorithm::kCyclicBlockedBitonic,
                      Algorithm::kBlockedMergeBitonic, Algorithm::kNaiveBitonic,
                      Algorithm::kParallelRadix, Algorithm::kSampleSort,
                      Algorithm::kColumnSort),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name(algorithm_name(info.param));
      for (auto& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

TEST(ApiNames, AllDistinct) {
  EXPECT_EQ(algorithm_name(Algorithm::kSmartBitonic), "bitonic/smart");
  EXPECT_EQ(algorithm_name(Algorithm::kColumnSort), "column");
}

// Shape failures must be actionable: the reason names the violated
// constraint WITH the requested numbers, not just "invalid config".
TEST(ApiErrors, InvalidReasonNamesConstraintAndNumbers) {
  Config cfg;
  cfg.nprocs = 7;
  auto reason = config_invalid_reason(cfg, 1u << 12);
  EXPECT_NE(reason.find("power of two"), std::string::npos) << reason;
  EXPECT_NE(reason.find("7"), std::string::npos) << reason;

  cfg.nprocs = 8;
  EXPECT_TRUE(config_invalid_reason(cfg, 1u << 12).empty());
  reason = config_invalid_reason(cfg, (1u << 12) + 1);
  EXPECT_NE(reason.find("power of two"), std::string::npos) << reason;
  EXPECT_NE(reason.find("4097"), std::string::npos) << reason;

  cfg.algorithm = Algorithm::kSmartBitonic;
  reason = config_invalid_reason(cfg, 8);  // n = 1 < 2 on P = 8
  EXPECT_NE(reason.find("n >= 2"), std::string::npos) << reason;
  EXPECT_NE(reason.find("16 total keys"), std::string::npos) << reason;

  cfg.nprocs = 16;
  cfg.algorithm = Algorithm::kCyclicBlockedBitonic;
  reason = config_invalid_reason(cfg, 1u << 7);  // N < P^2
  EXPECT_NE(reason.find("N >= P^2"), std::string::npos) << reason;
  EXPECT_NE(reason.find("256 total keys"), std::string::npos) << reason;

  cfg.algorithm = Algorithm::kColumnSort;
  reason = config_invalid_reason(cfg, 1u << 12);
  EXPECT_NE(reason.find("2(P-1)^2"), std::string::npos) << reason;
}

TEST(ApiErrors, ParallelSortEmbedsReasonInConfigError) {
  Config cfg;
  cfg.nprocs = 16;
  cfg.algorithm = Algorithm::kCyclicBlockedBitonic;
  std::vector<std::uint32_t> keys(1u << 7, 1);
  try {
    parallel_sort(keys, cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parallel_sort"), std::string::npos) << what;
    EXPECT_NE(what.find("128 keys"), std::string::npos) << what;
    EXPECT_NE(what.find("N >= P^2"), std::string::npos) << what;
  }
}

TEST(ApiErrors, NprocsMismatchNamesBothCountsAndTheFix) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 8;
  std::vector<std::uint32_t> keys(1u << 10, 1);
  try {
    parallel_sort_on(machine, keys, cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("has 4 VPs"), std::string::npos) << what;
    EXPECT_NE(what.find("requests 8"), std::string::npos) << what;
    EXPECT_NE(what.find("fixed when the Machine is constructed"), std::string::npos)
        << what;
  }
}

// The batching primitive: heterogeneous items, one shared run, errors
// naming the offending item.
TEST(ApiBatch, SortsHeterogeneousItemsInOneRun) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 4;
  cfg.self_check = true;
  auto a = util::generate_keys(1u << 8, util::KeyDistribution::kUniform31, 1);
  auto b = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 2);
  std::vector<std::uint32_t> c;  // empty item is a no-op
  auto wa = a, wb = b;
  std::sort(wa.begin(), wa.end());
  std::sort(wb.begin(), wb.end());
  std::vector<std::uint32_t>* const items[3] = {&a, &b, &c};
  const auto out = parallel_sort_batch_on(machine, items, cfg);
  ASSERT_EQ(out.sorted.size(), 3u);
  EXPECT_TRUE(out.sorted[0]);
  EXPECT_TRUE(out.sorted[1]);
  EXPECT_TRUE(out.sorted[2]);
  EXPECT_EQ(a, wa);
  EXPECT_EQ(b, wb);
  EXPECT_TRUE(c.empty());
  EXPECT_GT(out.report.makespan_us, 0.0);
}

TEST(ApiBatch, SmallItemThresholdPlacesItemsLocallyWithZeroExchanges) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 4;
  cfg.self_check = true;
  cfg.small_item_threshold = 512;

  // All items under the threshold: the whole batch must run without a
  // single exchange (every item local-sorted by its owner VP).
  std::vector<std::vector<std::uint32_t>> reqs;
  std::vector<std::vector<std::uint32_t>> want;
  std::vector<std::vector<std::uint32_t>*> items;
  for (std::uint64_t i = 0; i < 6; ++i) {
    reqs.push_back(util::generate_keys(256, util::KeyDistribution::kUniform31, i));
    want.push_back(reqs.back());
    std::sort(want.back().begin(), want.back().end());
  }
  for (auto& r : reqs) items.push_back(&r);
  const auto out = parallel_sort_batch_on(machine, items, cfg);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(out.sorted[i]);
    EXPECT_EQ(reqs[i], want[i]) << "item " << i;
  }
  for (const auto& comm : out.report.proc_comm) {
    EXPECT_EQ(comm.elements_sent, 0u) << "local placement must not exchange";
    EXPECT_EQ(comm.messages_sent, 0u);
  }

  // Mixed batch: items above the threshold still run the full parallel
  // algorithm (and therefore do exchange).
  auto big = util::generate_keys(1u << 12, util::KeyDistribution::kUniform31, 9);
  auto big_want = big;
  std::sort(big_want.begin(), big_want.end());
  auto small = util::generate_keys(128, util::KeyDistribution::kUniform31, 10);
  auto small_want = small;
  std::sort(small_want.begin(), small_want.end());
  std::vector<std::uint32_t>* const mixed[2] = {&small, &big};
  const auto out2 = parallel_sort_batch_on(machine, mixed, cfg);
  EXPECT_TRUE(out2.sorted[0]);
  EXPECT_TRUE(out2.sorted[1]);
  EXPECT_EQ(small, small_want);
  EXPECT_EQ(big, big_want);
  std::uint64_t sent = 0;
  for (const auto& comm : out2.report.proc_comm) sent += comm.elements_sent;
  EXPECT_GT(sent, 0u) << "the oversized item must still be sorted in parallel";

  // Every input family, empty items and the service's pad key mixed in:
  // the all-local batch (on the calling thread or the VPs, whichever the
  // machine's crossover picks), the same items scattered over the VPs
  // (threshold 0) and one call per item (one owner: always inline once
  // measured) all equal std::sort.
  std::vector<std::vector<std::uint32_t>> inputs;
  std::uint64_t seed = 30;
  for (const auto family : {util::KeyDistribution::kConstant, util::KeyDistribution::kLowEntropy,
                            util::KeyDistribution::kSorted, util::KeyDistribution::kReversed}) {
    for (const std::size_t n : {8u, 256u, 512u}) {
      inputs.push_back(util::generate_keys(n, family, ++seed));
    }
    inputs.emplace_back();
  }
  inputs.emplace_back(64, UINT32_MAX);
  inputs.emplace_back(256, UINT32_MAX);
  const auto sort_all = [&](const Config& c, bool one_call_each) {
    auto work = inputs;
    std::vector<std::vector<std::uint32_t>*> ptrs;
    for (auto& w : work) ptrs.push_back(&w);
    if (one_call_each) {
      for (auto* w : ptrs) EXPECT_TRUE(parallel_sort_on(machine, *w, c).sorted);
    } else {
      const auto o = parallel_sort_batch_on(machine, ptrs, c);
      for (std::size_t i = 0; i < o.sorted.size(); ++i) EXPECT_TRUE(o.sorted[i]) << i;
      if (c.small_item_threshold > 0) {
        for (const auto& comm : o.report.proc_comm) EXPECT_EQ(comm.exchanges, 0u);
      }
    }
    return work;
  };
  auto oracle = inputs;
  for (auto& o : oracle) std::sort(o.begin(), o.end());
  Config scattered = cfg;
  scattered.small_item_threshold = 0;
  EXPECT_EQ(sort_all(cfg, false), oracle) << "batched, all local";
  EXPECT_EQ(sort_all(cfg, true), oracle) << "one call per item";
  EXPECT_EQ(sort_all(scattered, false), oracle) << "scattered over the VPs";
}

/// The calling thread's CPU time across one batch call.  An inline
/// batch's local sorts are charged from the caller's own CPU clock, so
/// the caller spends at least their total charge; a batch handed to the
/// VPs leaves the caller parked in the join.
double caller_cpu_us(simd::Machine& machine, std::vector<std::vector<std::uint32_t>>& items,
                     const Config& cfg, BatchOutcome& out) {
  std::vector<std::vector<std::uint32_t>*> ptrs;
  for (auto& it : items) ptrs.push_back(&it);
  const double t0 = util::thread_cpu_us();
  out = parallel_sort_batch_on(machine, ptrs, cfg);
  return util::thread_cpu_us() - t0;
}

double charged_compute_us(const simd::RunReport& rep) {
  double us = 0;
  for (const auto& ph : rep.proc_phases) us += ph.compute();
  return us;
}

TEST(ApiBatch, AllLocalBatchRunsOnTheCallerOnlyBelowTheCrossover) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 4;
  cfg.small_item_threshold = std::size_t{1} << 19;
  const auto batch = [](std::size_t items, std::size_t n) {
    std::vector<std::vector<std::uint32_t>> b;
    for (std::size_t i = 0; i < items; ++i) {
      b.push_back(util::generate_keys(n, util::KeyDistribution::kUniform31, 40 + i));
    }
    return b;
  };
  BatchOutcome out;

  // A fresh machine has measured neither its hand-off nor its local
  // sort rate, so even a one-owner batch goes to the VPs...
  EXPECT_EQ(machine.handoff_us(), 0.0);
  auto one = batch(1, std::size_t{1} << 16);
  double cpu = caller_cpu_us(machine, one, cfg, out);
  EXPECT_TRUE(out.sorted[0]);
  EXPECT_LT(cpu, 0.5 * charged_compute_us(out.report)) << "a fresh machine sorted inline";
  ASSERT_GT(machine.handoff_us(), 0.0);
  ASSERT_GT(machine.local_sort_us_per_key(), 0.0);

  // ...which measured both: one owner adds no serial work, so the same
  // batch now sorts on the calling thread.
  one = batch(1, std::size_t{1} << 16);
  cpu = caller_cpu_us(machine, one, cfg, out);
  EXPECT_TRUE(out.sorted[0]);
  EXPECT_TRUE(std::is_sorted(one[0].begin(), one[0].end()));
  EXPECT_GE(cpu, charged_compute_us(out.report)) << "a one-owner batch did not run inline";
  EXPECT_EQ(out.report.proc_us.size(), 4u);
  EXPECT_GT(out.report.proc_phases[0].compute(), 0.0) << "the item is charged to its owner";
  EXPECT_EQ(out.report.proc_phases[1].compute(), 0.0);

  // Four owners of 2^19 keys: inline would add three owners' sorts (about
  // 1.5M keys) of serial work, far more than one hand-off.
  auto four = batch(4, std::size_t{1} << 19);
  ASSERT_GT(3.0 * static_cast<double>(std::size_t{1} << 19) * machine.local_sort_us_per_key(),
            machine.handoff_us());
  cpu = caller_cpu_us(machine, four, cfg, out);
  for (const auto& item : four) EXPECT_TRUE(std::is_sorted(item.begin(), item.end()));
  EXPECT_LT(cpu, 0.5 * charged_compute_us(out.report)) << "a four-owner batch ran inline";

  // The watchdog contract holds on the calling thread too: an inline run
  // that overruns its deadline fails with a per-VP diagnosis.
  cfg.watchdog_seconds = 1e-9;
  one = batch(1, 1024);
  try {
    (void)caller_cpu_us(machine, one, cfg, out);
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    EXPECT_EQ(e.states().size(), 4u);
  }
  cfg.watchdog_seconds = 0;
  one = batch(1, 1024);
  cpu = caller_cpu_us(machine, one, cfg, out);
  EXPECT_TRUE(out.sorted[0]) << "the machine must stay usable after the timeout";
}

TEST(ApiBatch, BarrierTimeoutNamesTheOwningRequest) {
  // A batch run that wedges must say WHOSE request each stuck VP was
  // serving: the service passes per-item trace IDs via batch_item_ids
  // and the timeout diagnosis folds the (unambiguous) owner into the
  // per-VP snapshot and the what() text.
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kStraggler;
  rule.rank = 1;
  rule.exchange = 0;
  rule.real_ms = 500.0;  // real stall far beyond the watchdog budget
  plan.rules.push_back(rule);
  Config cfg;
  cfg.nprocs = 4;
  cfg.watchdog_seconds = 0.05;
  cfg.faults = &plan;
  auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 5);
  std::vector<std::uint32_t>* const items[1] = {&keys};
  const std::uint64_t ids[1] = {0x910a2dec89025cc1ull};
  cfg.batch_item_ids = ids;
  try {
    parallel_sort_batch_on(machine, items, cfg);
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    bool owned = false;
    for (const auto& s : e.states()) owned = owned || s.owner == ids[0];
    EXPECT_TRUE(owned) << "no VP snapshot carries the owning request";
    EXPECT_NE(std::string(e.what()).find(
                  "serving request " + util::hex_id(ids[0])),
              std::string::npos)
        << e.what();
  }
  machine.set_watchdog(0);  // disarm for any later reuse of the machine
}

// ---- the sorted flag -------------------------------------------------
// Without self_check, Outcome::sorted and BatchOutcome::sorted must equal
// std::is_sorted of the output, whether or not the run was damaged.

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kSmartBitonic,  Algorithm::kCyclicBlockedBitonic, Algorithm::kBlockedMergeBitonic,
    Algorithm::kNaiveBitonic,  Algorithm::kParallelRadix,        Algorithm::kSampleSort,
    Algorithm::kColumnSort};

/// A one-bit corruption of VP 1's send slot at exchange `exchange`, with
/// integrity checking off so the damage reaches the output.
fault::FaultPlan corrupt_at(std::uint64_t exchange, std::uint32_t bit) {
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCorrupt, 1, exchange, 0, 0, bit, 1});
  return plan;
}

/// Exchanges whose payload is keys only.  Radix sort's histogram
/// exchanges carry counts it indexes with, so only its last exchange (the
/// data of pass 4 of 4) is damaged: a rule that finds no eligible slot
/// there never fires, instead of moving on to a histogram.
std::vector<std::uint64_t> key_exchanges(Algorithm a) {
  if (a == Algorithm::kParallelRadix) return {7};
  return {0, 1, 2, 3};
}

bool keys_sorted(const std::vector<std::uint32_t>& keys) {
  return std::is_sorted(keys.begin(), keys.end());
}

TEST(ApiSortedFlag, MatchesOutputOnCleanAndCorruptedRuns) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  int unsorted_runs = 0;
  for (const auto algorithm : kAllAlgorithms) {
    Config cfg;
    cfg.nprocs = 4;
    cfg.algorithm = algorithm;
    auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 21);
    const auto clean = parallel_sort_on(machine, keys, cfg);
    EXPECT_TRUE(clean.sorted) << algorithm_name(algorithm);
    EXPECT_TRUE(keys_sorted(keys)) << algorithm_name(algorithm);

    cfg.integrity = false;
    for (const auto exchange : key_exchanges(algorithm)) {
      for (const std::uint32_t bit : {30u, 61u, 190u, 607u}) {
        const auto plan = corrupt_at(exchange, bit);
        cfg.faults = &plan;
        keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 21);
        try {
          const auto out = parallel_sort_on(machine, keys, cfg);
          EXPECT_EQ(out.sorted, keys_sorted(keys))
              << algorithm_name(algorithm) << " exchange " << exchange << " bit " << bit;
          unsorted_runs += keys_sorted(keys) ? 0 : 1;
        } catch (const bsort::Error&) {
          // A sort's own checks may reject the damaged payload.
        }
      }
    }
  }
  EXPECT_GT(unsorted_runs, 0) << "no corruption reached an output: the check has no teeth";
}

TEST(ApiSortedFlag, InversionOnlyAtAVpBoundary) {
  // Damaging the splitter sample of sample sort makes one VP partition
  // with different splitters than the others.  Each VP still merges
  // sorted runs, so every part stays sorted and any inversion sits where
  // one part ends and the next begins.
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 4;
  cfg.algorithm = Algorithm::kSampleSort;
  cfg.integrity = false;
  const auto input = util::generate_keys(1u << 12, util::KeyDistribution::kUniform31, 33);
  int boundary_only = 0;
  for (std::uint32_t bit = 0; bit < 256; bit += 5) {
    const auto plan = corrupt_at(0, bit);
    cfg.faults = &plan;
    auto keys = input;
    const auto out = parallel_sort_on(machine, keys, cfg);
    EXPECT_EQ(out.sorted, keys_sorted(keys)) << "bit " << bit;
    std::size_t descents = 0;
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) descents += keys[i] > keys[i + 1] ? 1 : 0;
    EXPECT_LE(descents, 3u) << "bit " << bit << ": an inversion inside a part";
    if (descents == 1) ++boundary_only;
  }
  EXPECT_GT(boundary_only, 0) << "no damaged sample produced a lone boundary inversion";
}

TEST(ApiSortedFlag, EmptyPartsAreSkipped) {
  // Heavy duplicates leave sample and radix sort with empty parts; the
  // boundary check compares only neighbouring non-empty parts, on clean
  // and damaged runs alike.
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  std::vector<std::uint32_t> input(1u << 10, 7);
  for (std::size_t i = 0; i < input.size(); i += 97) input[i] = 3;
  input[5] = 1u << 30;
  for (const auto algorithm : {Algorithm::kSampleSort, Algorithm::kParallelRadix}) {
    Config cfg;
    cfg.nprocs = 4;
    cfg.algorithm = algorithm;
    auto keys = input;
    EXPECT_TRUE(parallel_sort_on(machine, keys, cfg).sorted) << algorithm_name(algorithm);
    EXPECT_TRUE(keys_sorted(keys));
    cfg.integrity = false;
    for (const auto exchange : key_exchanges(algorithm)) {
      for (std::uint32_t bit = 1; bit < 200; bit += 13) {
        const auto plan = corrupt_at(exchange, bit);
        cfg.faults = &plan;
        keys = input;
        try {
          const auto out = parallel_sort_on(machine, keys, cfg);
          EXPECT_EQ(out.sorted, keys_sorted(keys))
              << algorithm_name(algorithm) << " exchange " << exchange << " bit " << bit;
        } catch (const bsort::Error&) {
        }
      }
    }
  }
}

TEST(ApiSortedFlag, BatchMixingLocalAndScatteredItems) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : kAllAlgorithms) {
    Config cfg;
    cfg.nprocs = 4;
    cfg.algorithm = algorithm;
    cfg.small_item_threshold = 256;
    cfg.integrity = false;
    for (const std::uint32_t bit : {0u, 45u, 333u}) {
      std::vector<std::vector<std::uint32_t>> reqs = {
          util::generate_keys(128, util::KeyDistribution::kUniform31, 1),
          util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 2),
          {},
          util::generate_keys(64, util::KeyDistribution::kUniform31, 3),
          util::generate_keys(1u << 11, util::KeyDistribution::kUniform31, 4)};
      std::vector<std::vector<std::uint32_t>*> items;
      for (auto& r : reqs) items.push_back(&r);
      // Radix: the last data exchange of the batch (2 scattered items x 8).
      const auto plan = corrupt_at(algorithm == Algorithm::kParallelRadix ? 15 : 0, bit);
      cfg.faults = bit == 0 ? nullptr : &plan;
      try {
        const auto out = parallel_sort_batch_on(machine, items, cfg);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          EXPECT_EQ(out.sorted[i], keys_sorted(reqs[i]))
              << algorithm_name(algorithm) << " bit " << bit << " item " << i;
        }
      } catch (const bsort::Error&) {
      }
    }
  }
}

TEST(ApiBatch, InvalidItemNamesItsIndexAndConstraint) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  Config cfg;
  cfg.nprocs = 4;
  auto good = util::generate_keys(1u << 8, util::KeyDistribution::kUniform31, 3);
  std::vector<std::uint32_t> bad(100, 1);  // not a power of two
  std::vector<std::uint32_t>* const items[2] = {&good, &bad};
  try {
    parallel_sort_batch_on(machine, items, cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch item 1"), std::string::npos) << what;
    EXPECT_NE(what.find("power of two"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bsort::api
