#include "psort/psort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "loggp/params.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace bsort::psort {
namespace {

using testing::run_vector_spmd;
using util::KeyDistribution;

struct Case {
  std::size_t total_keys;
  int nprocs;
  KeyDistribution dist;
};

class PsortTest : public ::testing::TestWithParam<Case> {};

TEST_P(PsortTest, ParallelRadixSorts) {
  const auto& c = GetParam();
  const auto input = util::generate_keys(c.total_keys, c.dist, c.total_keys + 1);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  const auto out = run_vector_spmd(
      input, c.nprocs, simd::MessageMode::kLong,
      [](simd::Proc& p, std::vector<std::uint32_t>& keys) { parallel_radix_sort(p, keys); });
  EXPECT_EQ(out, expected);
}

TEST_P(PsortTest, ParallelSampleSorts) {
  const auto& c = GetParam();
  const auto input = util::generate_keys(c.total_keys, c.dist, c.total_keys + 2);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  const auto out = run_vector_spmd(
      input, c.nprocs, simd::MessageMode::kLong,
      [](simd::Proc& p, std::vector<std::uint32_t>& keys) {
        parallel_sample_sort(p, keys);
      });
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PsortTest,
    ::testing::Values(Case{1u << 10, 4, KeyDistribution::kUniform31},
                      Case{1u << 12, 8, KeyDistribution::kUniform31},
                      Case{1u << 14, 16, KeyDistribution::kUniform31},
                      Case{1u << 12, 8, KeyDistribution::kLowEntropy},
                      Case{1u << 12, 8, KeyDistribution::kSorted},
                      Case{1u << 12, 8, KeyDistribution::kConstant},
                      Case{1u << 10, 1, KeyDistribution::kUniform31},
                      Case{1u << 10, 2, KeyDistribution::kReversed}));

TEST(SampleSort, LowEntropyStillCorrectThoughImbalanced) {
  // 16 distinct values across 8 processors: heavy imbalance but the
  // concatenated output must still be sorted.
  const auto input = util::generate_keys(1u << 12, KeyDistribution::kLowEntropy, 3);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  const auto out = run_vector_spmd(
      input, 8, simd::MessageMode::kLong,
      [](simd::Proc& p, std::vector<std::uint32_t>& keys) {
        parallel_sample_sort(p, keys);
      });
  EXPECT_EQ(out, expected);
}

TEST(RadixSort, PerPassVolumeIsBounded) {
  // Each of the 4 passes moves at most n keys per processor plus the
  // histogram traffic.
  const int P = 8;
  const std::size_t n = 1u << 10;
  const auto input = util::generate_keys(n * P, KeyDistribution::kUniform31, 4);
  std::vector<std::vector<std::uint32_t>> slices(P);
  for (int r = 0; r < P; ++r) {
    slices[static_cast<std::size_t>(r)].assign(
        input.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r) * n),
        input.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r + 1) * n));
  }
  simd::Machine machine(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
  auto rep = machine.run([&](simd::Proc& p) {
    parallel_radix_sort(p, slices[static_cast<std::size_t>(p.rank())]);
  });
  for (const auto& c : rep.proc_comm) {
    EXPECT_EQ(c.exchanges, 8u);  // histogram + keys per pass
    EXPECT_LE(c.elements_sent, 4 * (n + 256 * P));
  }
}


// ---- oracle grid: every input family x P x backend ---------------------

using OracleCase = std::tuple<KeyDistribution, int, backend::Kind>;

class PsortOracle : public ::testing::TestWithParam<OracleCase> {
 protected:
  static constexpr std::size_t kKeys = 1u << 12;


  /// The vector API and the facade (in place, VPs write the caller's
  /// keys) both against std::sort.
  void check(api::Algorithm algorithm,
             void (*sort)(simd::Proc&, std::vector<std::uint32_t>&)) const {
    const auto in = util::generate_keys(kKeys, std::get<0>(GetParam()), 11);
    auto want = in;
    std::sort(want.begin(), want.end());
    simd::Machine m(std::get<1>(GetParam()), loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                    backend::make(std::get<2>(GetParam())));
    simd::RunReport report;
    EXPECT_EQ(testing::run_vector_spmd_on(m, in, report, sort), want) << "vector API";

    api::Config cfg;
    cfg.nprocs = std::get<1>(GetParam());
    cfg.algorithm = algorithm;
    auto keys = in;
    EXPECT_TRUE(api::parallel_sort_on(m, keys, cfg).sorted);
    EXPECT_EQ(keys, want) << "facade";
  }
};

TEST_P(PsortOracle, RadixMatchesStdSort) {
  check(api::Algorithm::kParallelRadix,
        [](simd::Proc& p, std::vector<std::uint32_t>& k) { parallel_radix_sort(p, k); });
}

TEST_P(PsortOracle, SampleMatchesStdSort) {
  check(api::Algorithm::kSampleSort,
        [](simd::Proc& p, std::vector<std::uint32_t>& k) { parallel_sample_sort(p, k); });
}

std::string oracle_case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  static const char* const kDist[] = {"Uniform", "LowEntropy", "Sorted", "Reversed", "Constant"};
  return std::string(kDist[static_cast<int>(std::get<0>(info.param))]) + "_P" +
         std::to_string(std::get<1>(info.param)) + "_" +
         backend::kind_name(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PsortOracle,
    ::testing::Combine(::testing::Values(KeyDistribution::kUniform31, KeyDistribution::kLowEntropy,
                                         KeyDistribution::kConstant, KeyDistribution::kSorted,
                                         KeyDistribution::kReversed),
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(backend::Kind::kSimulated, backend::Kind::kNative)),
    oracle_case_name);

// ---- facade: pooled, fresh and batched calls agree bit for bit ---------

constexpr api::Algorithm kVectorSorts[] = {api::Algorithm::kParallelRadix,
                                           api::Algorithm::kSampleSort};

TEST(PsortFacade, PooledMatchesFreshMachine) {
  // The pooled machine's VPs keep their workspaces between calls, and
  // the calls shrink and grow, so a stale workspace would show.
  simd::Machine pooled(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : kVectorSorts) {
    api::Config cfg;
    cfg.nprocs = 4;
    cfg.algorithm = algorithm;
    std::uint64_t seed = 40;
    for (const std::size_t n : {1u << 13, 1u << 9, 1u << 14, 4u, 1u << 11}) {
      for (const auto dist : {KeyDistribution::kUniform31, KeyDistribution::kLowEntropy}) {
        const auto in = util::generate_keys(n, dist, seed++);
        auto fresh = in;
        auto reused = in;
        const auto a = api::parallel_sort(fresh, cfg);
        const auto b = api::parallel_sort_on(pooled, reused, cfg);
        EXPECT_EQ(fresh, reused) << api::algorithm_name(algorithm) << " n=" << n;
        EXPECT_EQ(a.sorted, b.sorted);
        EXPECT_TRUE(std::is_sorted(reused.begin(), reused.end()));
      }
    }
  }
}

TEST(PsortFacade, BatchOfLocalAndScatteredItemsMatchesOneByOne) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : kVectorSorts) {
    api::Config cfg;
    cfg.nprocs = 4;
    cfg.algorithm = algorithm;
    cfg.small_item_threshold = 256;  // items of <= 256 keys stay on one VP
    std::vector<std::vector<std::uint32_t>> items;
    std::uint64_t seed = 70;
    for (const std::size_t n : {1u << 10, 64u, 128u, 0u, 1u << 12, 256u, 1u << 9, 16u}) {
      items.push_back(util::generate_keys(n, KeyDistribution::kLowEntropy, seed++));
    }
    auto singles = items;
    std::vector<std::vector<std::uint32_t>*> ptrs;
    for (auto& item : items) ptrs.push_back(&item);
    const auto batch = api::parallel_sort_batch_on(machine, ptrs, cfg);
    for (std::size_t it = 0; it < singles.size(); ++it) {
      const auto one = api::parallel_sort_on(machine, singles[it], cfg);
      EXPECT_EQ(items[it], singles[it]) << api::algorithm_name(algorithm) << " item " << it;
      EXPECT_EQ(batch.sorted[it], one.sorted) << api::algorithm_name(algorithm) << " item " << it;
      EXPECT_TRUE(std::is_sorted(items[it].begin(), items[it].end()));
    }
  }
}

// ---- damaged messages: structured errors, never a result ---------------

/// One rule on VP 1's slot at exchange ordinal `exchange` (radix sort's
/// first key exchange and sample sort's partition exchange are both 1).
fault::FaultPlan one_rule(fault::FaultKind kind, std::uint64_t exchange) {
  fault::FaultPlan plan;
  plan.rules.push_back({kind, 1, exchange, 0, 0, /*bit=*/45, /*delta=*/3});
  return plan;
}

api::Config faulted(api::Algorithm algorithm, bool integrity, const fault::FaultPlan& plan) {
  api::Config cfg;
  cfg.nprocs = 4;
  cfg.algorithm = algorithm;
  cfg.integrity = integrity;
  cfg.faults = &plan;
  return cfg;
}

TEST(PsortFault, CorruptKeyExchangeThrowsIntegrityError) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  const auto plan = one_rule(fault::FaultKind::kCorrupt, 1);
  for (const auto algorithm : kVectorSorts) {
    for (const bool integrity : {true, false}) {
      auto cfg = faulted(algorithm, integrity, plan);
      cfg.self_check = !integrity;  // without seals only the self-check sees a flipped bit
      auto keys = util::generate_keys(1u << 12, KeyDistribution::kUniform31, 5);
      EXPECT_THROW((void)api::parallel_sort_on(machine, keys, cfg), IntegrityError)
          << api::algorithm_name(algorithm) << " integrity=" << integrity;
    }
  }
}

TEST(PsortFault, ResizedRadixMessageThrowsBeforeItIsRead) {
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto kind : {fault::FaultKind::kTruncate, fault::FaultKind::kOversize}) {
    const auto plan = one_rule(kind, 1);
    for (const bool integrity : {true, false}) {
      const auto cfg = faulted(api::Algorithm::kParallelRadix, integrity, plan);
      auto keys = util::generate_keys(1u << 12, KeyDistribution::kUniform31, 6);
      try {
        (void)api::parallel_sort_on(machine, keys, cfg);
        ADD_FAILURE() << fault::fault_kind_name(kind) << " returned a result";
      } catch (const IntegrityError& e) {
        EXPECT_TRUE(integrity) << e.what();
        EXPECT_EQ(e.sender(), 1);
      } catch (const ExchangeError& e) {
        EXPECT_FALSE(integrity) << e.what();
        EXPECT_EQ(e.peer(), 1) << e.what();
        EXPECT_NE(std::string(e.what()).find("from vp 1"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(PsortFault, ResizedColumnMessageThrowsBeforeItIsRead) {
  // Column sort knows every message's size (exchanges 0-3: transpose,
  // untranspose, shift, unshift); a resized one fails the run instead
  // of being written past the receiving column.
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto kind : {fault::FaultKind::kTruncate, fault::FaultKind::kOversize}) {
    for (std::uint64_t exchange = 0; exchange < 4; ++exchange) {
      const auto plan = one_rule(kind, exchange);
      for (const bool integrity : {true, false}) {
        const auto cfg = faulted(api::Algorithm::kColumnSort, integrity, plan);
        auto keys = util::generate_keys(1u << 12, KeyDistribution::kUniform31, 9);
        try {
          (void)api::parallel_sort_on(machine, keys, cfg);
          ADD_FAILURE() << fault::fault_kind_name(kind) << " at exchange " << exchange
                        << " returned a result";
        } catch (const IntegrityError& e) {
          EXPECT_TRUE(integrity) << e.what();
          EXPECT_EQ(e.sender(), 1);
        } catch (const ExchangeError& e) {
          EXPECT_FALSE(integrity) << e.what();
          EXPECT_EQ(e.peer(), 1) << e.what();
          EXPECT_NE(std::string(e.what()).find("from vp 1"), std::string::npos) << e.what();
        }
      }
    }
  }
}

TEST(PsortFault, ResizedSampleMessageThrows) {
  // Sample sort cannot predict one message's size, but the parts must
  // still tile the caller's keys: a resized message fails the run
  // instead of writing past them.
  simd::Machine machine(4, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto kind : {fault::FaultKind::kTruncate, fault::FaultKind::kOversize}) {
    const auto plan = one_rule(kind, 1);
    for (const bool integrity : {true, false}) {
      const auto cfg = faulted(api::Algorithm::kSampleSort, integrity, plan);
      auto keys = util::generate_keys(1u << 12, KeyDistribution::kUniform31, 8);
      if (integrity) {
        EXPECT_THROW((void)api::parallel_sort_on(machine, keys, cfg), IntegrityError);
      } else {
        EXPECT_THROW((void)api::parallel_sort_on(machine, keys, cfg), ExchangeError);
      }
      EXPECT_EQ(keys.size(), 1u << 12);
    }
  }
}

}  // namespace
}  // namespace bsort::psort
