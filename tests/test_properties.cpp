// Property-style sweeps (parameterized): seed sweeps for every sort,
// exhaustive small shapes, and cross-strategy consistency.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/parallel_sort.hpp"
#include "bitonic/sorts.hpp"
#include "net/sequence.hpp"
#include "psort/column_sort.hpp"
#include "schedule/formulas.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace bsort {
namespace {

using testing::run_blocked_spmd;

// -- Seed sweep: the smart sort across many random inputs ---------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SmartSortsEverySeed) {
  auto keys = util::generate_keys(1u << 11, util::KeyDistribution::kUniform31,
                                  GetParam());
  auto want = keys;
  std::sort(want.begin(), want.end());
  run_blocked_spmd(keys, 8, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::smart_sort(p, s);
                   });
  EXPECT_EQ(keys, want);
}

TEST_P(SeedSweep, SmartSortsEverySeedOn16Procs) {
  // 64 keys per VP on 16 VPs: several remaps per stage.
  auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31,
                                  GetParam() + 1000);
  auto want = keys;
  std::sort(want.begin(), want.end());
  run_blocked_spmd(keys, 16, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::smart_sort(p, s);
                   });
  EXPECT_EQ(keys, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<std::uint64_t>(0, 16));

// -- Exhaustive tiny shapes ----------------------------------------------

TEST(TinyShapes, SmartSortAllShapesUpTo256) {
  // Every (lg n, lg P) with lg n in 1..4 and lg P in 1..4.
  for (int log_n = 1; log_n <= 4; ++log_n) {
    for (int log_p = 1; log_p <= 4; ++log_p) {
      const std::size_t total = std::size_t{1} << (log_n + log_p);
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31, seed);
        auto want = keys;
        std::sort(want.begin(), want.end());
        run_blocked_spmd(keys, 1 << log_p, simd::MessageMode::kLong,
                         [](simd::Proc& p, std::span<std::uint32_t> s) {
                           bitonic::smart_sort(p, s);
                         });
        EXPECT_EQ(keys, want)
            << "log_n=" << log_n << " log_p=" << log_p << " seed=" << seed;
      }
    }
  }
}

TEST(TinyShapes, TailStrategyAllShapes) {
  for (int log_n = 1; log_n <= 4; ++log_n) {
    for (int log_p = 1; log_p <= 4; ++log_p) {
      const std::size_t total = std::size_t{1} << (log_n + log_p);
      auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31,
                                      total);
      auto want = keys;
      std::sort(want.begin(), want.end());
      run_blocked_spmd(keys, 1 << log_p, simd::MessageMode::kLong,
                       [&](simd::Proc& p, std::span<std::uint32_t> s) {
                         bitonic::smart_sort(p, s,
                                             schedule::remaining_steps(log_n, log_p));
                       });
      EXPECT_EQ(keys, want) << "log_n=" << log_n << " log_p=" << log_p;
    }
  }
}

// -- Bitonic-split invariant on network-produced data --------------------

TEST(Invariants, SplitPreservesBitonicityRecursively) {
  // Split a large bitonic sequence repeatedly; both halves must stay
  // bitonic, be value-separated, and eventually become sorted.
  std::vector<std::uint32_t> v(1024);
  for (std::size_t i = 0; i < 512; ++i) v[i] = static_cast<std::uint32_t>(i * 7 % 4096);
  std::sort(v.begin(), v.begin() + 512);
  for (std::size_t i = 512; i < 1024; ++i) {
    v[i] = static_cast<std::uint32_t>((1024 - i) * 5 % 4096);
  }
  std::sort(v.begin() + 512, v.end(), std::greater<>());
  ASSERT_TRUE(net::is_bitonic(v));
  for (std::size_t block = v.size(); block >= 2; block /= 2) {
    for (std::size_t base = 0; base < v.size(); base += block) {
      std::span<std::uint32_t> s(v.data() + base, block);
      ASSERT_TRUE(net::is_bitonic(s));
      net::bitonic_split(s);
      const auto lo_max = *std::max_element(s.begin(), s.begin() + block / 2);
      const auto hi_min = *std::min_element(s.begin() + block / 2, s.end());
      EXPECT_LE(lo_max, hi_min);
    }
  }
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// -- Strided generic min-search ------------------------------------------

TEST(Invariants, GenericMinSearchOnStridedView) {
  const std::size_t count = 257;  // non-power-of-two on purpose
  const std::size_t stride = 3;
  std::vector<std::uint32_t> flat(count * stride, 0);
  // Build a rotated rise-fall sequence in the strided slots.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = (i + 71) % count;
    const std::uint32_t val = static_cast<std::uint32_t>(
        r < count / 2 ? 2 * r : 2 * (count - r) - 1);
    flat[i * stride] = val;
  }
  const auto res = net::bitonic_min_index_log_generic(
      count, [&](std::size_t i) { return flat[i * stride]; });
  std::uint32_t expect = flat[0];
  for (std::size_t i = 0; i < count; ++i) expect = std::min(expect, flat[i * stride]);
  EXPECT_EQ(flat[res.index * stride], expect);
}

// -- Cross-algorithm consistency over distributions -----------------------

class DistributionSweep
    : public ::testing::TestWithParam<util::KeyDistribution> {};

TEST_P(DistributionSweep, AllAlgorithmsAgree) {
  const auto input = util::generate_keys(1u << 13, GetParam(), 4242);
  auto want = input;
  std::sort(want.begin(), want.end());
  for (const auto alg :
       {api::Algorithm::kSmartBitonic, api::Algorithm::kBlockedMergeBitonic,
        api::Algorithm::kCyclicBlockedBitonic, api::Algorithm::kNaiveBitonic,
        api::Algorithm::kParallelRadix, api::Algorithm::kSampleSort,
        api::Algorithm::kColumnSort}) {
    api::Config cfg;
    cfg.nprocs = 8;
    cfg.algorithm = alg;
    ASSERT_TRUE(api::config_valid(cfg, input.size()));
    auto keys = input;
    const auto outcome = api::parallel_sort(keys, cfg);
    EXPECT_TRUE(outcome.sorted) << api::algorithm_name(alg);
    EXPECT_EQ(keys, want) << api::algorithm_name(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(Distros, DistributionSweep,
                         ::testing::Values(util::KeyDistribution::kUniform31,
                                           util::KeyDistribution::kLowEntropy,
                                           util::KeyDistribution::kSorted,
                                           util::KeyDistribution::kReversed,
                                           util::KeyDistribution::kConstant));

}  // namespace
}  // namespace bsort
