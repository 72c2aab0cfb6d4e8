#include "psort/column_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "bitonic/sorts.hpp"
#include "test_helpers.hpp"
#include "util/random.hpp"

namespace bsort::psort {
namespace {

using testing::run_blocked_spmd;
using util::KeyDistribution;

TEST(ColumnSort, ShapeCondition) {
  EXPECT_TRUE(column_sort_shape_ok(1, 1));
  EXPECT_TRUE(column_sort_shape_ok(2, 2));      // r >= 2*(1)^2
  EXPECT_TRUE(column_sort_shape_ok(32, 4));     // 32 >= 2*9
  EXPECT_FALSE(column_sort_shape_ok(16, 4));    // 16 < 18
  EXPECT_TRUE(column_sort_shape_ok(128, 8));    // 128 >= 98
  EXPECT_FALSE(column_sort_shape_ok(64, 8));    // 64 < 98
  EXPECT_TRUE(column_sort_shape_ok(512, 16));   // 512 >= 450
  EXPECT_FALSE(column_sort_shape_ok(256, 16));  // 256 < 450
}

struct Case {
  std::size_t total_keys;
  int nprocs;
  KeyDistribution dist;
};

class ColumnSortTest : public ::testing::TestWithParam<Case> {};

TEST_P(ColumnSortTest, Sorts) {
  const auto& c = GetParam();
  ASSERT_TRUE(column_sort_shape_ok(c.total_keys / static_cast<std::size_t>(c.nprocs),
                                   static_cast<std::uint64_t>(c.nprocs)));
  auto keys = util::generate_keys(c.total_keys, c.dist, c.total_keys + 5);
  auto want = keys;
  std::sort(want.begin(), want.end());
  run_blocked_spmd(keys, c.nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) { column_sort(p, s); });
  EXPECT_EQ(keys, want);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ColumnSortTest,
    ::testing::Values(Case{1u << 7, 2, KeyDistribution::kUniform31},
                      Case{1u << 8, 4, KeyDistribution::kUniform31},
                      Case{1u << 10, 8, KeyDistribution::kUniform31},
                      Case{1u << 13, 16, KeyDistribution::kUniform31},
                      Case{1u << 10, 8, KeyDistribution::kLowEntropy},
                      Case{1u << 10, 8, KeyDistribution::kSorted},
                      Case{1u << 10, 8, KeyDistribution::kReversed},
                      Case{1u << 10, 8, KeyDistribution::kConstant},
                      Case{1u << 8, 1, KeyDistribution::kUniform31}));

TEST(ColumnSort, AgreesWithSmartBitonic) {
  const auto input = util::generate_keys(1u << 12, KeyDistribution::kUniform31, 99);
  auto a = input;
  auto b = input;
  run_blocked_spmd(a, 8, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) { column_sort(p, s); });
  run_blocked_spmd(b, 8, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     bitonic::smart_sort(p, s);
                   });
  EXPECT_EQ(a, b);
}

TEST(ColumnSort, CommunicationStepCount) {
  // Column sort has exactly four communication phases (two of them
  // all-to-all); our implementation issues 4 exchanges per processor.
  // Each transpose sends the r - r/s keys bound for the other columns in
  // s - 1 messages; each shift sends half a column in one message,
  // except from the edge processor (the last one down, the first up).
  for (const auto& [total, P] : {std::pair{1u << 8, 4}, std::pair{1u << 10, 8},
                                 std::pair{1u << 13, 16}, std::pair{1u << 7, 2}}) {
    auto keys = util::generate_keys(total, KeyDistribution::kUniform31, 1);
    const auto rep = run_blocked_spmd(
        keys, P, simd::MessageMode::kLong,
        [](simd::Proc& p, std::span<std::uint32_t> s) { column_sort(p, s); });
    const std::uint64_t s = static_cast<std::uint64_t>(P);
    const std::uint64_t r = total / s;
    ASSERT_EQ(rep.proc_comm.size(), s);
    for (std::uint64_t j = 0; j < s; ++j) {
      const auto& c = rep.proc_comm[j];
      const std::uint64_t shifts = (j + 1 < s ? 1 : 0) + (j > 0 ? 1 : 0);
      EXPECT_EQ(c.exchanges, 4u) << "P " << P << " vp " << j;
      EXPECT_EQ(c.elements_sent, 2 * (r - r / s) + shifts * (r / 2)) << "P " << P << " vp " << j;
      EXPECT_EQ(c.messages_sent, 2 * (s - 1) + shifts) << "P " << P << " vp " << j;
    }
  }
}

}  // namespace
}  // namespace bsort::psort
