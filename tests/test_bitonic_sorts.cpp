#include "bitonic/sorts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/error.hpp"
#include "schedule/formulas.hpp"
#include "schedule/smart_schedule.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace bsort::bitonic {
namespace {

using testing::run_blocked_spmd;
using util::KeyDistribution;

struct Case {
  std::size_t total_keys;
  int nprocs;
  KeyDistribution dist;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  std::string d;
  switch (c.dist) {
    case KeyDistribution::kUniform31: d = "Uniform"; break;
    case KeyDistribution::kLowEntropy: d = "LowEntropy"; break;
    case KeyDistribution::kSorted: d = "Sorted"; break;
    case KeyDistribution::kReversed: d = "Reversed"; break;
    case KeyDistribution::kConstant: d = "Constant"; break;
  }
  return "N" + std::to_string(c.total_keys) + "_P" + std::to_string(c.nprocs) + "_" + d;
}

class BitonicSortTest : public ::testing::TestWithParam<Case> {
 protected:
  std::vector<std::uint32_t> make_input() const {
    return util::generate_keys(GetParam().total_keys, GetParam().dist,
                               GetParam().total_keys + 13);
  }
  std::vector<std::uint32_t> expected(const std::vector<std::uint32_t>& in) const {
    auto e = in;
    std::sort(e.begin(), e.end());
    return e;
  }
};

TEST_P(BitonicSortTest, NaiveBlocked) {
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, GetParam().nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     naive_blocked_sort(p, s);
                   });
  EXPECT_EQ(keys, want);
}

TEST_P(BitonicSortTest, BlockedMerge) {
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, GetParam().nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     blocked_merge_sort(p, s);
                   });
  EXPECT_EQ(keys, want);
}

TEST_P(BitonicSortTest, CyclicBlocked) {
  const auto& c = GetParam();
  const std::size_t n = c.total_keys / static_cast<std::size_t>(c.nprocs);
  if (n < static_cast<std::size_t>(c.nprocs)) {
    GTEST_SKIP() << "cyclic-blocked requires N >= P^2";
  }
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, c.nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     cyclic_blocked_sort(p, s);
                   });
  EXPECT_EQ(keys, want);
}

TEST_P(BitonicSortTest, SmartCompareExchange) {
  // Smart's one local computation: every post-remap window runs its
  // compare-exchange steps on the fused network kernel.
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, GetParam().nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) { smart_sort(p, s); });
  EXPECT_EQ(keys, want);
}

TEST_P(BitonicSortTest, SmartTailStrategy) {
  // TailRemap (Lemma 5): the short chunk of rem steps comes first.
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, GetParam().nprocs, simd::MessageMode::kLong,
                   [](simd::Proc& p, std::span<std::uint32_t> s) {
                     const int log_n = util::ilog2(s.size());
                     const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
                     smart_sort(p, s, schedule::remaining_steps(log_n, log_p));
                   });
  EXPECT_EQ(keys, want);
}

TEST_P(BitonicSortTest, SmartShortMessages) {
  auto keys = make_input();
  const auto want = expected(keys);
  run_blocked_spmd(keys, GetParam().nprocs, simd::MessageMode::kShort,
                   [](simd::Proc& p, std::span<std::uint32_t> s) { smart_sort(p, s); });
  EXPECT_EQ(keys, want);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BitonicSortTest,
    ::testing::Values(
        // Usual regime (n >= P and lgP(lgP+1)/2 <= lg n).
        Case{1u << 10, 4, KeyDistribution::kUniform31},
        Case{1u << 12, 8, KeyDistribution::kUniform31},
        Case{1u << 14, 16, KeyDistribution::kUniform31},
        Case{1u << 15, 32, KeyDistribution::kUniform31},
        // Tight regimes: small n relative to P (multiple remaps per
        // stage, inside-after-inside cases).
        Case{1u << 8, 16, KeyDistribution::kUniform31},
        Case{1u << 7, 32, KeyDistribution::kUniform31},
        Case{1u << 6, 16, KeyDistribution::kUniform31},  // n = 4 < P
        Case{64, 32, KeyDistribution::kUniform31},       // n = 2 < P
        // Degenerate processor counts.
        Case{1u << 8, 1, KeyDistribution::kUniform31},
        Case{1u << 8, 2, KeyDistribution::kUniform31},
        // Adversarial distributions.
        Case{1u << 12, 8, KeyDistribution::kLowEntropy},
        Case{1u << 12, 8, KeyDistribution::kSorted},
        Case{1u << 12, 8, KeyDistribution::kReversed},
        Case{1u << 12, 8, KeyDistribution::kConstant},
        Case{1u << 10, 16, KeyDistribution::kLowEntropy}),
    case_name);

TEST(SmartSort, MiddleRemapChunksSort) {
  // Arbitrary first-chunk overrides (MiddleRemap variants of Lemma 5).
  for (const int first_chunk : {1, 2, 3}) {
    auto keys = util::generate_keys(1u << 10, KeyDistribution::kUniform31, 99);
    auto want = keys;
    std::sort(want.begin(), want.end());
    run_blocked_spmd(keys, 8, simd::MessageMode::kLong,
                     [&](simd::Proc& p, std::span<std::uint32_t> s) {
                       smart_sort(p, s, first_chunk);
                     });
    EXPECT_EQ(keys, want) << "first_chunk=" << first_chunk;
  }
}

TEST(SmartSort, CommunicationVolumeMatchesClosedForm) {
  // The machine's measured per-processor volume must equal the schedule's
  // predicted volume (Section 3.2.1).
  const int P = 8;
  const std::size_t n = 1u << 9;
  auto keys = util::generate_keys(n * P, KeyDistribution::kUniform31, 5);
  auto rep = run_blocked_spmd(keys, P, simd::MessageMode::kLong,
                              [](simd::Proc& p, std::span<std::uint32_t> s) {
                                smart_sort(p, s);
                              });
  const auto predicted = schedule::smart_volume_per_proc(9, 3);
  for (const auto& c : rep.proc_comm) {
    EXPECT_EQ(c.elements_sent, predicted);
    EXPECT_EQ(c.exchanges, schedule::smart_remap_count(9, 3));
  }
}

TEST(CyclicBlocked, CommunicationVolumeMatchesClosedForm) {
  const int P = 8;
  const std::size_t n = 1u << 9;
  auto keys = util::generate_keys(n * P, KeyDistribution::kUniform31, 6);
  auto rep = run_blocked_spmd(keys, P, simd::MessageMode::kLong,
                              [](simd::Proc& p, std::span<std::uint32_t> s) {
                                cyclic_blocked_sort(p, s);
                              });
  const auto predicted = schedule::cyclic_blocked_volume_per_proc(9, 3);
  for (const auto& c : rep.proc_comm) {
    EXPECT_EQ(c.elements_sent, predicted);
    EXPECT_EQ(c.exchanges, schedule::cyclic_blocked_remap_count(3));
  }
}

TEST(BlockedMerge, CommunicationVolumeMatchesClosedForm) {
  const int P = 8;
  const std::size_t n = 1u << 9;
  auto keys = util::generate_keys(n * P, KeyDistribution::kUniform31, 7);
  auto rep = run_blocked_spmd(keys, P, simd::MessageMode::kLong,
                              [](simd::Proc& p, std::span<std::uint32_t> s) {
                                blocked_merge_sort(p, s);
                              });
  const auto predicted = schedule::blocked_volume_per_proc(9, 3);
  for (const auto& c : rep.proc_comm) {
    EXPECT_EQ(c.elements_sent, predicted);
    // One message per remote step.
    EXPECT_EQ(c.messages_sent, 6u);
  }
}

TEST(SmartSort, HeadAndTailAllShapes) {
  // Every shape under HeadRemap (first_chunk 0) and TailRemap (first_chunk
  // rem) sorts, and each VP makes exactly the schedule's remaps and moves
  // exactly its modelled volume.  Below n = P some remaps have ranks that
  // keep none of their keys (asymmetric groups), so there the model is a
  // lower bound.
  for (int log_n = 1; log_n <= 8; ++log_n) {
    for (int log_p = 1; log_p <= 5; ++log_p) {
      for (const int first_chunk : {0, schedule::remaining_steps(log_n, log_p)}) {
        const std::size_t total = std::size_t{1} << (log_n + log_p);
        auto keys = util::generate_keys(total, KeyDistribution::kLowEntropy,
                                        total + static_cast<std::size_t>(log_n));
        auto want = keys;
        std::sort(want.begin(), want.end());
        const auto rep = run_blocked_spmd(keys, 1 << log_p, simd::MessageMode::kLong,
                                          [&](simd::Proc& p, std::span<std::uint32_t> s) {
                                            smart_sort(p, s, first_chunk);
                                          });
        const auto sched = schedule::make_smart_schedule(log_n, log_p, first_chunk);
        const std::string where = "log_n=" + std::to_string(log_n) + " log_p=" +
                                  std::to_string(log_p) +
                                  " first_chunk=" + std::to_string(first_chunk);
        ASSERT_EQ(keys, want) << where;
        const auto volume = schedule::schedule_volume_per_proc(sched);
        for (std::size_t r = 0; r < rep.proc_comm.size(); ++r) {
          EXPECT_EQ(rep.proc_comm[r].exchanges, schedule::schedule_remaps(sched))
              << where << " rank=" << r;
          if (log_n >= log_p) {
            EXPECT_EQ(rep.proc_comm[r].elements_sent, volume) << where << " rank=" << r;
          } else {
            EXPECT_GE(rep.proc_comm[r].elements_sent, volume) << where << " rank=" << r;
          }
        }
      }
    }
  }
}

TEST(SmartSort, RejectsOutOfRangeFirstChunk) {
  // P = 4, 16 keys per VP (lg n = 4): first_chunk must lie in [0, 4].
  const int log_n = 4;
  for (const int first_chunk : {-1, log_n + 1}) {
    auto keys = util::generate_keys(64, KeyDistribution::kUniform31, 3);
    EXPECT_THROW(run_blocked_spmd(keys, 4, simd::MessageMode::kLong,
                                  [&](simd::Proc& p, std::span<std::uint32_t> s) {
                                    smart_sort(p, s, first_chunk);
                                  }),
                 ConfigError)
        << "first_chunk=" << first_chunk;
    EXPECT_THROW(schedule::make_smart_schedule(log_n, 2, first_chunk), ConfigError)
        << "first_chunk=" << first_chunk;
  }
}

}  // namespace
}  // namespace bsort::bitonic
