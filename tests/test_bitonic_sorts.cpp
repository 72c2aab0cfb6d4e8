#include "bitonic/sorts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "bitonic/remap_exec.hpp"
#include "fault/error.hpp"
#include "loggp/params.hpp"
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

// ---- Shared remap programs --------------------------------------------
// (The suite name keeps these in the PlanCache group the TSan leg runs.)

/// Everything a program step carries must equal what the schedule and
/// the mask-plan builder derive for that remap from scratch.
void expect_step_matches(const RemapStep& st, const layout::BitLayout& from,
                         const layout::BitLayout& to, int stage, int step, int steps) {
  const auto want = layout::build_mask_plan(from, to);
  EXPECT_EQ(st.to, to);
  EXPECT_EQ(st.plan->kept_order, want.kept_order);
  EXPECT_EQ(st.plan->recv_order, want.recv_order);
  EXPECT_EQ(st.plan->dest_pattern, want.dest_pattern);
  EXPECT_EQ(st.plan->src_pattern, want.src_pattern);
  EXPECT_EQ(st.group_log2, want.bits_changed);
  EXPECT_EQ((std::vector{st.stage, st.step, st.steps}), (std::vector{stage, step, steps}));
  ASSERT_EQ(st.peers.size(), from.proc_count());
  for (std::uint64_t r = 0; r < from.proc_count(); ++r) {
    const auto& mine = st.peers[r];
    ASSERT_EQ(mine.send.size(), want.group_size());
    ASSERT_EQ(mine.recv.size(), want.group_size());
    ASSERT_EQ(mine.sizes.size(), want.group_size());
    for (std::size_t o = 0; o < want.group_size(); ++o) {
      const auto dest = layout::mask_plan_dest(from, to, want, r, o);
      EXPECT_EQ(mine.send[o], dest);
      EXPECT_EQ(mine.recv[o], layout::mask_plan_src(from, to, want, r, o));
      EXPECT_EQ(mine.sizes[o], dest == r ? 0 : want.message_size());
    }
  }
}

TEST(ProgramPlanCache, ProgramsMatchTheirSchedulesAndAreShared) {
  for (auto [log_n, log_p] : {std::pair{3, 2}, {5, 3}, {2, 4}, {9, 1}}) {
    for (const int first_chunk : {0, 1, log_n}) {
      const auto prog = remap_program(RemapSort::kSmart, log_n, log_p, first_chunk);
      const auto sched = schedule::make_smart_schedule(log_n, log_p, first_chunk);
      ASSERT_EQ(prog->steps.size(), sched.remaps.size());
      auto from = layout::BitLayout::blocked(log_n, log_p);
      for (std::size_t i = 0; i < sched.remaps.size(); ++i) {
        const auto& ph = sched.remaps[i];
        expect_step_matches(prog->steps[i], from, ph.layout, log_n + ph.params.k, ph.params.s,
                            ph.steps);
        from = ph.layout;
      }
      EXPECT_EQ(remap_program(RemapSort::kSmart, log_n, log_p, first_chunk).get(), prog.get());
    }
    // HeadRemap has two names and one program.
    EXPECT_EQ(remap_program(RemapSort::kSmart, log_n, log_p, 0).get(),
              remap_program(RemapSort::kSmart, log_n, log_p, log_n).get());

    const auto cyc = remap_program(RemapSort::kCyclicBlocked, log_n, log_p);
    const auto blocked = layout::BitLayout::blocked(log_n, log_p);
    const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
    ASSERT_EQ(cyc->steps.size(), 2u * static_cast<std::size_t>(log_p));
    for (int k = 1; k <= log_p; ++k) {
      const auto i = 2 * static_cast<std::size_t>(k - 1);
      expect_step_matches(cyc->steps[i], blocked, cyclic, log_n + k, log_n + k, k);
      expect_step_matches(cyc->steps[i + 1], cyclic, blocked, log_n + k, log_n, log_n);
      EXPECT_EQ(cyc->steps[i].to_tag, trace::LayoutTag::kCyclic);
      EXPECT_EQ(cyc->steps[i + 1].to_tag, trace::LayoutTag::kBlocked);
      // Each layout pair's tables exist once per program.
      EXPECT_EQ(cyc->steps[i].plan, cyc->steps[0].plan);
      EXPECT_EQ(cyc->steps[i + 1].plan, cyc->steps[1].plan);
    }
  }
}

TEST(ProgramPlanCache, RetainedBytesStayWithinBudgetWhileProgramsPinPlans) {
  // Programs of growing shapes, every one kept alive (pinning its plans)
  // while later ones push earlier ones out of the memo.
  std::vector<std::shared_ptr<const RemapProgram>> pinned;
  std::size_t offered = 0;
  for (int log_n = 12; log_n <= 19; ++log_n) {
    for (const int log_p : {1, 2}) {
      for (const auto sort : {RemapSort::kSmart, RemapSort::kCyclicBlocked}) {
        const auto prog = remap_program(sort, log_n, log_p);
        std::set<const layout::MaskPlan*> plans;
        for (const auto& step : prog->steps) plans.insert(step.plan.get());
        std::size_t plan_bytes = 0;
        for (const auto* plan : plans) plan_bytes += plan->table_bytes();
        EXPECT_GE(prog->bytes(), plan_bytes) << "a program is charged for the plans it pins";
        offered += prog->bytes();
        pinned.push_back(prog);
        const auto st = layout::mask_plan_memo_stats();
        ASSERT_LE(st.bytes, layout::kMaskPlanMemoBudget) << "log_n " << log_n;
      }
    }
  }
  ASSERT_GT(offered, 2 * layout::kMaskPlanMemoBudget);
  // An evicted shape comes back as an equal program.
  const auto again = remap_program(RemapSort::kSmart, 12, 2);
  ASSERT_EQ(again->steps.size(), pinned[2]->steps.size());
  for (std::size_t i = 0; i < again->steps.size(); ++i) {
    EXPECT_EQ(again->steps[i].to, pinned[2]->steps[i].to);
    EXPECT_EQ(again->steps[i].plan->kept_order, pinned[2]->steps[i].plan->kept_order);
    EXPECT_EQ(again->steps[i].peers[1].send, pinned[2]->steps[i].peers[1].send);
  }
  // A program larger than the whole budget is handed out, not kept.
  const auto huge = remap_program(RemapSort::kSmart, 20, 1);
  EXPECT_GT(huge->bytes(), layout::kMaskPlanMemoBudget);
  EXPECT_NE(remap_program(RemapSort::kSmart, 20, 1).get(), huge.get());
  EXPECT_LE(layout::mask_plan_memo_stats().bytes, layout::kMaskPlanMemoBudget);
}

TEST(ProgramPlanCache, MachinesOfDifferentPSortConcurrently) {
  // Two pooled machines of different P alternate smart and cyclic-blocked
  // calls of changing sizes on their own threads, so their VPs fetch and
  // insert programs in the one memo at the same time.
  const auto worker = [](int nprocs, std::uint64_t seed, int& failures) {
    simd::Machine m(nprocs, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                    backend::make_simulated());
    api::Config cfg;
    cfg.nprocs = nprocs;
    for (int round = 0; round < 6; ++round) {
      cfg.algorithm = round % 2 == 0 ? api::Algorithm::kSmartBitonic
                                     : api::Algorithm::kCyclicBlockedBitonic;
      const std::size_t total = std::size_t{1} << (10 + round % 3);
      auto keys = util::generate_keys(total, KeyDistribution::kUniform31, seed + round);
      auto want = keys;
      std::sort(want.begin(), want.end());
      try {
        const auto out = api::parallel_sort_on(m, keys, cfg);
        if (!out.sorted || keys != want) ++failures;
      } catch (const std::exception&) {
        ++failures;  // e.g. a program of the other machine's P
      }
    }
  };
  int failures4 = 0;
  int failures8 = 0;
  std::thread t4(worker, 4, 100, std::ref(failures4));
  std::thread t8(worker, 8, 200, std::ref(failures8));
  t4.join();
  t8.join();
  EXPECT_EQ(failures4, 0);
  EXPECT_EQ(failures8, 0);
  EXPECT_LE(layout::mask_plan_memo_stats().bytes, layout::kMaskPlanMemoBudget);
}

}  // namespace
}  // namespace bsort::bitonic
