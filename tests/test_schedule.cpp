#include "schedule/smart_schedule.hpp"

#include <gtest/gtest.h>

#include "schedule/formulas.hpp"
#include "util/bits.hpp"

namespace bsort::schedule {
namespace {

std::uint64_t expected_total_steps(int log_n, int log_p) {
  return static_cast<std::uint64_t>(log_p) * static_cast<std::uint64_t>(log_n) +
         static_cast<std::uint64_t>(log_p) * (log_p + 1) / 2;
}

TEST(SmartSchedule, CoversAllStepsHead) {
  for (int log_n = 1; log_n <= 12; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      EXPECT_EQ(sched.total_steps(), expected_total_steps(log_n, log_p))
          << "log_n=" << log_n << " log_p=" << log_p;
    }
  }
}

TEST(SmartSchedule, CoversAllStepsTail) {
  for (int log_n = 1; log_n <= 12; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p, remaining_steps(log_n, log_p));
      EXPECT_EQ(sched.total_steps(), expected_total_steps(log_n, log_p))
          << "log_n=" << log_n << " log_p=" << log_p;
    }
  }
}

TEST(SmartSchedule, RemapCountMatchesFormulaHead) {
  // R_smart = ceil(lgP + lgP(lgP+1)/(2 lg n)) (Section 3.2.1).
  for (int log_n = 1; log_n <= 14; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      EXPECT_EQ(schedule_remaps(sched), smart_remap_count(log_n, log_p))
          << "log_n=" << log_n << " log_p=" << log_p;
    }
  }
}

TEST(SmartSchedule, UsualRegimeHasLgPPlusOneRemaps) {
  // lgP(lgP+1)/2 <= lg n  =>  R = lg P + 1.
  EXPECT_EQ(schedule_remaps(make_smart_schedule(17, 5)), 6u);
  EXPECT_EQ(schedule_remaps(make_smart_schedule(15, 5)), 6u);
  EXPECT_EQ(schedule_remaps(make_smart_schedule(20, 5)), 6u);
  // And fewer remaps than cyclic-blocked (2 lg P) whenever lg P >= 2.
  for (int log_p = 2; log_p <= 6; ++log_p) {
    const int log_n = log_p * (log_p + 1) / 2;
    EXPECT_LT(schedule_remaps(make_smart_schedule(log_n, log_p)),
              cyclic_blocked_remap_count(log_p));
  }
}

TEST(SmartSchedule, EveryWindowExecutesAtMostLgNSteps) {
  for (int log_n = 1; log_n <= 10; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      for (const auto& phase : sched.remaps) {
        EXPECT_GE(phase.steps, 1);
        EXPECT_LE(phase.steps, log_n);
      }
    }
  }
}

TEST(SmartSchedule, HeadExecutesFullWindowsExceptLast) {
  const auto sched = make_smart_schedule(4, 4);  // rem = 10 mod 4 = 2
  for (std::size_t i = 0; i + 1 < sched.remaps.size(); ++i) {
    EXPECT_EQ(sched.remaps[i].steps, 4);
  }
  EXPECT_EQ(sched.remaps.back().steps, 2);
}

TEST(SmartSchedule, TailExecutesShortChunkFirst) {
  const auto sched = make_smart_schedule(4, 4, remaining_steps(4, 4));  // rem = 2
  EXPECT_EQ(sched.remaps.front().steps, 2);
  for (std::size_t i = 1; i < sched.remaps.size(); ++i) {
    EXPECT_EQ(sched.remaps[i].steps, 4);
  }
}

TEST(SmartSchedule, LastRemapIsBlockedLayout) {
  for (int log_n = 2; log_n <= 8; ++log_n) {
    for (int log_p = 1; log_p <= 5; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      const auto& last = sched.remaps.back();
      if (last.params.kind == layout::SmartKind::kLast) {
        EXPECT_EQ(last.layout, layout::BitLayout::blocked(log_n, log_p));
      }
    }
  }
}

TEST(SmartSchedule, AtMostOneCrossingPerStage) {
  // Section 3.2.1: "we can have at most one crossing remap per stage."
  for (int log_n = 1; log_n <= 10; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      std::vector<int> crossings(static_cast<std::size_t>(log_p) + 2, 0);
      for (const auto& phase : sched.remaps) {
        if (phase.params.kind == layout::SmartKind::kCrossing) {
          crossings[static_cast<std::size_t>(phase.params.k)]++;
        }
      }
      for (const int c : crossings) EXPECT_LE(c, 1);
    }
  }
}

TEST(SmartSchedule, MiddleRemapAddsOneRemap) {
  // MiddleRemap1 (first chunk shorter than the remainder) adds a remap.
  const int log_n = 6, log_p = 4;  // rem = 10 mod 6 = 4
  const auto head = make_smart_schedule(log_n, log_p);
  const auto middle = make_smart_schedule(log_n, log_p, /*first_chunk=*/2);
  EXPECT_EQ(schedule_remaps(middle), schedule_remaps(head) + 1);
}

}  // namespace
}  // namespace bsort::schedule
