#include "schedule/formulas.hpp"

#include <gtest/gtest.h>

#include "layout/remap.hpp"
#include "schedule/smart_schedule.hpp"
#include "util/bits.hpp"

namespace bsort::schedule {
namespace {

TEST(Formulas, RemainingSteps) {
  EXPECT_EQ(remaining_steps(4, 4), 2);   // 10 mod 4
  EXPECT_EQ(remaining_steps(10, 4), 0);  // 10 mod 10
  EXPECT_EQ(remaining_steps(15, 5), 0);  // 15 mod 15
  EXPECT_EQ(remaining_steps(16, 5), 15);
}

TEST(Formulas, AkRecurrence) {
  // a_{k+1} = (a_k + k) mod lg n, a_1 = 0.
  for (int log_n = 1; log_n <= 12; ++log_n) {
    int a = 0;
    for (int k = 1; k <= 8; ++k) {
      EXPECT_EQ(a_k(log_n, k), a) << "log_n=" << log_n << " k=" << k;
      a = (a + k) % log_n;
    }
  }
}

// Lemma 3, validated against real layouts: the predicted N_BitsChanged of
// every remap in a schedule equals the measured bit change between the
// actual consecutive layouts.
TEST(Formulas, Lemma3MatchesMeasuredBitsChanged) {
  for (int log_n = 1; log_n <= 9; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      auto prev = layout::BitLayout::blocked(log_n, log_p);
      for (const auto& phase : sched.remaps) {
        const int measured = layout::bits_changed(prev, phase.layout);
        const int predicted =
            predicted_bits_changed(log_n, log_p, phase.params.k, phase.params.s);
        EXPECT_EQ(measured, predicted)
            << "log_n=" << log_n << " log_p=" << log_p << " k=" << phase.params.k
            << " s=" << phase.params.s;
        prev = phase.layout;
        if (phase.params.kind == layout::SmartKind::kCrossing) {
          prev = layout::BitLayout::smart_phase2(log_n, log_p, phase.params);
        }
      }
    }
  }
}

// Section 3.2.1: the closed-form volume matches the volume measured from
// the generated schedule's layouts.
TEST(Formulas, SmartVolumeMatchesSchedule) {
  for (int log_n = 1; log_n <= 9; ++log_n) {
    for (int log_p = 1; log_p <= 6; ++log_p) {
      const auto sched = make_smart_schedule(log_n, log_p);
      EXPECT_EQ(schedule_volume_per_proc(sched), smart_volume_per_proc(log_n, log_p))
          << "log_n=" << log_n << " log_p=" << log_p;
    }
  }
}

TEST(Formulas, UsualRegimeVolumeIsNLgP) {
  // For lgP(lgP+1)/2 <= lg n, V_smart = n lg P (Section 3.2.1).
  for (int log_p = 1; log_p <= 6; ++log_p) {
    const int log_n = log_p * (log_p + 1) / 2 + 1;
    const std::uint64_t n = std::uint64_t{1} << log_n;
    EXPECT_EQ(smart_volume_per_proc(log_n, log_p),
              n * static_cast<std::uint64_t>(log_p));
  }
}

TEST(Formulas, SmartBeatsCyclicBlockedVolume) {
  // V_cyclic-blocked / V_smart ~= 2(1 - 1/P).
  for (int log_p = 2; log_p <= 6; ++log_p) {
    const int log_n = log_p * (log_p + 1) / 2 + 2;
    const auto vs = smart_volume_per_proc(log_n, log_p);
    const auto vc = cyclic_blocked_volume_per_proc(log_n, log_p);
    const double P = static_cast<double>(std::uint64_t{1} << log_p);
    EXPECT_NEAR(static_cast<double>(vc) / static_cast<double>(vs), 2.0 * (1.0 - 1.0 / P),
                1e-9);
  }
}

// Lemma 5: V_tail <= V_head <= V_middle1; V_tail <= V_middle2 (for
// n >= P^2); and V_tail == V_head in the usual regime.
TEST(Formulas, Lemma5ShiftInequalities) {
  for (int log_p = 2; log_p <= 5; ++log_p) {
    for (int log_n = 2 * log_p; log_n <= 2 * log_p + 6; ++log_n) {
      const auto v_head = schedule_volume_per_proc(make_smart_schedule(log_n, log_p));
      const int rem = remaining_steps(log_n, log_p);
      const auto v_tail = schedule_volume_per_proc(make_smart_schedule(log_n, log_p, rem));
      EXPECT_LE(v_tail, v_head) << "log_n=" << log_n << " log_p=" << log_p;
      if (rem > 1) {
        // MiddleRemap1: split the remainder across first and last chunks.
        const auto v_m1 = schedule_volume_per_proc(
            make_smart_schedule(log_n, log_p, rem / 2));
        EXPECT_GT(v_m1, v_head) << "log_n=" << log_n << " log_p=" << log_p;
      }
      if (rem > 0 && rem < log_n - 1) {
        // MiddleRemap2: first chunk between rem and lg n.
        const auto v_m2 = schedule_volume_per_proc(
            make_smart_schedule(log_n, log_p, rem + 1));
        EXPECT_GE(v_m2, v_tail) << "log_n=" << log_n << " log_p=" << log_p;
      }
      if (log_p * (log_p + 1) / 2 <= log_n) {
        EXPECT_EQ(v_tail, v_head);
      }
    }
  }
}

TEST(Formulas, BlockedVolume) {
  EXPECT_EQ(blocked_volume_per_proc(4, 3), 16u * 6u);
}

}  // namespace
}  // namespace bsort::schedule
