#include "layout/remap.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "schedule/smart_schedule.hpp"
#include "util/bits.hpp"

namespace bsort::layout {
namespace {

/// Simulate a remap with the plan on every processor and verify each key
/// (tagged with its absolute address) lands exactly where layout `to`
/// says it should.
void check_plan_roundtrip(const BitLayout& from, const BitLayout& to) {
  const std::uint64_t P = from.proc_count();
  const std::uint64_t n = from.local_size();
  // data[proc][local] = absolute address stored there (under `from`).
  std::vector<std::vector<std::uint32_t>> data(P, std::vector<std::uint32_t>(n));
  for (std::uint64_t pr = 0; pr < P; ++pr) {
    for (std::uint64_t l = 0; l < n; ++l) {
      data[pr][l] = static_cast<std::uint32_t>(from.abs_of(pr, l));
    }
  }
  // Mailboxes: message from src to dst.
  std::vector<std::vector<std::vector<std::uint32_t>>> box(
      P, std::vector<std::vector<std::uint32_t>>(P));
  std::vector<ExchangePlan> plans;
  plans.reserve(P);
  for (std::uint64_t pr = 0; pr < P; ++pr) {
    plans.push_back(build_exchange_plan(from, to, pr));
  }
  const auto st = analyze_remap(from, to);
  for (std::uint64_t pr = 0; pr < P; ++pr) {
    const auto& plan = plans[pr];
    EXPECT_EQ(plan.send_peers.size(), st.group_size);
    EXPECT_EQ(plan.recv_peers.size(), st.group_size);
    for (std::size_t i = 0; i < plan.send_peers.size(); ++i) {
      EXPECT_EQ(plan.send_local[i].size(), st.send_per_peer);
      std::vector<std::uint32_t> msg;
      for (const auto sl : plan.send_local[i]) msg.push_back(data[pr][sl]);
      box[plan.send_peers[i]][pr] = std::move(msg);
    }
  }
  for (std::uint64_t pr = 0; pr < P; ++pr) {
    const auto& plan = plans[pr];
    std::vector<std::uint32_t> out(n, 0xFFFFFFFFu);
    for (std::size_t j = 0; j < plan.recv_peers.size(); ++j) {
      const auto& msg = box[pr][plan.recv_peers[j]];
      ASSERT_EQ(msg.size(), plan.recv_local[j].size());
      for (std::size_t q = 0; q < msg.size(); ++q) out[plan.recv_local[j][q]] = msg[q];
    }
    for (std::uint64_t l = 0; l < n; ++l) {
      EXPECT_EQ(out[l], static_cast<std::uint32_t>(to.abs_of(pr, l)))
          << "proc " << pr << " local " << l;
    }
  }
}

TEST(Remap, BlockedToCyclicRoundtrip) {
  check_plan_roundtrip(BitLayout::blocked(3, 2), BitLayout::cyclic(3, 2));
  check_plan_roundtrip(BitLayout::cyclic(3, 2), BitLayout::blocked(3, 2));
}

TEST(Remap, BlockedToSmartRoundtripSweep) {
  for (auto [log_n, log_p] : {std::pair{3, 2}, {4, 3}, {2, 3}}) {
    const auto blocked = BitLayout::blocked(log_n, log_p);
    for (int k = 1; k <= log_p; ++k) {
      for (int s = 1; s <= log_n + k; ++s) {
        const auto lay = BitLayout::smart(log_n, log_p, smart_params(log_n, log_p, k, s));
        check_plan_roundtrip(blocked, lay);
      }
    }
  }
}

TEST(Remap, SmartScheduleConsecutiveLayouts) {
  // Every consecutive pair of layouts along a real schedule round-trips,
  // including phase-2 variants.
  for (auto [log_n, log_p] : {std::pair{4, 2}, {4, 3}, {6, 3}, {2, 3}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      check_plan_roundtrip(prev, phase.layout);
      prev = phase.layout;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
      }
    }
  }
}

TEST(Remap, StatsMatchLemma4) {
  // Blocked -> cyclic with log_n=4, log_p=2: 2 bits change, group = all
  // 4 processors, each keeps n/4.
  const auto st = analyze_remap(BitLayout::blocked(4, 2), BitLayout::cyclic(4, 2));
  EXPECT_EQ(st.bits_changed, 2);
  EXPECT_EQ(st.group_size, 4u);
  EXPECT_EQ(st.keep_count, 4u);
  EXPECT_EQ(st.send_per_peer, 4u);
}

TEST(Remap, GroupsAreConsecutiveForSmartSchedules) {
  // Lemma 4: processors communicate in groups of consecutive processor
  // numbers of size 2^r.
  for (auto [log_n, log_p] : {std::pair{4, 3}, {6, 3}, {4, 2}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      const auto st = analyze_remap(prev, phase.layout);
      const std::uint64_t P = prev.proc_count();
      for (std::uint64_t pr = 0; pr < P; ++pr) {
        const auto plan = build_exchange_plan(prev, phase.layout, pr);
        const std::uint64_t base = st.group_size * (pr / st.group_size);
        ASSERT_EQ(plan.send_peers.size(), st.group_size);
        for (std::size_t i = 0; i < plan.send_peers.size(); ++i) {
          EXPECT_EQ(plan.send_peers[i], base + i) << "proc " << pr;
        }
        EXPECT_EQ(plan.recv_peers, plan.send_peers) << "proc " << pr;
      }
      prev = phase.layout;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
      }
    }
  }
}

TEST(Remap, MasksShadedBitCounts) {
  const auto from = BitLayout::blocked(4, 2);
  const auto to = BitLayout::cyclic(4, 2);
  const auto m = remap_masks(from, to);
  EXPECT_EQ(util::popcount64(m.pack_shaded), bits_changed(from, to));
  EXPECT_EQ(util::popcount64(m.unpack_shaded), bits_changed(from, to));
  // Blocked local bits 0..3 carry absolute bits 0..3; cyclic makes
  // absolute bits 0..1 processor bits.
  EXPECT_EQ(m.pack_shaded, 0b0011u);
}

TEST(Remap, MaskShadedBitsDetermineDestination) {
  // Elements whose `from`-local addresses agree outside the pack mask go
  // to the same destination processor (the mask's field selects the peer).
  const auto from = BitLayout::blocked(4, 3);
  const auto to =
      BitLayout::smart(4, 3, smart_params(4, 3, /*k=*/1, /*s=*/5));
  const auto m = remap_masks(from, to);
  for (std::uint64_t pr = 0; pr < from.proc_count(); ++pr) {
    for (std::uint64_t l1 = 0; l1 < from.local_size(); ++l1) {
      for (std::uint64_t l2 = 0; l2 < from.local_size(); ++l2) {
        if ((l1 & m.pack_shaded) != (l2 & m.pack_shaded)) continue;
        EXPECT_EQ(to.proc_of(from.abs_of(pr, l1)), to.proc_of(from.abs_of(pr, l2)));
      }
    }
  }
}

// ---- the process-wide mask-plan memo ---------------------------------

/// Blocked <-> cyclic plus every remap a sort runs along the smart
/// schedule: layout to layout, and through phase 2 of crossing windows.
std::vector<std::pair<BitLayout, BitLayout>> remap_pairs(int log_n, int log_p) {
  const auto blocked = BitLayout::blocked(log_n, log_p);
  const auto cyclic = BitLayout::cyclic(log_n, log_p);
  std::vector<std::pair<BitLayout, BitLayout>> pairs = {{blocked, cyclic}, {cyclic, blocked}};
  auto prev = blocked;
  auto prev2 = blocked;
  for (const auto& phase : schedule::make_smart_schedule(log_n, log_p).remaps) {
    pairs.emplace_back(prev, phase.layout);
    if (!(prev2 == prev)) pairs.emplace_back(prev2, phase.layout);
    prev = phase.layout;
    prev2 = phase.params.kind == SmartKind::kCrossing
                ? BitLayout::smart_phase2(log_n, log_p, phase.params)
                : phase.layout;
  }
  return pairs;
}

void expect_same_plan(const MaskPlan& got, const MaskPlan& want) {
  EXPECT_EQ(got.bits_changed, want.bits_changed);
  EXPECT_EQ(got.kept_order, want.kept_order);
  EXPECT_EQ(got.dest_pattern, want.dest_pattern);
  EXPECT_EQ(got.recv_order, want.recv_order);
  EXPECT_EQ(got.src_pattern, want.src_pattern);
  EXPECT_EQ(got.kept_order_source, want.kept_order_source);
  EXPECT_EQ(got.pack_run_log2, want.pack_run_log2);
  EXPECT_EQ(got.unpack_run_log2, want.unpack_run_log2);
  EXPECT_EQ(got.pack_run_source_log2, want.pack_run_source_log2);
}

TEST(Remap, MaskPlanCacheMatchesBuild) {
  for (auto [log_n, log_p] : {std::pair{4, 3}, {6, 3}, {3, 2}, {2, 5}, {10, 2}, {7, 1}}) {
    for (const auto& [from, to] : remap_pairs(log_n, log_p)) {
      const auto plan = mask_plan(from, to);
      ASSERT_NE(plan, nullptr);
      expect_same_plan(*plan, build_mask_plan(from, to));
    }
  }
}

TEST(Remap, MaskPlanCacheRepeatReturnsSamePointer) {
  const auto from = BitLayout::blocked(9, 2);
  const auto to = BitLayout::cyclic(9, 2);
  const auto before = mask_plan_memo_stats();
  const auto first = mask_plan(from, to);
  const auto second = mask_plan(from, to);
  EXPECT_EQ(first.get(), second.get());
  const auto after = mask_plan_memo_stats();
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_LE(after.bytes, kMaskPlanMemoBudget);
}

TEST(Remap, MaskPlanCacheStaysWithinBudget) {
  // Blocked <-> cyclic at P = 2 and growing n: each pair holds about
  // 6n bytes of tables, so these pairs together far exceed the budget.
  std::size_t offered = 0;
  for (int log_n = 12; log_n <= 20; ++log_n) {
    for (const auto& [from, to] : remap_pairs(log_n, 1)) {
      const auto plan = mask_plan(from, to);
      offered += plan->table_bytes();
      EXPECT_EQ(plan->message_size() * plan->group_size(), from.local_size());
      const auto st = mask_plan_memo_stats();
      ASSERT_LE(st.bytes, kMaskPlanMemoBudget) << "log_n " << log_n;
    }
  }
  ASSERT_GT(offered, 2 * kMaskPlanMemoBudget);
  // Evicted plans come back correct, and a plan larger than the whole
  // budget is handed out without being kept.
  expect_same_plan(*mask_plan(BitLayout::blocked(12, 1), BitLayout::cyclic(12, 1)),
                   build_mask_plan(BitLayout::blocked(12, 1), BitLayout::cyclic(12, 1)));
  const auto huge_from = BitLayout::blocked(21, 1);
  const auto huge_to = BitLayout::cyclic(21, 1);
  const auto huge = mask_plan(huge_from, huge_to);
  EXPECT_GT(huge->table_bytes(), kMaskPlanMemoBudget);
  EXPECT_NE(mask_plan(huge_from, huge_to).get(), huge.get());
  EXPECT_LE(mask_plan_memo_stats().bytes, kMaskPlanMemoBudget);
}

TEST(Remap, MaskPlanCacheConcurrentLookups) {
  // 8 threads look up a mix of pairs in different orders; every plan must
  // match a fresh build, and threads share one copy of each pair.
  std::vector<std::pair<BitLayout, BitLayout>> pairs;
  for (auto [log_n, log_p] : {std::pair{8, 2}, {6, 3}, {9, 1}}) {
    const auto more = remap_pairs(log_n, log_p);
    pairs.insert(pairs.end(), more.begin(), more.end());
  }
  std::vector<MaskPlan> want;
  for (const auto& [from, to] : pairs) want.push_back(build_mask_plan(from, to));

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<const MaskPlan*>> seen(kThreads,
                                                 std::vector<const MaskPlan*>(pairs.size()));
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const std::size_t i = (k * 7 + static_cast<std::size_t>(t + round)) % pairs.size();
          const auto plan = mask_plan(pairs[i].first, pairs[i].second);
          const MaskPlan& w = want[i];
          if (plan->kept_order != w.kept_order || plan->recv_order != w.recv_order ||
              plan->kept_order_source != w.kept_order_source ||
              plan->dest_pattern != w.dest_pattern || plan->src_pattern != w.src_pattern) {
            ++wrong[static_cast<std::size_t>(t)];
          }
          seen[static_cast<std::size_t>(t)][i] = plan.get();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << "thread " << t;
    // These pairs fit the budget many times over: nothing was evicted
    // once inserted, so the last lookups all agree.
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace bsort::layout
