// Mask-based remap plans (Section 3.3): equivalence with the generic
// exchange plan, ordering guarantees, and the strided phase-2 view.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "layout/remap.hpp"
#include "schedule/smart_schedule.hpp"
#include "util/bits.hpp"

namespace bsort::layout {
namespace {

/// The mask plan must transport every absolute address to exactly the
/// (proc, local) slot that layout `to` prescribes, for every rank, using
/// the message protocol of remap_data_into (dl-ordered messages).
void check_mask_plan_roundtrip(const BitLayout& from, const BitLayout& to) {
  const std::uint64_t P = from.proc_count();
  const std::uint64_t n = from.local_size();
  const auto plan = build_mask_plan(from, to);
  ASSERT_EQ(plan.group_size() * plan.message_size(), n);

  // box[dst][src] = message.
  std::vector<std::vector<std::vector<std::uint32_t>>> box(
      P, std::vector<std::vector<std::uint32_t>>(P));
  for (std::uint64_t rank = 0; rank < P; ++rank) {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      const auto d = mask_plan_dest(from, to, plan, rank, o);
      std::vector<std::uint32_t> msg(plan.message_size());
      for (std::size_t j = 0; j < plan.message_size(); ++j) {
        msg[j] = static_cast<std::uint32_t>(
            from.abs_of(rank, plan.kept_order[j] | plan.dest_pattern[o]));
      }
      ASSERT_TRUE(box[d][rank].empty()) << "duplicate message " << rank << "->" << d;
      box[d][rank] = std::move(msg);
    }
  }
  for (std::uint64_t rank = 0; rank < P; ++rank) {
    std::vector<std::uint32_t> out(n, 0xFFFFFFFFu);
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      const auto s = mask_plan_src(from, to, plan, rank, o);
      const auto& msg = box[rank][s];
      ASSERT_EQ(msg.size(), plan.message_size());
      for (std::size_t j = 0; j < plan.message_size(); ++j) {
        out[plan.recv_order[j] | plan.src_pattern[o]] = msg[j];
      }
    }
    for (std::uint64_t l = 0; l < n; ++l) {
      EXPECT_EQ(out[l], static_cast<std::uint32_t>(to.abs_of(rank, l)))
          << "rank " << rank << " local " << l;
    }
  }
}

TEST(MaskPlan, RoundtripBlockedCyclic) {
  check_mask_plan_roundtrip(BitLayout::blocked(3, 2), BitLayout::cyclic(3, 2));
  check_mask_plan_roundtrip(BitLayout::cyclic(4, 3), BitLayout::blocked(4, 3));
}

TEST(MaskPlan, RoundtripAlongSchedules) {
  for (auto [log_n, log_p] : {std::pair{4, 3}, {3, 2}, {2, 4}, {6, 3}, {2, 5}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      check_mask_plan_roundtrip(prev, phase.layout);
      prev = phase.layout;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
        check_mask_plan_roundtrip(BitLayout::smart(log_n, log_p, phase.params), prev);
      }
    }
  }
}

TEST(MaskPlan, AgreesWithGenericExchangePlan) {
  // The generic (sort-based) plan and the mask plan must produce the same
  // messages, element for element.
  for (auto [log_n, log_p] : {std::pair{4, 3}, {3, 3}, {2, 4}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      const auto& to = phase.layout;
      const auto mask = build_mask_plan(prev, to);
      for (std::uint64_t rank = 0; rank < prev.proc_count(); ++rank) {
        const auto generic = build_exchange_plan(prev, to, rank);
        for (std::size_t o = 0; o < mask.group_size(); ++o) {
          const auto d = mask_plan_dest(prev, to, mask, rank, o);
          const auto it =
              std::find(generic.send_peers.begin(), generic.send_peers.end(), d);
          ASSERT_NE(it, generic.send_peers.end());
          const auto idx = static_cast<std::size_t>(it - generic.send_peers.begin());
          ASSERT_EQ(generic.send_local[idx].size(), mask.message_size());
          for (std::size_t j = 0; j < mask.message_size(); ++j) {
            EXPECT_EQ(generic.send_local[idx][j],
                      mask.kept_order[j] | mask.dest_pattern[o]);
          }
        }
      }
      prev = to;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
      }
    }
  }
}

TEST(MaskPlan, MessagesOrderedByDestinationLocal) {
  const auto from = BitLayout::blocked(4, 3);
  const auto to = BitLayout::smart(4, 3, smart_params(4, 3, 2, 3));
  const auto plan = build_mask_plan(from, to);
  for (std::uint64_t rank = 0; rank < from.proc_count(); ++rank) {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      std::uint64_t prev_dl = 0;
      for (std::size_t j = 0; j < plan.message_size(); ++j) {
        const auto abs =
            from.abs_of(rank, plan.kept_order[j] | plan.dest_pattern[o]);
        const auto dl = to.local_of(abs);
        if (j > 0) {
          EXPECT_GT(dl, prev_dl);
        }
        prev_dl = dl;
      }
    }
  }
}

TEST(MaskPlan, SelfMessagePresenceIsSymmetric) {
  // A rank appears in its own send group iff it appears in its own
  // receive group (it keeps at least one element or none).
  for (auto [log_n, log_p] : {std::pair{2, 4}, {4, 3}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      const auto plan = build_mask_plan(prev, phase.layout);
      for (std::uint64_t rank = 0; rank < prev.proc_count(); ++rank) {
        bool in_send = false, in_recv = false;
        for (std::size_t o = 0; o < plan.group_size(); ++o) {
          in_send |= mask_plan_dest(prev, phase.layout, plan, rank, o) == rank;
          in_recv |= mask_plan_src(prev, phase.layout, plan, rank, o) == rank;
        }
        EXPECT_EQ(in_send, in_recv) << "rank " << rank;
      }
      prev = phase.layout;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
      }
    }
  }
}

/// Independent check of an advertised run length: every aligned run of
/// 2^c message offsets must touch 2^c consecutive local addresses.
void check_run(const std::vector<std::uint32_t>& order,
               const std::vector<std::uint32_t>& patterns, int run_log2) {
  const std::size_t run = std::size_t{1} << run_log2;
  for (const std::uint32_t pat : patterns) {
    for (std::size_t q = 0; q < order.size(); q += run) {
      for (std::size_t j = 1; j < run; ++j) {
        ASSERT_EQ(order[q + j] | pat, (order[q] | pat) + j);
      }
    }
  }
}

TEST(MaskPlan, RunCoalescingBlockedCyclic) {
  // blocked -> cyclic: the low lg P from-local bits become processor
  // bits (pack gathers at stride P) but the receive side keeps its low
  // bits — the whole message unpacks as ONE contiguous run.  The inverse
  // remap mirrors this.
  const int log_n = 6, log_p = 2;
  const auto b = BitLayout::blocked(log_n, log_p);
  const auto c = BitLayout::cyclic(log_n, log_p);
  const auto to_cyclic = build_mask_plan(b, c);
  EXPECT_EQ(to_cyclic.pack_run_log2, 0);
  EXPECT_EQ(to_cyclic.unpack_run_log2, log_n - log_p);
  EXPECT_EQ(to_cyclic.unpack_run(), to_cyclic.message_size());
  const auto to_blocked = build_mask_plan(c, b);
  EXPECT_EQ(to_blocked.pack_run_log2, log_n - log_p);
  EXPECT_EQ(to_blocked.unpack_run_log2, 0);
}

TEST(MaskPlan, RunLengthsAreSoundAlongSchedules) {
  // Whatever run lengths build_mask_plan advertises, the index streams
  // must actually be contiguous for that long, for every pattern.
  for (auto [log_n, log_p] : {std::pair{4, 3}, {6, 3}, {3, 2}, {2, 5}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    auto prev = BitLayout::blocked(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      const auto plan = build_mask_plan(prev, phase.layout);
      check_run(plan.kept_order, plan.dest_pattern, plan.pack_run_log2);
      check_run(plan.recv_order, plan.src_pattern, plan.unpack_run_log2);
      prev = phase.layout;
      if (phase.params.kind == SmartKind::kCrossing) {
        prev = BitLayout::smart_phase2(log_n, log_p, phase.params);
      }
    }
  }
}

TEST(MaskPlan, AsymmetricGroupsExistInTightRegimes) {
  // Regression anchor for the fused-path bug: with lg n = 2, lg P = 4 the
  // schedule contains remaps whose send and receive peer sets differ and
  // ranks that keep no element at all.
  const auto from = BitLayout::blocked(2, 4);
  const auto to = BitLayout::smart(2, 4, smart_params(2, 4, 4, 6));
  const auto plan = build_mask_plan(from, to);
  bool any_rank_without_self = false;
  for (std::uint64_t rank = 0; rank < from.proc_count(); ++rank) {
    bool in_send = false;
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      in_send |= mask_plan_dest(from, to, plan, rank, o) == rank;
    }
    if (!in_send) any_rank_without_self = true;
  }
  EXPECT_TRUE(any_rank_without_self);
}

}  // namespace
}  // namespace bsort::layout
