#include "localsort/compare_exchange.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "kernel/kernel.hpp"
#include "layout/bit_layout.hpp"
#include "net/network.hpp"
#include "schedule/smart_schedule.hpp"
#include "util/random.hpp"

namespace bsort::localsort {
namespace {

using layout::BitLayout;

/// Scatter a full array (indexed by absolute address) into per-processor
/// views under `lay`.
std::vector<std::vector<std::uint32_t>> scatter(const std::vector<std::uint32_t>& full,
                                                const BitLayout& lay) {
  std::vector<std::vector<std::uint32_t>> views(
      lay.proc_count(), std::vector<std::uint32_t>(lay.local_size()));
  for (std::uint64_t abs = 0; abs < full.size(); ++abs) {
    views[lay.proc_of(abs)][lay.local_of(abs)] = full[abs];
  }
  return views;
}

std::vector<std::uint32_t> gather(const std::vector<std::vector<std::uint32_t>>& views,
                                  const BitLayout& lay) {
  std::vector<std::uint32_t> full(views.size() * views[0].size());
  for (std::uint64_t pr = 0; pr < views.size(); ++pr) {
    for (std::uint64_t l = 0; l < views[pr].size(); ++l) {
      full[lay.abs_of(pr, l)] = views[pr][l];
    }
  }
  return full;
}

/// For every (stage, step) whose compare bit is local under `lay`,
/// executing the step locally on every processor must equal the reference
/// step on the full array.
void check_layout_steps(const BitLayout& lay) {
  const std::uint64_t N = std::uint64_t{1} << lay.log_total();
  auto full = util::generate_keys(N, util::KeyDistribution::kUniform31, N + 3);
  const int stages = lay.log_total();
  for (int stage = 1; stage <= stages; ++stage) {
    for (int step = stage; step >= 1; --step) {
      if (!lay.is_local_bit(step - 1)) {
        // Keep the full-array state advancing regardless.
        net::reference_step(std::span<std::uint32_t>(full.data(), N), stage, step);
        continue;
      }
      auto views = scatter(full, lay);
      for (std::uint64_t pr = 0; pr < views.size(); ++pr) {
        local_network_step(lay, pr,
                           std::span<std::uint32_t>(views[pr].data(), views[pr].size()),
                           stage, step);
      }
      net::reference_step(std::span<std::uint32_t>(full.data(), N), stage, step);
      EXPECT_EQ(gather(views, lay), full) << "stage " << stage << " step " << step;
    }
  }
}

TEST(CompareExchange, BlockedLayoutLocalSteps) {
  check_layout_steps(BitLayout::blocked(3, 2));
  check_layout_steps(BitLayout::blocked(4, 2));
}

TEST(CompareExchange, CyclicLayoutLocalSteps) {
  check_layout_steps(BitLayout::cyclic(3, 2));
  check_layout_steps(BitLayout::cyclic(4, 3));
}

TEST(CompareExchange, SmartLayoutsAlongSchedule) {
  for (auto [log_n, log_p] : {std::pair{3, 2}, {4, 3}, {2, 3}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      check_layout_steps(phase.layout);
      if (phase.params.kind == layout::SmartKind::kCrossing) {
        check_layout_steps(layout::BitLayout::smart_phase2(log_n, log_p, phase.params));
      }
    }
  }
}

/// Fused multi-step execution must be bit-identical to the single-step
/// scalar path for EVERY kernel variant, every layout, and every window
/// — including windows that cross stage boundaries and windows whose
/// compare positions straddle the fused-tile limit.  This is the
/// differential ground truth the tentpole optimization is validated
/// against.
void check_fused_vs_single(const BitLayout& lay) {
  struct ActiveGuard {
    ~ActiveGuard() { kernel::set_active_for_testing(nullptr); }
  } guard;
  const std::uint64_t N = std::uint64_t{1} << lay.log_total();
  const int stages = lay.log_total();
  // Every (stage, step, count) window whose compare bits are all local.
  for (int stage = 1; stage <= stages; ++stage) {
    for (int step = stage; step >= 1; --step) {
      // Longest run of consecutive local steps starting at (stage, step),
      // walking across stage boundaries exactly like local_network_steps.
      int max_count = 0;
      {
        int st = stage, sp = step;
        while (max_count < 2 * stages) {
          if (sp - 1 >= lay.log_total() || !lay.is_local_bit(sp - 1)) break;
          ++max_count;
          --sp;
          if (sp == 0) {
            ++st;
            if (st > stages) break;
            sp = st;
          }
        }
      }
      for (int count = 1; count <= max_count; ++count) {
        auto full = util::generate_keys(
            N, util::KeyDistribution::kUniform31,
            N + static_cast<std::uint64_t>(stage * 64 + step));
        auto views = scatter(full, lay);
        // Ground truth: scalar kernel, one step at a time.
        auto expect = views;
        kernel::set_active_for_testing(kernel::by_name("scalar"));
        for (std::uint64_t pr = 0; pr < expect.size(); ++pr) {
          int st = stage, sp = step;
          for (int i = 0; i < count; ++i) {
            local_network_step(
                lay, pr, std::span<std::uint32_t>(expect[pr].data(), expect[pr].size()),
                st, sp);
            --sp;
            if (sp == 0) {
              ++st;
              sp = st;
            }
          }
        }
        for (const kernel::Kernels* k : kernel::variants()) {
          if (!kernel::supported(*k)) continue;
          kernel::set_active_for_testing(k);
          auto got = views;
          for (std::uint64_t pr = 0; pr < got.size(); ++pr) {
            local_network_steps(
                lay, pr, std::span<std::uint32_t>(got[pr].data(), got[pr].size()),
                stage, step, count);
          }
          ASSERT_EQ(got, expect) << k->name << " stage=" << stage
                                 << " step=" << step << " count=" << count;
        }
      }
    }
  }
}

TEST(CompareExchange, FusedMultiStepBlockedLayouts) {
  check_fused_vs_single(BitLayout::blocked(4, 1));
  check_fused_vs_single(BitLayout::blocked(5, 2));
}

TEST(CompareExchange, FusedMultiStepCyclicLayouts) {
  check_fused_vs_single(BitLayout::cyclic(4, 2));
  check_fused_vs_single(BitLayout::cyclic(5, 1));
}

TEST(CompareExchange, FusedMultiStepSmartLayouts) {
  for (auto [log_n, log_p] : {std::pair{4, 2}, {3, 3}}) {
    const auto sched = schedule::make_smart_schedule(log_n, log_p);
    for (const auto& phase : sched.remaps) {
      check_fused_vs_single(phase.layout);
      if (phase.params.kind == layout::SmartKind::kCrossing) {
        check_fused_vs_single(layout::BitLayout::smart_phase2(log_n, log_p, phase.params));
      }
    }
  }
}

TEST(CompareExchange, FusedMultiStepLargeLocalArray) {
  // A local array well past the 256-element fused tile (2^10 keys per
  // processor): windows mix beyond-tile strides (run singly) with
  // fusible low strides, and the tile loop walks multiple tiles.
  check_fused_vs_single(BitLayout::blocked(10, 1));
}

/// A layout of 2^9 local keys on 2 processors whose first network step
/// (stage 1, step 1: compare absolute bit 0, direction absolute bit 1)
/// compares at local position `pos`.  The direction bit sits on the
/// processor bit (`dir` = 0, constant per processor), at local position
/// 8 above the compare bit (`dir` = 1), or at local position 0 below it
/// (`dir` = 2).
BitLayout lone_column_layout(int pos, int dir) {
  std::vector<int> local_src(9, -1);
  local_src[static_cast<std::size_t>(pos)] = 0;
  std::vector<int> proc_src;
  if (dir == 0) {
    proc_src = {1};
  } else {
    local_src[dir == 1 ? 8 : 0] = 1;
  }
  int next = 2;
  for (int& src : local_src) {
    if (src < 0) src = next++;
  }
  if (dir != 0) proc_src = {next};
  return BitLayout(local_src, proc_src);
}

TEST(CompareExchange, LoneFusibleColumnMatchesSingleStep) {
  // A window holding one fusible column runs on cmpex_multistep; it must
  // equal the scalar single-step path for every variant, every fusible
  // compare position and every placement of the direction bit.
  for (int pos = 0; pos <= kernel::kMaxFusedPos; ++pos) {
    for (int dir = 0; dir < 3; ++dir) {
      if (dir == 2 && pos == 0) continue;  // nothing below position 0
      const auto lay = lone_column_layout(pos, dir);
      ASSERT_EQ(lay.local_pos_of(0), pos);
      check_fused_vs_single(lay);
    }
  }
}

TEST(CompareExchange, MultiStepWalkMatchesReference) {
  // Executing a window of steps with local_network_steps equals executing
  // them one by one on the reference array.
  const auto lay = BitLayout::blocked(4, 1);  // everything local on 2 procs
  const std::uint64_t N = 32;
  auto full = util::generate_keys(N, util::KeyDistribution::kUniform31, 21);
  auto views = scatter(full, lay);
  // Steps 1..4 of stage 4 (start of stage 4 through its end).
  for (std::uint64_t pr = 0; pr < views.size(); ++pr) {
    // First run the earlier stages so the data structure is realistic.
    local_network_steps(lay, pr, std::span<std::uint32_t>(views[pr].data(), 16), 1, 1,
                        1 + 2 + 3 + 4);
  }
  for (int stage = 1; stage <= 4; ++stage) {
    net::reference_stage(std::span<std::uint32_t>(full.data(), N), stage);
  }
  EXPECT_EQ(gather(views, lay), full);
}

}  // namespace
}  // namespace bsort::localsort
