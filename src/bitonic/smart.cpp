#include <algorithm>
#include <cassert>
#include <functional>
#include <vector>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "localsort/bitonic_merge.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/pway_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "util/bits.hpp"

namespace bsort::bitonic {

namespace {

using layout::BitLayout;
using layout::SmartKind;
using layout::SmartParams;

/// Merge direction of the stage-`stage` merge containing this rank's
/// keys: ascending iff absolute bit `stage` is 0.  That bit is a
/// processor bit in every case where this is called (or beyond lg N for
/// the final stage, where every merge is ascending).
bool window_ascending(const BitLayout& lay, std::uint64_t rank, int stage) {
  if (stage >= lay.log_total()) return true;
  assert(!lay.is_local_bit(stage));
  return util::bit(lay.abs_of(rank, 0), stage) == 0;
}

/// Fused unpack+merge (Section 4.3) for an inside window whose sources
/// each hold a fully value-sorted local array.  Keys are packed in
/// SOURCE-local order, so every incoming message is a monotonic run (a
/// subsequence of a sorted array); the receiver merges the runs by value
/// straight into its output buffer, skipping both the scatter-unpack and
/// the separate bitonic merge sort.  `src_ascending(s)` tells the run
/// direction of source s.  Unlike the scatter remap, the self message IS
/// staged in the arena (sized M like every other slot) so the merge can
/// consume it as just another run via its recv view.
template <class SrcAsc>
void fused_inside_window(simd::Proc& p, std::span<const std::uint32_t> in,
                         std::span<std::uint32_t> out, const BitLayout& from,
                         const BitLayout& to, int stage, SrcAsc&& src_ascending,
                         RemapWorkspace& ws, std::vector<localsort::Run>& runs) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  obs::ScopedSpan remap_span(p, obs::SpanKind::kRemap,
                             static_cast<std::int32_t>(p.comm().exchanges));

  // A rank need not appear among its own peers: some remaps along a
  // schedule are asymmetric (a rank's send group and receive group are
  // different processor sets) and a rank may keep nothing.
  p.timed(simd::Phase::kPack, [&] { prepare_workspace(ws, from, to, rank, true); });

  p.trace_remap(ws.group_log2, ws.from_tag, ws.to_tag);
  p.open_exchange(ws.send_peers, ws.sizes, ws.recv_peers);

  const layout::MaskPlan& plan = *ws.plan;
  p.timed(simd::Phase::kPack, [&] {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      // Source-order packing: each message is a subsequence of this
      // rank's value-sorted array, hence a monotonic run.  Coalesced to
      // memcpy runs / gather kernels like the scatter remap.
      pack_message(p.send_slot(o), in, plan.kept_order_source.data(), plan.dest_pattern[o],
                   plan.pack_run_source_log2);
    }
  });

  p.commit_exchange();

  p.timed(simd::Phase::kUnpack, [&] {
    runs.clear();
    for (std::size_t j = 0; j < ws.recv_peers.size(); ++j) {
      runs.push_back({p.recv_view(j), src_ascending(ws.recv_peers[j])});
    }
    localsort::pway_merge(runs, out);
    // Theorem 2: the window output is the value-sorted array in local
    // address order (reversed for a descending merge).
    if (!window_ascending(to, rank, stage)) {
      std::reverse(out.begin(), out.end());
    }
  });
}

}  // namespace

void smart_sort(simd::Proc& p, std::span<std::uint32_t> keys, const SmartOptions& options) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  if (log_p == 0 && keys.size() < 2) return;  // single processor, <= 1 key
  const int log_n = util::ilog2(keys.size());
  if (log_n < 1 || !util::is_pow2(keys.size())) {
    throw ConfigError("smart_sort: needs a power-of-two count of at least 2 keys per processor",
                      {p.rank(), -1, -1});
  }
  const std::uint64_t n = keys.size();
  std::vector<std::uint32_t> scratch;

  // First lg n stages: one local sort (Section 4.1); direction is bit 0
  // of the rank (= absolute bit lg n under the blocked layout).
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    p.timed(simd::Phase::kCompute, [&] {
      if (util::bit(rank, 0) == 0) {
        localsort::radix_sort(keys, scratch);
      } else {
        localsort::radix_sort_descending(keys, scratch);
      }
    });
  }
  if (log_p == 0) return;

  const auto sched =
      schedule::make_smart_schedule(log_n, log_p, options.strategy, options.first_chunk);
  BitLayout cur = BitLayout::blocked(log_n, log_p);
  int stage = log_n + 1;
  int step = log_n + 1;

  // Pooled remap state, recycled across every remap of the schedule
  // (separate workspaces: the fused path stages the self slot at full
  // message size, the scatter path stages it empty).
  RemapWorkspace remap_ws;
  RemapWorkspace fused_ws;
  std::vector<localsort::Run> fused_runs;

  // Double buffering: the remap scatters from one buffer into the other,
  // and each local phase merges back out-of-place — no copy-backs.
  std::vector<std::uint32_t> alt(n);
  std::span<std::uint32_t> a = keys;                           // current data
  std::span<std::uint32_t> b(alt.data(), n);                   // free buffer
  const auto swap_buffers = [&] { std::swap(a, b); };

  // Whether each processor's local array is one value-sorted run (true
  // after the initial sort and after every inside window), and the
  // per-source run direction.
  bool fully_sorted = true;
  std::function<bool(std::uint64_t)> src_dir = [](std::uint64_t s) {
    return util::bit(s, 0) == 0;
  };
  const auto update_src_dir = [&](const BitLayout& lay, int st) {
    src_dir = [lay, st](std::uint64_t s) {
      if (st >= lay.log_total()) return true;
      return util::bit(lay.abs_of(s, 0), st) == 0;
    };
  };

  for (const auto& phase : sched.remaps) {
    const auto& sp = phase.params;
    const bool full_window = phase.steps == log_n || sp.kind == SmartKind::kLast;
    const bool optimized = options.compute != SmartCompute::kNetwork && full_window;

    if (options.compute == SmartCompute::kFused && full_window &&
        sp.kind == SmartKind::kInside && fully_sorted) {
      // Remap + unpack + merge in one fused pass: a -> b.
      fused_inside_window(p, a, b, cur, phase.layout, log_n + sp.k, src_dir,
                          fused_ws, fused_runs);
      swap_buffers();
      cur = phase.layout;
      fully_sorted = true;
      update_src_dir(cur, log_n + sp.k);
    } else if (optimized && sp.kind == SmartKind::kInside) {
      // Theorem 2: the window's lg n steps are a complete bitonic merge
      // of the (bitonic) local array in the direction of stage lg n + k.
      remap_data_into(p, cur, phase.layout, a, b, remap_ws);
      {
        obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, log_n + sp.k);
        p.timed(simd::Phase::kCompute, [&] {
          const bool asc = window_ascending(phase.layout, rank, log_n + sp.k);
          if (asc) {
            localsort::bitonic_merge_sort(b, a);
          } else {
            localsort::bitonic_merge_sort_descending(b, a);
          }
        });
      }
      cur = phase.layout;
      fully_sorted = true;
      update_src_dir(cur, log_n + sp.k);
    } else if (optimized && sp.kind == SmartKind::kLast) {
      // Final window: the remaining s steps complete the merge of each
      // 2^s block of the final (all-ascending) stage.
      remap_data_into(p, cur, phase.layout, a, b, remap_ws);
      obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, log_n + log_p);
      p.timed(simd::Phase::kCompute, [&] {
        const std::uint64_t chunk = std::uint64_t{1} << sp.s;
        if (chunk <= 4) {
          // Tiny blocks: per-call merge overhead would dominate; run the
          // s compare-exchange steps directly (b -> a).
          std::copy(b.begin(), b.end(), a.begin());
          localsort::local_network_steps(phase.layout, rank, a, log_n + log_p, sp.s,
                                         sp.s);
        } else {
          for (std::uint64_t base = 0; base < n; base += chunk) {
            localsort::bitonic_merge_sort(b.subspan(base, chunk),
                                          a.subspan(base, chunk));
          }
        }
      });
      cur = phase.layout;
      fully_sorted = true;
    } else if (optimized && sp.kind == SmartKind::kCrossing) {
      // Theorem 3.  Phase 1: 2^b bitonic chunks of length 2^a finish
      // stage lg n + k; chunk j's direction is absolute bit lg n + k, the
      // top bit of the B field, so the first half of chunks is
      // ascending.  Phase 2: the first b steps of stage lg n + k + 1 are
      // a complete merge of each phase-2 chunk, which lives at stride
      // 2^a in the phase-1 arrangement — merged directly from there,
      // eliminating the intermediate shuffle.
      remap_data_into(p, cur, phase.layout, a, b, remap_ws);
      obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, log_n + sp.k);
      p.timed(simd::Phase::kCompute, [&] {
        const std::uint64_t chunk1 = std::uint64_t{1} << sp.a;
        const std::uint64_t half = std::uint64_t{1} << (sp.b - 1);
        for (std::uint64_t base = 0, j = 0; base < n; base += chunk1, ++j) {
          if ((j & half) == 0) {
            localsort::bitonic_merge_sort(b.subspan(base, chunk1),
                                          a.subspan(base, chunk1));
          } else {
            localsort::bitonic_merge_sort_descending(b.subspan(base, chunk1),
                                                     a.subspan(base, chunk1));
          }
        }
      });
      const auto lay2 = BitLayout::smart_phase2(log_n, log_p, sp);
      p.timed(simd::Phase::kCompute, [&] {
        const bool asc = window_ascending(lay2, rank, log_n + sp.k + 1);
        const std::uint64_t chunk2 = std::uint64_t{1} << sp.b;
        const std::uint64_t stride = std::uint64_t{1} << sp.a;
        for (std::uint64_t c = 0; c < stride; ++c) {
          localsort::bitonic_merge_sort_strided(a.data(), c, stride, chunk2,
                                                b.data() + c * chunk2, asc);
        }
      });
      swap_buffers();  // phase-2 output landed in what was the free buffer
      cur = lay2;
      fully_sorted = false;
    } else {
      // Network path (the default, and every partial window): remap,
      // then run the window's steps under the phase-1 layout, low-stride
      // runs fused into single kernel sweeps.
      remap_data_into(p, cur, phase.layout, a, b, remap_ws);
      swap_buffers();
      const int st = stage, spp = step;
      obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, st);
      p.timed(simd::Phase::kCompute, [&] {
        localsort::local_network_steps(phase.layout, rank, a, st, spp, phase.steps);
      });
      cur = phase.layout;
      fully_sorted = false;
    }

    step -= phase.steps;
    while (step <= 0) {
      ++stage;
      step += stage;
    }
  }

  if (a.data() != keys.data()) {
    p.timed(simd::Phase::kCompute,
            [&] { std::copy(a.begin(), a.end(), keys.begin()); });
  }
}

}  // namespace bsort::bitonic
