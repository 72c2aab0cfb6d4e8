#include <algorithm>
#include <string>
#include <vector>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "schedule/smart_schedule.hpp"
#include "util/bits.hpp"

namespace bsort::bitonic {

void smart_sort(simd::Proc& p, std::span<std::uint32_t> keys, int first_chunk) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  if (log_p == 0 && keys.size() < 2) return;  // single processor, <= 1 key
  const int log_n = util::ilog2(keys.size());
  if (log_n < 1 || !util::is_pow2(keys.size())) {
    throw ConfigError("smart_sort: needs a power-of-two count of at least 2 keys per processor",
                      {p.rank(), -1, -1});
  }
  if (first_chunk < 0 || first_chunk > log_n) {
    throw ConfigError("smart_sort: first_chunk " + std::to_string(first_chunk) +
                          " is outside [0, lg n = " + std::to_string(log_n) + "]",
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

  const auto sched = schedule::make_smart_schedule(log_n, log_p, first_chunk);
  layout::BitLayout cur = layout::BitLayout::blocked(log_n, log_p);
  int stage = log_n + 1;
  int step = log_n + 1;

  // Pooled remap state, recycled across every remap of the schedule.
  RemapWorkspace remap_ws;

  // Double buffering: each remap scatters from the current buffer into
  // the free one, and the window's steps then run in place there — no
  // copy-backs.
  std::vector<std::uint32_t> alt(n);
  std::span<std::uint32_t> a = keys;          // current data
  std::span<std::uint32_t> b(alt.data(), n);  // free buffer

  for (const auto& phase : sched.remaps) {
    // Remap, then run the window's steps under the new layout, low-stride
    // runs fused into single kernel sweeps.
    remap_data_into(p, cur, phase.layout, a, b, remap_ws);
    std::swap(a, b);
    {
      obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, stage);
      p.timed(simd::Phase::kCompute, [&] {
        localsort::local_network_steps(phase.layout, rank, a, stage, step, phase.steps);
      });
    }
    cur = phase.layout;

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
