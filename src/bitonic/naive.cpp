#include <algorithm>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "localsort/compare_exchange.hpp"
#include "obs/profile.hpp"
#include "util/bits.hpp"

namespace bsort::bitonic {

void naive_blocked_sort(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  const int log_n = util::ilog2(keys.size());
  const int log_N = log_n + log_p;
  const auto blocked = layout::BitLayout::blocked(log_n, log_p);

  for (int stage = 1; stage <= log_N; ++stage) {
    obs::ScopedSpan stage_span(p, obs::SpanKind::kMergeStage, stage);
    // Under the blocked layout the remote steps (compare bit >= lg n)
    // lead each stage and the local steps trail it; the trailing run is
    // executed as ONE batched call so local_network_steps can fuse its
    // low-stride columns into single multi-step kernel sweeps.
    const int first_local = std::min(stage, log_n);
    for (int step = stage; step > first_local; --step) {
      const int abs_bit = step - 1;
      // Remote step: exchange the whole block with the partner differing
      // in rank bit (abs_bit - lg n), keep the min or max half.  The
      // direction bit of the stage is absolute bit `stage`; elements on
      // this processor share it (it is >= lg n for the last lg P stages,
      // and remote steps only occur there).
      const int rank_bit = abs_bit - log_n;
      exchange_keep(p, keys, rank ^ (std::uint64_t{1} << rank_bit),
                    util::bit(rank, rank_bit) == util::bit(blocked.abs_of(rank, 0), stage));
    }
    if (first_local >= 1) {
      p.timed(simd::Phase::kCompute, [&] {
        localsort::local_network_steps(blocked, rank, keys, stage, first_local,
                                       first_local);
      });
    }
  }
}

}  // namespace bsort::bitonic
