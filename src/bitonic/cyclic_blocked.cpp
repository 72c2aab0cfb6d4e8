#include <cassert>
#include <vector>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "util/bits.hpp"

namespace bsort::bitonic {

void cyclic_blocked_sort(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  const int log_n = util::ilog2(keys.size());
  if (!util::is_pow2(keys.size()) || log_n < log_p) {
    throw ConfigError(
        "cyclic_blocked_sort: needs a power-of-two n >= P per processor (N >= P^2)",
        {p.rank(), -1, -1});
  }
  const std::uint64_t n = keys.size();
  std::vector<std::uint32_t> scratch;

  // First lg n stages: one local sort in the block's merge direction.
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

  const auto blocked = layout::BitLayout::blocked(log_n, log_p);
  const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);

  // The schedule alternates between exactly two remaps, so each cached
  // workspace hits from the second stage on — steady-state stages remap
  // with zero heap allocations.
  RemapWorkspace ws_to_cyclic;
  RemapWorkspace ws_to_blocked;

  // Ping-pong buffering: every remap scatters from one buffer into the
  // other and the local steps run in place, so each stage's two remaps
  // leave the data back in `keys`.
  std::vector<std::uint32_t> alt(n);
  std::span<std::uint32_t> a = keys;          // current data
  std::span<std::uint32_t> b(alt.data(), n);  // free buffer
  const auto swap_buffers = [&] { std::swap(a, b); };

  for (int k = 1; k <= log_p; ++k) {
    const int stage = log_n + k;
    obs::ScopedSpan stage_span(p, obs::SpanKind::kMergeStage, stage);
    // Remap to cyclic; the stage's first k steps (steps lg n + k .. lg n
    // + 1) compare absolute bits lg n + k - 1 .. lg n, local under the
    // cyclic layout since lg n >= lg P.  They form the top of the
    // stage's bitonic merge: a cascade of bitonic splits.
    remap_data_into(p, blocked, cyclic, a, b, ws_to_cyclic);
    swap_buffers();
    p.timed(simd::Phase::kCompute, [&] {
      localsort::local_network_steps(cyclic, rank, a, stage, stage, k);
    });
    // Remap back to blocked; the remaining lg n steps (compare bits
    // lg n - 1 .. 0, all local) complete the merge of each block in the
    // stage's direction (rank bit k, absolute bit lg n + k).
    remap_data_into(p, cyclic, blocked, a, b, ws_to_blocked);
    swap_buffers();
    p.timed(simd::Phase::kCompute, [&] {
      localsort::local_network_steps(blocked, rank, a, stage, log_n, log_n);
    });
  }
  assert(a.data() == keys.data());
}

}  // namespace bsort::bitonic
