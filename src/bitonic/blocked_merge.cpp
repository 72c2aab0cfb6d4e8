#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "obs/profile.hpp"
#include "util/bits.hpp"

namespace bsort::bitonic {

void blocked_merge_sort(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto rank = static_cast<std::uint64_t>(p.rank());
  const int log_p = util::ilog2(static_cast<std::uint64_t>(p.nprocs()));
  if (!util::is_pow2(keys.size())) {
    throw ConfigError("blocked_merge_sort: keys per processor must be a power of two",
                      {p.rank(), -1, -1});
  }

  // First lg n stages: one local sort; the block's merge direction is the
  // parity of bit lg n of its absolute addresses, i.e. bit 0 of the rank.
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    local_sort(p, keys, util::bit(rank, 0) == 0);
  }
  if (log_p == 0) return;

  for (int k = 1; k <= log_p; ++k) {
    obs::ScopedSpan stage_span(p, obs::SpanKind::kMergeStage, k);
    // Remote steps lg n + k .. lg n + 1: compare-exchange with the
    // partner differing in rank bit (step - 1 - lg n).
    for (int bit = k - 1; bit >= 0; --bit) {
      // Element i here pairs with element i on the partner; both share
      // all absolute-address bits except rank bit `bit`.  The node keeps
      // the minimum iff its compare bit equals the stage's direction bit
      // (rank bit k; 0 for the final stage since bit lg N of any address
      // is 0).
      const bool dir_bit = k < log_p ? util::bit(rank, k) != 0 : false;
      exchange_keep(p, keys, rank ^ (std::uint64_t{1} << bit),
                    (util::bit(rank, bit) != 0) == dir_bit);
    }
    // Local lg n steps of the stage: the block is a bitonic sequence;
    // [BLM+91] finishes the stage with another local radix sort in the
    // stage's merge direction.
    local_sort(p, keys, k == log_p || util::bit(rank, k) == 0);
  }
}

}  // namespace bsort::bitonic
