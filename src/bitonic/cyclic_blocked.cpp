#include <cassert>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
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

  // First lg n stages: one local sort in the block's merge direction.
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    local_sort(p, keys, util::bit(rank, 0) == 0);
  }
  if (log_p == 0) return;

  // Ping-pong buffering with the VP's scratch: every remap scatters from
  // one buffer into the other and the window runs in place, so each
  // stage's two remaps (to cyclic, back to blocked) leave the data back
  // in `keys`.
  const auto prog = remap_program(RemapSort::kCyclicBlocked, log_n, log_p);
  auto& buf = p.scratch();
  buf.resize(keys.size());
  std::span<std::uint32_t> a = keys;  // current data
  std::span<std::uint32_t> b = buf;   // free buffer
  const std::span<const RemapStep> steps = prog->steps;
  for (std::size_t i = 0; i < steps.size(); i += 2) {
    obs::ScopedSpan stage_span(p, obs::SpanKind::kMergeStage, steps[i].stage);
    for (const RemapStep& step : steps.subspan(i, 2)) {
      remap_data_into(p, step, a, b);
      std::swap(a, b);
      run_window(p, step, a);
    }
  }
  assert(a.data() == keys.data());
}

}  // namespace bsort::bitonic
