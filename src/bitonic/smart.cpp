#include <algorithm>
#include <string>

#include "bitonic/remap_exec.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "obs/profile.hpp"
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

  // First lg n stages: one local sort (Section 4.1); direction is bit 0
  // of the rank (= absolute bit lg n under the blocked layout).
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    local_sort(p, keys, util::bit(rank, 0) == 0);
  }
  if (log_p == 0) return;

  // Double buffering: each remap scatters from the current buffer into
  // the free one (the VP's scratch, idle once the local sort is done),
  // and the window's steps then run in place there — no copy-backs.
  const auto prog = remap_program(RemapSort::kSmart, log_n, log_p, first_chunk);
  auto& buf = p.scratch();
  buf.resize(keys.size());
  std::span<std::uint32_t> a = keys;  // current data
  std::span<std::uint32_t> b = buf;   // free buffer
  for (const RemapStep& step : prog->steps) {
    remap_data_into(p, step, a, b);
    std::swap(a, b);
    obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, step.stage);
    run_window(p, step, a);
  }

  if (a.data() != keys.data()) {
    p.timed(simd::Phase::kCompute,
            [&] { std::copy(a.begin(), a.end(), keys.begin()); });
  }
}

}  // namespace bsort::bitonic
