// p-way merge of sorted runs (Section 4.3, where it merges the one sorted
// run per peer that arrives after a smart remap).  Sample sort merges its
// received buckets with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bsort::localsort {

/// One input run; `ascending` describes the run's own order.
struct Run {
  std::span<const std::uint32_t> data;
  bool ascending;
};

/// Merge `runs` into `out` in ascending order.  out.size() must equal the
/// total input size.  Uses a simple binary-heap tournament; O(N log p).
void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out);

}  // namespace bsort::localsort
