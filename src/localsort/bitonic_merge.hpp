// Bitonic merge sort (Section 4.2): sort a bitonic sequence in O(n) by
// locating its minimum (Algorithm 2, O(log n)) and merging the two
// monotonic circular runs on either side of it.
#pragma once

#include <cstdint>
#include <span>

namespace bsort::localsort {

/// Sort a bitonic sequence ascending into `out` (out.size() == seq.size()).
void bitonic_merge_sort(std::span<const std::uint32_t> seq, std::span<std::uint32_t> out);

}  // namespace bsort::localsort
