// Bitonic merge sort (Section 4.2): sort a bitonic sequence in O(n) by
// locating its minimum (Algorithm 2, O(log n)) and merging the two
// monotonic circular runs on either side of it.
#pragma once

#include <cstdint>
#include <span>

namespace bsort::localsort {

/// Sort a bitonic sequence ascending into `out` (out.size() == seq.size()).
void bitonic_merge_sort(std::span<const std::uint32_t> seq, std::span<std::uint32_t> out);

/// Sort a bitonic sequence descending into `out`.
void bitonic_merge_sort_descending(std::span<const std::uint32_t> seq,
                                   std::span<std::uint32_t> out);

/// Sort the strided bitonic view {base[offset + j*stride] : j < count}
/// into the contiguous out[0..count).  Used by the crossing-window
/// computation to consume phase-2 chunks directly from the phase-1
/// arrangement, eliminating the intermediate shuffle pass (the thesis'
/// "reduce expensive data movements" refinement).
void bitonic_merge_sort_strided(const std::uint32_t* base, std::size_t offset,
                                std::size_t stride, std::size_t count,
                                std::uint32_t* out, bool ascending);

}  // namespace bsort::localsort
