#include "localsort/bitonic_merge.hpp"

#include <cassert>

#include "net/sequence.hpp"

namespace bsort::localsort {

void bitonic_merge_sort(std::span<const std::uint32_t> seq, std::span<std::uint32_t> out) {
  assert(seq.size() == out.size());
  const std::size_t n = seq.size();
  if (n == 0) return;
  // Merge the two circular monotonic runs starting from a minimum at m:
  // walking forward from m and backward from m-1 both traverse
  // non-decreasing values until they meet.
  const std::size_t m = net::bitonic_min_index_log(seq).index;
  std::size_t i = m;                       // forward cursor
  std::size_t j = m == 0 ? n - 1 : m - 1;  // backward cursor
  // Conditional wrap instead of modulo: the divide would dominate the
  // whole merge.
  for (std::size_t k = 0; k < n; ++k) {
    if (i == j) {
      out[k] = seq[i];
      break;
    }
    const std::uint32_t vi = seq[i], vj = seq[j];
    if (vi <= vj) {
      out[k] = vi;
      i = i + 1 == n ? 0 : i + 1;
    } else {
      out[k] = vj;
      j = j == 0 ? n - 1 : j - 1;
    }
  }
}

}  // namespace bsort::localsort
