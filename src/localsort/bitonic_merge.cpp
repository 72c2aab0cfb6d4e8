#include "localsort/bitonic_merge.hpp"

#include <algorithm>
#include <cassert>

#include "net/sequence.hpp"

namespace bsort::localsort {

namespace {

/// Merge the two circular monotonic runs of a bitonic sequence starting
/// from a minimum at index m: walking forward from m and backward from
/// m-1 both traverse non-decreasing values until they meet.  `at` is any
/// random-access value accessor (contiguous or strided view).
template <class At>
void merge_from_min(const At& at, std::size_t n, std::size_t m, std::uint32_t* out,
                    bool ascending) {
  std::size_t i = m;                       // forward cursor
  std::size_t j = m == 0 ? n - 1 : m - 1;  // backward cursor
  // Conditional wrap instead of modulo: the divide would dominate the
  // whole merge.
  const auto fwd = [n](std::size_t x) { return x + 1 == n ? 0 : x + 1; };
  const auto bwd = [n](std::size_t x) { return x == 0 ? n - 1 : x - 1; };
  if (ascending) {
    for (std::size_t k = 0; k < n; ++k) {
      if (i == j) {
        out[k] = at(i);
        break;
      }
      const std::uint32_t vi = at(i), vj = at(j);
      if (vi <= vj) {
        out[k] = vi;
        i = fwd(i);
      } else {
        out[k] = vj;
        j = bwd(j);
      }
    }
  } else {
    for (std::size_t k = n; k-- > 0;) {
      if (i == j) {
        out[k] = at(i);
        break;
      }
      const std::uint32_t vi = at(i), vj = at(j);
      if (vi <= vj) {
        out[k] = vi;
        i = fwd(i);
      } else {
        out[k] = vj;
        j = bwd(j);
      }
    }
  }
}

template <class At>
void sort_view(const At& at, std::size_t n, std::uint32_t* out, bool ascending) {
  if (n == 0) return;
  const auto min = net::bitonic_min_index_log_generic(n, at);
  merge_from_min(at, n, min.index, out, ascending);
}

}  // namespace

void bitonic_merge_sort(std::span<const std::uint32_t> seq, std::span<std::uint32_t> out) {
  assert(seq.size() == out.size());
  const std::uint32_t* base = seq.data();
  sort_view([base](std::size_t i) { return base[i]; }, seq.size(), out.data(),
            /*ascending=*/true);
}

void bitonic_merge_sort_descending(std::span<const std::uint32_t> seq,
                                   std::span<std::uint32_t> out) {
  assert(seq.size() == out.size());
  const std::uint32_t* base = seq.data();
  sort_view([base](std::size_t i) { return base[i]; }, seq.size(), out.data(),
            /*ascending=*/false);
}

void bitonic_merge_sort_strided(const std::uint32_t* base, std::size_t offset,
                                std::size_t stride, std::size_t count,
                                std::uint32_t* out, bool ascending) {
  sort_view([base, offset, stride](std::size_t i) { return base[offset + i * stride]; },
            count, out, ascending);
}

}  // namespace bsort::localsort
