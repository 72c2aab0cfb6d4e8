// Bitonic-sequence toolkit: recognition, split, and the O(log n) minimum
// search of Algorithm 2 (Section 4.2 of the thesis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace bsort::net {

/// True iff `seq` is a bitonic sequence per Definition 1: some cyclic
/// shift of it is monotonically increasing then decreasing.  Handles
/// duplicates (runs of equal values are collapsed before the check).
bool is_bitonic(std::span<const std::uint32_t> seq);

/// In-place bitonic split (Definition 2): afterwards the first half and
/// second half are each bitonic and every element of the first half is
/// <= every element of the second half.  seq.size() must be even.
void bitonic_split(std::span<std::uint32_t> seq);

/// Index of a minimum element, found by linear scan.  O(n).
std::size_t bitonic_min_index_linear(std::span<const std::uint32_t> seq);

/// Index of the minimum element of a bitonic sequence via Algorithm 2
/// (three-splitter circular search).  O(log n) when elements are
/// distinct; falls back to a linear scan of the remaining interval when
/// two equal minimum splitters are encountered, as prescribed by the
/// thesis.  Counts of probes are exposed for the complexity tests.
struct MinSearchResult {
  std::size_t index;        ///< position of a minimum element
  std::size_t comparisons;  ///< number of splitter comparisons performed
  bool fell_back_linear;    ///< true if the duplicate fallback triggered
};
MinSearchResult bitonic_min_index_log(std::span<const std::uint32_t> seq);

/// Generic form of Algorithm 2 over an arbitrary accessor `at(i)` for a
/// circular bitonic sequence of length n (a contiguous or strided view).
template <class At>
MinSearchResult bitonic_min_index_log_generic(std::size_t n, At&& at) {
  MinSearchResult res{0, 0, false};
  auto scan_arc = [&](std::size_t lo, std::size_t hi) {
    std::size_t best = lo % n;
    for (std::size_t v = lo + 1; v <= hi; ++v) {
      ++res.comparisons;
      if (at(v % n) < at(best)) best = v % n;
    }
    return best;
  };
  if (n <= 4) {
    res.index = scan_arc(0, n - 1);
    return res;
  }
  const auto val = [&](std::size_t v) { return at(v % n); };

  const std::size_t p0 = 0, p1 = n / 3, p2 = 2 * n / 3;
  std::size_t l, m, r;
  res.comparisons += 2;
  const auto v0 = val(p0), v1 = val(p1), v2 = val(p2);
  if (v0 < v1 && v0 < v2) {
    l = p2;
    m = p0 + n;
    r = p1 + n;
  } else if (v1 < v0 && v1 < v2) {
    l = p0;
    m = p1;
    r = p2;
  } else if (v2 < v0 && v2 < v1) {
    l = p1;
    m = p2;
    r = p0 + n;
  } else {
    res.fell_back_linear = true;
    res.index = scan_arc(0, n - 1);
    return res;
  }

  // Invariants: a minimum lies on the arc [l..r] and val(m) is strictly
  // smaller than val(l) and val(r).
  while ((m - l) + (r - m) > 2) {
    const bool has_x = m - l >= 2;
    const bool has_y = r - m >= 2;
    const std::size_t x = (l + m) / 2;
    const std::size_t y = (m + r) / 2;
    if (has_x && has_y) {
      res.comparisons += 2;
      const auto vx = val(x), vm = val(m), vy = val(y);
      if (vx < vm && vx < vy) {
        r = m;
        m = x;
      } else if (vm < vx && vm < vy) {
        l = x;
        r = y;
      } else if (vy < vx && vy < vm) {
        l = m;
        m = y;
      } else {
        res.fell_back_linear = true;
        res.index = scan_arc(l, r);
        return res;
      }
    } else if (has_x) {
      ++res.comparisons;
      const auto vx = val(x), vm = val(m);
      if (vx < vm) {
        r = m;
        m = x;
      } else if (vx > vm) {
        l = x;
      } else {
        res.fell_back_linear = true;
        res.index = scan_arc(l, r);
        return res;
      }
    } else {  // has_y only
      ++res.comparisons;
      const auto vy = val(y), vm = val(m);
      if (vy < vm) {
        l = m;
        m = y;
      } else if (vy > vm) {
        r = y;
      } else {
        res.fell_back_linear = true;
        res.index = scan_arc(l, r);
        return res;
      }
    }
  }
  res.index = m % n;
  return res;
}

}  // namespace bsort::net
