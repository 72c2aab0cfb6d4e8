#include "localsort/pway_merge.hpp"

#include <algorithm>
#include <cassert>

namespace bsort::localsort {

namespace {

/// Where a subtree's merged keys live: an input run (either direction)
/// for a leaf, an ascending buffer range for an internal node.
struct View {
  const std::uint32_t* data;
  std::size_t size;
  bool ascending;
};

View leaf(const Run& r) { return {r.data.data(), r.data.size(), r.ascending}; }

/// Branch-free two-way merge of a and b into out (ascending).  Keys are
/// read through the run's direction at compile time.  The inner loop
/// runs min(remaining a, remaining b) steps, which cannot exhaust either
/// side, so its only branch is the trip count.  The cursors advance by
/// integer arithmetic on the comparison: written as a conditional, GCC
/// turns the advance back into a data-dependent branch (measured 1.7x
/// slower on random keys).
template <bool AscA, bool AscB>
void merge2(const std::uint32_t* a, std::size_t na, const std::uint32_t* b, std::size_t nb,
            std::uint32_t* out) {
  const auto at_a = [&](std::size_t i) { return AscA ? a[i] : a[na - 1 - i]; };
  const auto at_b = [&](std::size_t j) { return AscB ? b[j] : b[nb - 1 - j]; };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    const std::size_t steps = std::min(na - i, nb - j);
    for (std::size_t s = 0; s < steps; ++s) {
      const std::uint32_t x = at_a(i);
      const std::uint32_t y = at_b(j);
      const std::size_t take_b = y < x;
      out[s] = take_b ? y : x;
      i += 1 - take_b;
      j += take_b;
    }
    out += steps;
  }
  const auto rest = [&out](const std::uint32_t* p, std::size_t n, std::size_t from, bool asc) {
    out = asc ? std::copy(p + from, p + n, out) : std::reverse_copy(p, p + (n - from), out);
  };
  rest(a, na, i, AscA);
  rest(b, nb, j, AscB);
}

void merge2(const View& a, const View& b, std::uint32_t* out) {
  if (a.ascending && b.ascending) {
    merge2<true, true>(a.data, a.size, b.data, b.size, out);
  } else if (a.ascending) {
    merge2<true, false>(a.data, a.size, b.data, b.size, out);
  } else if (b.ascending) {
    merge2<false, true>(a.data, a.size, b.data, b.size, out);
  } else {
    merge2<false, false>(a.data, a.size, b.data, b.size, out);
  }
}

/// Merge runs[lo, hi) (all non-empty) into `dst`, which points at this
/// subtree's offset in the buffer its depth writes; `other` is the same
/// offset in the buffer its children write.  A leaf stays in its run.
View merge_tree(std::span<const Run> runs, std::size_t lo, std::size_t hi,
                std::uint32_t* dst, std::uint32_t* other) {
  if (hi - lo == 1) return leaf(runs[lo]);
  const std::size_t mid = lo + (hi - lo) / 2;
  const View left = merge_tree(runs, lo, mid, other, dst);
  const View right = merge_tree(runs, mid, hi, other + left.size, dst + left.size);
  merge2(left, right, dst);
  return {dst, left.size + right.size, true};
}

}  // namespace

void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out,
                std::vector<std::uint32_t>& scratch) {
  std::vector<Run> live;
  live.reserve(runs.size());
  std::size_t total = 0;
  for (const auto& r : runs) {
    if (r.data.empty()) continue;
    live.push_back(r);
    total += r.data.size();
  }
  assert(total == out.size());
  if (live.empty()) return;
  if (live.size() == 1) {
    const auto& d = live[0].data;
    if (live[0].ascending) {
      std::copy(d.begin(), d.end(), out.begin());
    } else {
      std::reverse_copy(d.begin(), d.end(), out.begin());
    }
    return;
  }
  if (live.size() == 2) {
    // Both runs are leaves of the root: no second buffer needed.
    merge2(leaf(live[0]), leaf(live[1]), out.data());
    return;
  }
  if (scratch.size() < total) scratch.resize(total);
  merge_tree(live, 0, live.size(), out.data(), scratch.data());
}

void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out) {
  std::vector<std::uint32_t> scratch;
  pway_merge(runs, out, scratch);
}

}  // namespace bsort::localsort
