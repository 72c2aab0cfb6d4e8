#include "localsort/pway_merge.hpp"

#include <algorithm>
#include <cassert>

namespace bsort::localsort {

namespace {

/// Cursor over a run, normalized to ascending traversal.
struct Cursor {
  const std::uint32_t* base;
  std::size_t size;
  std::size_t pos;  // elements consumed
  bool ascending;

  [[nodiscard]] std::uint32_t value() const {
    return ascending ? base[pos] : base[size - 1 - pos];
  }
  [[nodiscard]] bool exhausted() const { return pos == size; }
};

}  // namespace

void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out) {
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  std::size_t total = 0;
  for (const auto& r : runs) {
    if (r.data.empty()) continue;
    cursors.push_back(Cursor{r.data.data(), r.data.size(), 0, r.ascending});
    total += r.data.size();
  }
  assert(total == out.size());

  if (cursors.size() == 1) {
    const Cursor& c = cursors[0];
    for (std::size_t i = 0; i < c.size; ++i) {
      out[i] = c.ascending ? c.base[i] : c.base[c.size - 1 - i];
    }
    return;
  }

  // Min-heap of cursor indices keyed by current value.
  auto greater = [&](std::size_t x, std::size_t y) {
    return cursors[x].value() > cursors[y].value();
  };
  std::vector<std::size_t> heap;
  heap.reserve(cursors.size());
  for (std::size_t i = 0; i < cursors.size(); ++i) heap.push_back(i);
  std::make_heap(heap.begin(), heap.end(), greater);

  for (std::size_t k = 0; k < total; ++k) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const std::size_t c = heap.back();
    out[k] = cursors[c].value();
    ++cursors[c].pos;
    if (cursors[c].exhausted()) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
}

}  // namespace bsort::localsort
