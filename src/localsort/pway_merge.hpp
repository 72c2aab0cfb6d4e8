// p-way merge of sorted runs (Section 4.3, where it merges the one sorted
// run per peer that arrives after a smart remap).  Sample sort merges its
// received buckets with it.
//
// A balanced binary merge tree: the runs are halved recursively and each
// internal node merges its two children with a branch-free two-way merge
// (one compare, two conditional moves per key), so every key is moved
// ceil(lg p) times and no comparison branches on the data or on a run's
// direction.  Children of a node land in the buffer the node does not
// write (the output and one scratch buffer alternate by depth); a leaf is
// read in place from its input run, descending runs backwards, so no run
// is ever copied just to normalize it.  Handles any run count, empty runs
// and keys up to UINT32_MAX (no sentinels).
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
/// total input size.  `scratch` is resized as needed (to the total size
/// when three or more runs are non-empty) and reused across calls.
void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out,
                std::vector<std::uint32_t>& scratch);

/// Same, with a private scratch buffer.
void pway_merge(std::span<const Run> runs, std::span<std::uint32_t> out);

}  // namespace bsort::localsort
