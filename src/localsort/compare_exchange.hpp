// Local compare-exchange execution of bitonic-network steps under an
// arbitrary BitLayout.  The thesis' Chapter 4 replaced this "simulate
// the butterfly" computation with bitonic merges; with the fused
// multi-step kernel it is faster than those merges again, and it is the
// local computation of every post-remap window in smart_sort and
// cyclic_blocked_sort.
#pragma once

#include <cstdint>
#include <span>

#include "layout/bit_layout.hpp"

namespace bsort::localsort {

/// Execute step `step` of stage `stage` of the bitonic sorting network on
/// the local portion of the data.  The compare bit (absolute bit step-1)
/// must be a local bit of `lay`.
void local_network_step(const layout::BitLayout& lay, std::uint64_t rank,
                        std::span<std::uint32_t> data, int stage, int step);

/// Execute `count` consecutive network steps starting at (stage, step),
/// advancing across stage boundaries (step s of stage k is followed by
/// step s-1, and step 1 by step k+1 of stage k+1).  All compare bits must
/// be local under `lay`.  Runs of same-stage columns whose compare
/// positions fit the fused tile, including runs of one, go to single
/// kernel::cmpex_multistep sweeps (one load/store of the array for the
/// whole run instead of one per column); the result is bit-identical to
/// executing the steps one at a time via local_network_step.
void local_network_steps(const layout::BitLayout& lay, std::uint64_t rank,
                         std::span<std::uint32_t> data, int stage, int step, int count);

}  // namespace bsort::localsort
