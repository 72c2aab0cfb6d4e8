// Parallel bitonic sort implementations on the simulated machine.
//
// All three algorithms take each processor's local portion of the keys
// (every processor holds n = N/P keys, N and P powers of two) with a
// blocked input layout and leave the data globally sorted in a blocked
// layout: processor r ends up holding global ranks [r*n, (r+1)*n).
//
//   * blocked_merge_sort — the [BLM+91] baseline: fixed blocked layout,
//     the remote steps of each stage exchange the full local array with
//     one partner and keep the min/max half; the local lg n steps of a
//     stage are replaced by a local radix sort.
//   * cyclic_blocked_sort — the [CDMS94] baseline (Section 2.3): remap
//     blocked->cyclic at each of the last lg P stages, execute the stage's
//     first k steps locally, remap back and finish the stage's last lg n
//     steps locally.  Requires N >= P^2.
//   * smart_sort — the paper's contribution (Algorithm 1): minimal-remap
//     smart layouts, lg n local steps after every remap.  No restriction
//     on N vs P beyond n >= 2.
//
// Both remapping sorts run every local window of network steps through
// localsort::local_network_steps, whose fused multi-step kernel keeps
// runs of low-stride columns in registers/L1.  On current hosts that
// beats the paper's Chapter 4 replacement of the network by bitonic
// merges (Theorems 2/3), measured 2.0-4.3x slower (EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <span>

#include "simd/machine.hpp"

namespace bsort::bitonic {

/// The fully naive Chapter 2.2 implementation: simulate every
/// compare-exchange step of the network under a fixed blocked layout
/// (local steps element by element, remote steps by exchanging the whole
/// block with the partner).  Baseline for the Chapter 4 computation
/// ablations.
void naive_blocked_sort(simd::Proc& p, std::span<std::uint32_t> keys);

void blocked_merge_sort(simd::Proc& p, std::span<std::uint32_t> keys);

void cyclic_blocked_sort(simd::Proc& p, std::span<std::uint32_t> keys);

/// `first_chunk` is the Lemma 5 shift: the number of network steps after
/// the first remap (see schedule::make_smart_schedule; 0 = HeadRemap).
/// Throws ConfigError outside [0, lg n].
void smart_sort(simd::Proc& p, std::span<std::uint32_t> keys, int first_chunk = 0);

}  // namespace bsort::bitonic
