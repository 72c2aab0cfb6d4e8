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
// merges (Theorems 2/3), which smart keeps only as a measured ablation
// (SmartCompute).
#pragma once

#include <cstdint>
#include <span>

#include "schedule/smart_schedule.hpp"
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

/// Local-computation flavor for smart_sort.  kNetwork is the measured
/// winner (EXPERIMENTS.md, Chapter 4 ablation); the two paper variants
/// stay selectable so bench_local_compute can reproduce that ablation.
enum class SmartCompute {
  kNetwork,   ///< every window's steps on the fused network kernel
  kTwoPhase,  ///< Theorems 2/3: bitonic merge sorts per window
  kFused      ///< Section 4.3: merge fused with unpacking
};

struct SmartOptions {
  schedule::ShiftStrategy strategy = schedule::ShiftStrategy::kHead;
  SmartCompute compute = SmartCompute::kNetwork;
  int first_chunk = 0;  ///< 0 = derive from strategy (see make_smart_schedule)
};

void smart_sort(simd::Proc& p, std::span<std::uint32_t> keys,
                const SmartOptions& options = {});

}  // namespace bsort::bitonic
