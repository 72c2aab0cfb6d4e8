// The remap programs of the two remapping bitonic sorts, and the
// exchange steps all three bitonic sorts run on the simulated machine.
//
// A sort's remap sequence depends only on its shape (lg n, lg P and, for
// smart, the Lemma 5 shift).  remap_program builds it once per shape —
// each step's mask plan (Section 3.3), target layout, per-rank peers and
// sizes, trace annotation and network window — and every VP of every
// call shares that immutable copy from the process-wide shape memo
// (layout/remap.hpp).  With the exchange arena and the scratch buffer
// owned by the Machine, a warm remap performs zero heap allocations.
//
// remap_data_into packs per-peer messages with one table lookup per key
// straight into the VP's exchange arena, transfers, and scatters on
// arrival from the received views; pack and unpack are charged to their
// own phases (Table 5.4 / Figure 5.6).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "layout/bit_layout.hpp"
#include "layout/remap.hpp"
#include "simd/machine.hpp"
#include "trace/events.hpp"

namespace bsort::bitonic {

/// One remap of a program and the network window run after it.
struct RemapStep {
  /// One rank's exchange pattern, plan->group_size() entries per list;
  /// the kept portion's send size is 0 (it is moved during unpack).
  struct Peers {
    std::vector<std::uint64_t> send;
    std::vector<std::uint64_t> recv;
    std::vector<std::size_t> sizes;
  };
  std::shared_ptr<const layout::MaskPlan> plan;  ///< shared by the steps of one layout pair
  layout::BitLayout to;                          ///< layout remapped into
  std::vector<Peers> peers;                      ///< [rank]
  int group_log2;  ///< trace annotation: r of Lemma 4, and both layouts' classes
  trace::LayoutTag from_tag;
  trace::LayoutTag to_tag;
  int stage;  ///< window under `to`: `steps` network steps from step `step` of `stage`
  int step;
  int steps;
};

struct RemapProgram {
  std::vector<RemapStep> steps;
  /// Heap bytes the program keeps alive, its plans included.
  [[nodiscard]] std::size_t bytes() const;
};

enum class RemapSort { kSmart, kCyclicBlocked };

/// The shared program of one sort shape.  Smart: the remaps of
/// schedule::make_smart_schedule(log_n, log_p, first_chunk).
/// Cyclic-blocked (`first_chunk` ignored): for each of the last lg P
/// stages, blocked -> cyclic with the stage's first k steps, then
/// cyclic -> blocked with its last lg n steps.  Needs lg n, lg P >= 1.
std::shared_ptr<const RemapProgram> remap_program(RemapSort sort, int log_n, int log_p,
                                                  int first_chunk = 0);

/// Remap this rank's local portion (read from `in`) into `step.to`
/// (scattered into `out`).  `in` and `out` must not alias: the
/// double-buffered form avoids the copy-back of an in-place remap.
void remap_data_into(simd::Proc& p, const RemapStep& step, std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out);

/// Run `step`'s window on `data` (laid out as step.to), charged as compute.
void run_window(simd::Proc& p, const RemapStep& step, std::span<std::uint32_t> data);

/// One remote step of the fixed blocked strategy (Section 3.4.2): swap
/// whole blocks with `partner` through the exchange arena, a 2-processor
/// "remap", and keep the minimum or maximum of each element pair.
void exchange_keep(simd::Proc& p, std::span<std::uint32_t> keys, std::uint64_t partner,
                   bool keep_min);

/// One timed local radix sort of `keys`, through the VP's scratch buffer.
void local_sort(simd::Proc& p, std::span<std::uint32_t> keys, bool ascending);

}  // namespace bsort::bitonic
