// Smart-remap schedule generation (Algorithm 1 + Lemma 5 shift
// strategies).
//
// A schedule lists, for the last lg P stages of the bitonic sorting
// network, every remap: the smart layout to remap into (Definition 7) and
// how many network steps to execute locally before the next remap.  The
// default (HeadRemap) executes lg n steps after every remap except
// possibly the last; TailRemap moves the short chunk to the front;
// MiddleRemap variants shift the boundary anywhere in between (Lemma 5).
#pragma once

#include <cstdint>
#include <vector>

#include "layout/bit_layout.hpp"

namespace bsort::schedule {

/// One remap of a smart schedule.
struct RemapPhase {
  layout::SmartParams params;  ///< Definition 7 parameters at the remap point
  layout::BitLayout layout;    ///< layout remapped into (phase-1 ordering)
  int steps;                   ///< network steps executed locally afterwards
};

struct SmartSchedule {
  int log_n;
  int log_p;
  std::vector<RemapPhase> remaps;

  /// Total network steps covered (must equal the steps of the last lg P
  /// stages: lgP*lgn + lgP(lgP+1)/2).
  [[nodiscard]] std::uint64_t total_steps() const;
};

/// Build a schedule.  `first_chunk` is the number of steps executed after
/// the FIRST remap; every later remap executes lg n steps, except the
/// last, which takes what remains.  The strategies of Lemma 5:
///   HeadRemap:    first_chunk = 0 or lg n  (remainder lands at the end)
///   TailRemap:    first_chunk = N_rem      (remainder at the front;
///                 N_rem = 0 is HeadRemap, which equals TailRemap there)
///   MiddleRemap:  any other value in [1, lg n)
/// Requires lg n >= 1 (at least two keys per processor) and lg P >= 1;
/// throws ConfigError when first_chunk is outside [0, lg n].
SmartSchedule make_smart_schedule(int log_n, int log_p, int first_chunk = 0);

/// Measured total volume per processor of a schedule: sum over remaps of
/// n * (1 - 2^-r) where r is bits_changed into each remap's layout,
/// starting from the blocked layout.
std::uint64_t schedule_volume_per_proc(const SmartSchedule& sched);

/// Total number of remaps (R).
inline std::uint64_t schedule_remaps(const SmartSchedule& sched) {
  return sched.remaps.size();
}

}  // namespace bsort::schedule
