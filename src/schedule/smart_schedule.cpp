#include "schedule/smart_schedule.hpp"

#include <cassert>
#include <string>

#include "fault/error.hpp"

namespace bsort::schedule {

std::uint64_t SmartSchedule::total_steps() const {
  std::uint64_t t = 0;
  for (const auto& r : remaps) t += static_cast<std::uint64_t>(r.steps);
  return t;
}

SmartSchedule make_smart_schedule(int log_n, int log_p, int first_chunk) {
  assert(log_n >= 1 && "smart sort needs at least 2 keys per processor");
  assert(log_p >= 1);
  if (first_chunk < 0 || first_chunk > log_n) {
    throw ConfigError("make_smart_schedule: first_chunk " + std::to_string(first_chunk) +
                      " is outside [0, lg n = " + std::to_string(log_n) + "]");
  }
  SmartSchedule sched{log_n, log_p, {}};

  // Walk the last lg P stages.  State: the next step to execute is step s
  // of stage lg n + k.  The last remap (Definition 7 special case) goes
  // back to blocked and executes the remaining s steps; every other one
  // executes `chunk` steps, and a window crosses at most one stage
  // boundary because chunk <= lg n < stage length.
  int chunk = first_chunk == 0 ? log_n : first_chunk;
  int k = 1;
  int s = log_n + 1;
  while (k <= log_p) {
    const auto sp = layout::smart_params(log_n, log_p, k, s);
    const int steps = sp.kind == layout::SmartKind::kLast ? s : chunk;
    sched.remaps.push_back({sp, layout::BitLayout::smart(log_n, log_p, sp), steps});
    chunk = log_n;
    s -= steps;
    if (s <= 0) {
      k += 1;
      s += log_n + k;  // continue at step (lg n + k) of the next stage
    }
  }
  assert(s == log_n + k && "must finish exactly at the network's end");
  return sched;
}

std::uint64_t schedule_volume_per_proc(const SmartSchedule& sched) {
  const std::uint64_t n = std::uint64_t{1} << sched.log_n;
  auto prev = layout::BitLayout::blocked(sched.log_n, sched.log_p);
  std::uint64_t volume = 0;
  for (const auto& phase : sched.remaps) {
    const int r = layout::bits_changed(prev, phase.layout);
    volume += n - (n >> r);
    prev = phase.layout;
  }
  return volume;
}

}  // namespace bsort::schedule
