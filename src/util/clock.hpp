// The compute clock: the calling thread's CPU time.  Every Proc::timed
// section, every span host stamp and the native backend's copy loop read
// it, so a VP is charged its own processor time however many VPs share
// the host's cores (the thesis charges each node its own work).
#pragma once

#include <time.h>

namespace bsort::util {

/// This thread's CPU time in microseconds (CLOCK_THREAD_CPUTIME_ID).
inline double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// Tick of that clock in nanoseconds, or -1 when the host cannot report it.
inline long long thread_cpu_tick_ns() {
  timespec res{};
  if (clock_getres(CLOCK_THREAD_CPUTIME_ID, &res) != 0) return -1;
  return static_cast<long long>(res.tv_sec) * 1000000000LL + res.tv_nsec;
}

}  // namespace bsort::util
