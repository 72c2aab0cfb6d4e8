// Pluggable execution backends for the Machine's exchange path.
//
// Every number the repo produced before this seam existed was CHARGED,
// not measured: the Machine prices communication analytically with the
// Meiko CS-2 LogGP constants (Section 3.4).  The backend interface
// separates "what an exchange costs" from the exchange protocol itself:
//
//   * kSimulated — the historical default.  recv views stay zero-copy
//     (spans into the senders' arenas) and the transfer charge is the
//     LogP/LogGP closed form with the machine's parameter set,
//     bit-for-bit identical to the pre-backend Machine.
//   * kNative    — exchanges EXECUTE: each VP memcpys every non-self
//     received payload from the sender's arena into its own persistent
//     recv arena, and the transfer time charged to the simulated clock
//     is the MEASURED duration of those copies (thread-CPU clock when
//     it ticks finely enough, monotonic otherwise).  This is the
//     measured-multicore discipline of Gerbessiotis' integer-sorting
//     study: the same schedule, real data movement, real time.
//
// Charging direction: the LogGP model charges the SENDER for the V_i
// elements it injects; the native backend charges the RECEIVER for the
// copies it performs (the receiver pulls).  Totals over all VPs agree
// on balanced patterns; per-VP attribution can differ on asymmetric
// ones — each exchange record (obs::SpanRecord) keeps the send-side
// V/M next to whatever time was charged, so calibration fits stay
// well-posed on the symmetric micro-benchmarks trace::calibrate runs.
//
// Backends are stateless and shared across VPs: collect() is called
// concurrently by every VP's worker thread and must only touch the
// per-VP state passed in.  A collect() call performs zero steady-state
// heap allocations (the recv arena is a persistent per-VP buffer that
// reaches its high-water mark during warm-up) — audited in
// bench_machine_overhead alongside the recording layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "loggp/params.hpp"

namespace bsort::backend {

enum class Kind : int {
  kSimulated = 0,  ///< analytic LogP/LogGP charges (the historical Machine)
  kNative = 1,     ///< real memcpys between VP heaps, measured time
};

/// "simulated" / "native".
const char* kind_name(Kind k);

/// Resolve the backend kind: the BSORT_BACKEND environment variable
/// ("simulated" | "native") when set, `fallback` otherwise.  An
/// unrecognized value throws bsort::ConfigError — a typo must not
/// silently run the wrong backend.
Kind kind_from_env(Kind fallback);

/// One committed exchange as the backend prices it (send-side V/M, the
/// machine's charging discipline and parameter set).
struct ExchangeDesc {
  const loggp::Params* params = nullptr;
  std::uint64_t elements = 0;  ///< V_i: non-self elements this VP sent
  std::uint64_t messages = 0;  ///< M_i: non-self, non-empty send slots
  bool long_messages = false;  ///< LogGP (long) vs LogP (short) charging
  int elem_bytes = 4;
};

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  /// True when exchange times are measured on the host rather than
  /// charged analytically (trace charged_us and the kExchange obs span
  /// then carry measured time).
  [[nodiscard]] virtual bool measured() const = 0;

  /// Finalize one VP's receive side of a committed exchange and return
  /// the transfer time (us) to charge to its simulated clock.
  ///
  /// On entry `views` point zero-copy into the senders' arenas (the
  /// sync barrier has already made them globally visible); entry
  /// `self_view` — npos when absent — is the VP's own kept slot and is
  /// never copied or charged.  The simulated backend leaves the views
  /// alone and returns the analytic charge; the native backend memcpys
  /// every other view into `recv_arena`, re-points the views at the
  /// copies, and returns the measured copy time.  Runs outside any
  /// timed section, on the calling VP's worker thread.
  virtual double collect(const ExchangeDesc& x,
                         std::span<std::span<const std::uint32_t>> views,
                         std::size_t self_view,
                         std::vector<std::uint32_t>& recv_arena) const = 0;
};

std::unique_ptr<Backend> make_simulated();
std::unique_ptr<Backend> make_native();
std::unique_ptr<Backend> make(Kind k);

}  // namespace bsort::backend
