// Model validation: measured trace totals vs. the Section 3.4 closed
// forms.
//
// The thesis' Tables 5.1-5.4 compare predicted and measured
// communication; this module automates the comparison for the simulated
// machine.  After a recorded run, validate_run() aggregates the exchange
// records of each VP's span ring into measured (R, V, M, charged time) and checks them against
// loggp::predict() for the strategy under test: R/V/M must match
// EXACTLY (the machine charges analytically, so any discrepancy is a
// model bug or a metrics-formula bug — this layer is what catches the
// divide-before-multiply and the out-of-regime closed forms), and the
// charged communication time must match total_time_{short,long} to a
// relative tolerance that only absorbs floating-point summation order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loggp/choose.hpp"
#include "obs/spans.hpp"
#include "simd/machine.hpp"

namespace bsort::trace {

/// Local time one VP's leaf records accumulated between two exchange
/// records — the same slicing PhaseBreakdown uses (injected straggler
/// delays count as compute).
struct PhaseDelta {
  double compute_us = 0;
  double pack_us = 0;
  double unpack_us = 0;
};

/// Call f(record, delta) for every kExchange record of `ring`, oldest
/// first, where `delta` is the local time recorded since the previous
/// exchange record (or since the oldest retained record).
template <class F>
void for_each_exchange(const obs::VpSpans& ring, F&& f) {
  PhaseDelta d;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const obs::SpanRecord& r = ring[i];
    switch (r.kind) {
      case obs::SpanKind::kCompute:
      case obs::SpanKind::kStraggler:
        d.compute_us += r.sim_us();
        break;
      case obs::SpanKind::kPack:
        d.pack_us += r.sim_us();
        break;
      case obs::SpanKind::kUnpack:
        d.unpack_us += r.sim_us();
        break;
      case obs::SpanKind::kExchange:
        f(r, d);
        d = PhaseDelta{};
        break;
      default:
        break;
    }
  }
}

/// Per-VP totals aggregated from the exchange records of one ring.
struct MeasuredMetrics {
  std::uint64_t remaps = 0;     ///< annotated exchanges (trace_remap ordinals)
  std::uint64_t exchanges = 0;  ///< all exchanges retained in the ring
  std::uint64_t elements = 0;   ///< V: sum of per-exchange elements
  std::uint64_t messages = 0;   ///< M: sum of per-exchange messages
  double charged_us = 0;        ///< total LogP/LogGP transfer time charged
  std::uint64_t dropped = 0;    ///< records of any kind lost to ring overflow
};

MeasuredMetrics measure(const obs::VpSpans& ring);

/// One VP's verdict.  `complete` is false when the ring dropped any
/// record (the totals may then be partial and every check is reported
/// failed).
struct VpValidation {
  int vp = 0;
  MeasuredMetrics measured;
  loggp::StrategyMetrics predicted{};
  double predicted_time_us = 0;
  bool complete = false;
  bool remaps_ok = false;
  bool elements_ok = false;
  bool messages_ok = false;  ///< vacuously true in short mode (M == V there)
  bool time_ok = false;
  [[nodiscard]] bool ok() const {
    return complete && remaps_ok && elements_ok && messages_ok && time_ok;
  }
};

struct ValidationReport {
  loggp::Strategy strategy{};
  std::vector<VpValidation> vps;
  [[nodiscard]] bool all_ok() const;
  /// Human-readable multi-line summary (used by the benches); lists one
  /// line per failing VP, or a single "ok" line.
  [[nodiscard]] std::string summary() const;
};

/// Validate the machine's most recent recorded run of a sort using
/// `strategy`'s remapping, with `keys_per_proc` keys per VP.  The
/// prediction side is loggp::predict() — the exact general-shape
/// schedule formulas for Smart, the closed forms for Blocked and
/// Cyclic-Blocked.  `rel_tol` bounds the relative error accepted on the
/// charged time (default absorbs only summation-order noise).
ValidationReport validate_run(const simd::Machine& m, loggp::Strategy strategy,
                              std::uint64_t keys_per_proc, double rel_tol = 1e-9);

}  // namespace bsort::trace
