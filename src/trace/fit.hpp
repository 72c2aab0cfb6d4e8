// Least-squares recovery of (L, o, g, G) from exchange records.
//
// Real LogP calibrations fit the model to measured micro-benchmarks
// (e.g. [CLMY96]); this module does the same against the simulated
// machine's recorded exchanges, closing the loop: the recovered parameters can be
// fed straight back into loggp::choose_strategy(), so strategy
// selection runs off MEASURED behaviour instead of a hand-entered
// parameter table (see examples/adaptive_sort.cpp).
//
// Identifiability: every per-exchange charge depends on L and o only
// through a = L + 2o, so the fit recovers `a` and splits it using a
// caller-supplied `known_o` (in practice o is measured separately with
// a send/recv-overhead micro-benchmark; the thesis takes it from
// [AISS95]).  In long-message mode the design is
//   charged = a + (G*elem_bytes) * (V - M) + g * (M - 1)
// which needs at least two distinct message counts M to separate g from
// a — calibrate() therefore mixes pairwise (M = 1) and all-to-all
// (M = P-1) exchanges and requires P >= 4 in long mode.  In short mode
//   charged = a + g * (V - 1)
// and G is not exercised at all (reported as 0).
#pragma once

#include <cstdint>

#include "loggp/params.hpp"
#include "simd/machine.hpp"

namespace bsort::trace {

struct FitResult {
  loggp::Params params{};        ///< recovered (L, o, g, G); o == known_o
  double max_rel_residual = 0;   ///< worst |predicted - charged| / charged
  std::size_t events = 0;        ///< exchange records used as fit rows
  bool long_mode = false;        ///< G fitted (true) or unexercised (false)
};

/// Fit (L, g[, G]) to every exchange record currently in the machine's
/// span rings, with `known_o` pinning the a = L + 2o split.  Throws
/// ConfigError when recording is disabled, and std::invalid_argument
/// when there are fewer usable rows than unknowns or the design is
/// singular (e.g. long mode with only single-peer exchanges, where
/// M - 1 == 0 everywhere).
FitResult fit_params(const simd::Machine& m, double known_o, int elem_bytes = 4);

/// Run a calibration micro-benchmark on the machine (pairwise exchanges
/// of 16/64/256/1024 keys, then all-to-all exchanges of 16/64/256 keys
/// per peer), then fit_params() on its records.  Enables recording for
/// the calibration run and restores the previous recording state before
/// returning.  Requires nprocs >= 2 (>= 4 in long mode).
FitResult calibrate(simd::Machine& m, double known_o, int elem_bytes = 4);

}  // namespace bsort::trace
