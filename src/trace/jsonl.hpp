// JSONL export of run traces: one JSON object per line, machine-readable
// next to the BENCH_*.json outputs.
//
// Line 1 is a `{"type":"meta",...}` record describing the run (label,
// algorithm, machine shape, message mode, LogGP parameters); every
// following line is a `{"type":"exchange",...}` record — one per
// recorded exchange of one VP, oldest first, VP-major.  charged_us is
// the exchange record's simulated duration and clock_us its end; the
// compute/pack/unpack columns sum the VP's leaf records since its
// previous exchange record (trace::for_each_exchange).  Rings that
// overflowed report their drop count in the meta record (per VP).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "simd/machine.hpp"

namespace bsort::trace {

/// Free-form identification of the traced run, copied into the meta
/// record.
struct TraceMeta {
  std::string label;      ///< e.g. "bench_comm_metrics"
  std::string algorithm;  ///< e.g. "smart"
  std::uint64_t keys_per_proc = 0;
};

/// Write the exchange records of the machine's (post-run) rings as
/// JSONL.  Throws ConfigError unless the machine has recording enabled.
/// Returns the number of exchange records written.
std::size_t write_jsonl(std::ostream& os, const simd::Machine& m, const TraceMeta& meta);

}  // namespace bsort::trace
