// Exchange-record vocabulary shared by the span records (obs/spans.hpp)
// and the trace readers: the layout-transition tag a sort attaches to a
// remap through Proc::trace_remap(), and the bits of an exchange
// record's fault mask.
//
// The thesis validates its closed-form LogP/LogGP predictions against
// measured runs (Section 5, Tables 5.1-5.4).  The simulated machine
// keeps the records that check needs in its one per-VP recorder, the
// span ring: every commit_exchange() writes a kExchange leaf record
// carrying the communication pattern (elements, messages, peers), the
// charged transfer time (its simulated duration) and the remap
// annotation.  The JSONL exporter, the model validator and the
// parameter fitter read those records (trace/jsonl.hpp,
// trace/validate.hpp, trace/fit.hpp).
//
// Dependency-free so obs/spans.hpp and simd/machine.hpp can include it.
#pragma once

#include <cstdint>

namespace bsort::trace {

/// Coarse classification of a BitLayout for exchange records (the full
/// bit pattern would be unbounded; the validator only needs the
/// transition kind).
enum class LayoutTag : std::int8_t {
  kUnknown = -1,  ///< exchange was not annotated
  kBlocked = 0,
  kCyclic = 1,
  kSmart = 2,  ///< a smart layout of Definition 7 (neither blocked nor cyclic)
  kOther = 3   ///< not a remap between bit layouts (e.g. sample-sort all-to-all)
};

const char* layout_tag_name(LayoutTag t);

/// Bits of an exchange record's fault_mask: which injected faults (if
/// any) landed on this VP during this exchange's commit (src/fault/).
inline constexpr std::uint8_t kFaultStraggler = 1u << 0;
inline constexpr std::uint8_t kFaultCrash = 1u << 1;
inline constexpr std::uint8_t kFaultCorrupt = 1u << 2;
inline constexpr std::uint8_t kFaultTruncate = 1u << 3;
inline constexpr std::uint8_t kFaultOversize = 1u << 4;

}  // namespace bsort::trace
