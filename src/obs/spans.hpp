// Span timeline model: the one per-VP recorder of a run.
//
// The thesis' whole argument is a time breakdown — local sort vs. merge
// steps vs. remap communication (Tables 5.1-5.4) — so the simulator
// carries a span profiler with the same slicing: RAII scoped spans
// recorded on BOTH clock domains (the VP's simulated clock and the host
// thread-CPU clock), appended to a per-VP preallocated ring.
//
// Two layers of spans cover a run:
//
//   * LEAF spans are emitted by the Machine itself and tile the
//     simulated clock exactly: every Proc::timed section (compute /
//     pack / unpack), every transfer charge of commit_exchange
//     ("exchange"), every clock jump of a barrier ("barrier-wait") and
//     every injected straggler delay.  Leaf spans never nest inside one
//     another, so for any VP the sum of its leaf-span simulated
//     durations equals its final clock (tested in test_obs.cpp).
//   * STRUCTURAL spans are opened by the sorts through obs::ScopedSpan
//     (local sort, merge stage k, remap r, ...) and enclose leaf spans,
//     giving the timeline its named hierarchy; the span arg carries the
//     remap ordinal / stage number.
//
// Each "exchange" leaf record also carries the exchange's payload — the
// communication pattern, the remap annotation and the injected-fault
// bits — so the same ring feeds the trace readers (JSONL export, model
// validation, parameter fitting; src/trace/) as well as the metrics and
// the Perfetto exporter.
//
// Constraints (enforced by bench_machine_overhead's audit):
//   * disabled recording costs one predicted branch per span site;
//   * enabled recording performs zero steady-state heap allocations:
//     the ring is sized once at Machine::enable_profiling() and
//     overwrites its oldest records on overflow (dropped() reports how
//     many).
//
// This header depends only on the dependency-free trace/events.hpp so
// simd/machine.hpp can include it; the RAII helper (obs/profile.hpp),
// the metric aggregation (obs/metrics.hpp) and the Perfetto exporter
// (obs/perfetto.hpp) layer on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/events.hpp"

namespace bsort::obs {

enum class SpanKind : std::uint8_t {
  // ---- leaf spans (Machine-emitted; tile the simulated clock) -------
  kCompute = 0,      ///< Proc::timed(Phase::kCompute) section
  kPack = 1,         ///< Proc::timed(Phase::kPack) section
  kExchange = 2,     ///< LogP/LogGP transfer charge of commit_exchange
  kUnpack = 3,       ///< Proc::timed(Phase::kUnpack) section
  kBarrierWait = 4,  ///< clock jump absorbed at a barrier (BSP skew)
  kStraggler = 5,    ///< injected straggler delay (src/fault/)

  // ---- structural spans (sort-emitted via obs::ScopedSpan) ----------
  kLocalSort = 6,   ///< the initial full local sort
  kMergeStage = 7,  ///< one merge stage / window (arg: stage or k)
  kRemap = 8,       ///< one data remap end to end (arg: exchange ordinal)
  kStage = 9,       ///< one pass of a non-bitonic sort (arg: pass)
  kSample = 10,     ///< sample-sort splitter selection
  kTranspose = 11,  ///< column-sort transpose / shift step

  // ---- instants (zero duration) -------------------------------------
  kFault = 12,  ///< injected fault landed (mask in SpanRecord::fault_mask)
};
inline constexpr int kSpanKindCount = 13;

/// Stable display name ("pack", "barrier-wait", ...).
const char* span_kind_name(SpanKind k);

/// True for the Machine-emitted kinds that tile the simulated clock.
constexpr bool span_kind_is_leaf(SpanKind k) {
  return static_cast<std::uint8_t>(k) <= static_cast<std::uint8_t>(SpanKind::kStraggler);
}

/// One closed span (or instant) as recorded by one VP.  POD; stored by
/// value in the ring.  Simulated times come from the VP's clock;
/// host times from CLOCK_THREAD_CPUTIME_ID (so a span's host cost is
/// immune to oversubscription, like Proc::timed measurements).
///
/// kExchange records carry the exchange payload below; its `arg` is the
/// exchange ordinal on this VP, its simulated duration the transfer
/// time charged and its sim_end_us the VP clock after the charge.  Other
/// kinds leave the payload at its defaults.
struct SpanRecord {
  double sim_begin_us = 0;
  double sim_end_us = 0;
  double host_begin_us = 0;  ///< thread-CPU clock (0 when unavailable)
  double host_end_us = 0;
  std::uint64_t elements = 0;  ///< exchange: V_i, keys sent by this VP
  std::uint64_t messages = 0;  ///< exchange: M_i as charged (== elements in short mode)
  std::int32_t arg = -1;       ///< exchange ordinal / remap ordinal / stage number / -1
  std::int32_t remap = -1;     ///< exchange: remap ordinal if annotated via trace_remap()
  std::uint32_t peers = 0;     ///< exchange: non-self payload-bearing send peers
  std::int16_t group_log2 = -1;  ///< exchange: r, the exchange group has 2^r members
  trace::LayoutTag layout_from = trace::LayoutTag::kUnknown;
  trace::LayoutTag layout_to = trace::LayoutTag::kUnknown;
  SpanKind kind = SpanKind::kCompute;
  std::uint8_t depth = 0;       ///< nesting depth at begin (0 = top level)
  std::uint8_t fault_mask = 0;  ///< trace::kFault* bits (exchanges, kFault instants)

  [[nodiscard]] double sim_us() const { return sim_end_us - sim_begin_us; }
  [[nodiscard]] double host_us() const { return host_end_us - host_begin_us; }
};

/// Fixed-capacity single-writer ring of SpanRecords.  Each VP owns one;
/// only that VP's worker thread writes it, and readers look only after
/// Machine::run() returned, so no synchronization is needed.
class VpSpans {
 public:
  /// Size the ring to `capacity` records and drop any recorded ones.
  /// The storage is reserved, not written: a run touches only the pages
  /// its records land in, so arming a large ring per call stays cheap.
  void reset(std::size_t capacity) {
    if (capacity != capacity_) {
      buf_ = std::vector<SpanRecord>();
      buf_.reserve(capacity);
      capacity_ = capacity;
    }
    clear();
  }

  /// Drop recorded records; keeps the allocation.
  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// Append one record, overwriting the oldest when full.  Never
  /// allocates (appends stay inside the reserved storage).
  void push(const SpanRecord& r) {
    if (buf_.size() < capacity_) {
      buf_.push_back(r);
      return;
    }
    ++dropped_;
    if (capacity_ == 0) return;
    buf_[head_] = r;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Records overwritten (or discarded on a zero-capacity ring).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// i-th retained record, oldest first (i.e. span END order).  Until
  /// the ring wraps, head_ is 0 and the oldest record is buf_[0].
  [[nodiscard]] const SpanRecord& operator[](std::size_t i) const {
    const std::size_t at = head_ + i;
    return buf_[at < buf_.size() ? at : at - buf_.size()];
  }

 private:
  std::vector<SpanRecord> buf_;  ///< retained records; capacity() reserved
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;         ///< next slot to overwrite once full
  std::uint64_t dropped_ = 0;
};

}  // namespace bsort::obs
