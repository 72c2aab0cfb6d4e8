// Flight recorder: a fixed-capacity ring of structured request-
// lifecycle events for the service tier (src/service/), always on, and
// the one writer of the service's counters and histograms.
//
// The flight recorder answers "what happened to request X": every
// admission, enqueue, dispatch-on-slot, retry (with its backoff), shed,
// cancellation, quarantine and completion is appended as one fixed-size
// POD record keyed by the request's 64-bit trace ID.  The same record()
// call folds the record into ServiceMetrics, the ledger behind
// ServiceStats and the telemetry series, so every counter is the number
// of records of its kind: the two cannot disagree.  The ring is sized
// once at construction and overwrites its oldest records on overflow
// (the metrics keep counting), so recording performs ZERO steady-state
// heap allocations (audited in bench_machine_overhead, the same
// discipline as the span and trace rings) — the recorder can stay
// armed in production and still hold the last `capacity` events when
// something goes wrong.
//
// Unlike the per-VP rings, flight events are recorded by MANY threads
// (submitters and every pool dispatcher), so ring and metrics sit
// behind one leaf mutex — never held while any other lock is taken, so
// callers may record with or without their own locks held, and a
// lock/unlock never allocates.
//
// Dumps are JSONL (`bsort-flight-v1`): one meta line, then one line
// per retained record, oldest first, monotonically increasing `seq`.
// Dumping allocates and is meant for failure/quarantine/shutdown or
// on-demand use, not the steady state.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/metrics.hpp"

namespace bsort::obs {

/// Lifecycle event kinds.  The generic args a/b carry per-kind context
/// (documented per enumerator); `slot` is the pool slot of the
/// dispatcher that recorded the event (kNoFlightSlot for queue-side
/// events), `attempt` the fragment's 1-based run attempt, `shard` the
/// fragment's shard index.
enum class FlightEventKind : std::uint8_t {
  kSubmitted = 0,       ///< submit() called (a: keys, b: priority)
  kEnqueued = 1,        ///< request admitted (a: fragments, 0 for no keys;
                        ///< b: queue depth)
  kQueueFull = 2,       ///< admission rejected (a: depth, b: limit)
  kDispatched = 3,      ///< fragment entered a batch (a: batch ordinal, b: depth)
  kBatchDone = 4,       ///< batch run returned (a: batch ordinal, b: run us)
  kRetryScheduled = 5,  ///< fragment re-enqueued (a: backoff ms, b: depth)
  kShed = 6,            ///< dropped at dispatch, its end (a: remaining
                        ///< budget us at dispatch)
  kDeadlineMiss = 7,    ///< expired before dispatch, its end (a: waited us)
  kCancelled = 8,       ///< queued sibling of a failed request dropped
  kCompleted = 9,       ///< promise fulfilled (a: total us, b: retries)
  kFailed = 10,         ///< terminal run or shutdown error delivered
                        ///< (a: attempts)
  kHealthCheck = 11,    ///< post-failure self-check ran (a: healthy 0/1)
  kQuarantined = 12,    ///< pool member pulled (a: consecutive failures)
  kReplaced = 13,       ///< fresh machine took the slot
  kStopped = 14,        ///< shutdown (a: policy 0=drain 1=abort, b: queued
                        ///< fragments dropped); with a request ID, that
                        ///< submit was refused after shutdown (a: policy)
};
inline constexpr int kFlightEventKindCount = 15;

/// Stable display name ("dispatched", "retry-scheduled", ...).
const char* flight_event_name(FlightEventKind k);

inline constexpr std::uint32_t kNoFlightSlot = 0xffffffffu;

/// One lifecycle event.  POD; stored by value in the ring.  `t_us` is
/// host microseconds since the recorder's construction (one shared
/// epoch, so events from every thread order on one timeline);
/// `error_class` is 0 (none) or 1 + fault::FailureClass.
struct FlightRecord {
  double t_us = 0;
  std::uint64_t seq = 0;       ///< stamped by record(): total events so far
  std::uint64_t trace_id = 0;  ///< 0 = service-scoped (no single request)
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint32_t slot = kNoFlightSlot;
  std::uint32_t attempt = 0;
  std::uint32_t shard = 0;
  std::uint8_t error_class = 0;
  FlightEventKind kind = FlightEventKind::kSubmitted;
};

/// What a record feeds the service histograms beyond its own payload.
struct FlightSample {
  double queue_us = 0;  ///< kCompleted: admission -> dispatch
  double run_us = 0;    ///< kCompleted: dispatch -> batch completion
  double total_us = 0;  ///< kCompleted: submit -> fulfillment
  int priority = 0;     ///< kCompleted: QoS class (service::Priority)
  int batch_size = 0;   ///< kBatchDone: fragments in the run
};

/// Number of service QoS classes (service::Priority values).
inline constexpr int kServiceClasses = 2;

/// The service ledger, folded from the flight records by
/// FlightRecorder::record.  Every count is a number of records, kept
/// even for records the ring has since overwritten (or, at capacity
/// 0, never kept).  Host-clock latencies in log2 histograms.
struct ServiceMetrics {
  std::uint64_t events[kFlightEventKindCount] = {};  ///< records per kind
  std::uint64_t sharded = 0;  ///< kEnqueued records of 2+ fragments

  LogHistogram queue_us;         ///< admission -> dispatch wait per request
  LogHistogram run_us;           ///< dispatch -> completion (host wall)
  LogHistogram total_us;         ///< submit -> completion (the SLO latency)
  LogHistogram batch_occupancy;  ///< fragments coalesced per shared run
  LogHistogram shard_fanout;     ///< fragments per admitted request
  /// Per-QoS-class SLO latency, indexed by service::Priority (0 = high,
  /// 1 = low) — the curves the overload-control policy exists to
  /// separate: under saturation high stays bounded while low is shed.
  LogHistogram class_total_us[kServiceClasses];

  [[nodiscard]] std::uint64_t count(FlightEventKind k) const {
    return events[static_cast<int>(k)];
  }
};

class FlightRecorder {
 public:
  /// Size the ring once; capacity 0 records nothing (drops count).
  explicit FlightRecorder(std::size_t capacity);

  /// Append one event, stamping `t_us` (host clock) and `seq`,
  /// overwriting the oldest record when full, and fold it (plus `s`)
  /// into the metrics under the same lock.  Returns the stamp.
  /// Thread-safe; never allocates.
  double record(FlightRecord r, const FlightSample& s = {});

  /// One consistent snapshot of everything record() has folded so far.
  [[nodiscard]] ServiceMetrics metrics() const;

  /// Host microseconds since the recorder's epoch (the service clock
  /// every record is stamped on).
  [[nodiscard]] double now_us() const;

  /// Retained records, oldest first.  Allocates (teardown/export path).
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// Dump as `bsort-flight-v1` JSONL: one meta line, one line per
  /// retained record.  Returns the number of record lines written.
  std::size_t dump_jsonl(std::ostream& os) const;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const;
  /// Events overwritten (or discarded on a zero-capacity ring).
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  using Clock = std::chrono::steady_clock;

  mutable std::mutex mu_;  ///< leaf lock: nothing else is taken under it
  std::vector<FlightRecord> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  ServiceMetrics metrics_;
  Clock::time_point epoch_;
};

/// Write one record as a single JSONL object (no trailing newline).
/// Shared with the service-tier Perfetto exporter's tests.
void write_flight_record(std::ostream& os, const FlightRecord& r);

}  // namespace bsort::obs
