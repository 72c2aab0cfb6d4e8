// Sort-as-a-service: a batched request scheduler over a pool of
// pre-warmed Machines — the first layer ABOVE the single-run facade.
//
// The paper optimizes one big sort; production traffic is millions of
// concurrent small-to-medium sorts, where the per-run fixed costs the
// paper amortizes over N (worker dispatch, scatter/gather, watchdog
// spawn, report aggregation) dominate.  SortService attacks exactly
// that regime:
//
//   * POOL — `pool_size` Machines constructed (and optionally warmed)
//     up front; every request runs through api::parallel_sort_on's
//     pool-reuse contract, so a pool member is indistinguishable from
//     a fresh machine.  One dispatcher thread drives each machine.
//
//   * BATCHING — concurrent small requests are coalesced into one
//     shared run (api::parallel_sort_batch_on): items execute as
//     barrier-separated BSP supersteps, per-request boundaries are the
//     batch items themselves, and results split back on gather.  Batch
//     sizing follows the BSP superstep argument (Gerbessiotis &
//     Siniolakis): the fixed run cost is paid once per superstep
//     instead of once per request.
//
//   * SHARDING — a request of at least `shard_threshold` keys is split
//     into `shards_per_request` splitter-partitioned shards (sampled
//     splitters, the optimal-sampling idea of Yang/Harsh/Solomonik:
//     few samples suffice for balanced parts), sorted independently
//     across pool members, and concatenated on gather — the shard
//     ranges are disjoint and ordered, so no merge is needed.
//
//   * SHAPES — the facade demands power-of-two key counts; the service
//     accepts ANY size by padding fragments with the maximal key value
//     (pads sort to the tail and exactly pad-many tail entries are
//     dropped on gather, which is value-correct even when real keys
//     equal the pad value).
//
//   * DEADLINES — a request may carry a relative deadline.  Expired in
//     the queue -> rejected with DeadlineExceeded before consuming a
//     machine.  While running -> the batch's watchdog (the PR 4
//     barrier watchdog) is armed with the tightest remaining budget,
//     so a stuck run fails structurally instead of wedging the pool;
//     deadline-carrying requests then receive DeadlineExceeded.
//
// And — because production runs are not all perfect runs — the
// SELF-HEALING layer (DESIGN.md §10):
//
//   * FAILURE TAXONOMY — every batch failure is classified through
//     fault::classify_failure(): BarrierTimeout / IntegrityError /
//     ExchangeError are transient (a re-run may succeed), ConfigError
//     and unknown errors are terminal (a re-run fails identically).
//
//   * RETRIES — fragments of a retryably-failed batch are re-enqueued
//     with capped exponential backoff + deterministic jitter
//     (fault::backoff_ms), bounded by `retry.max_retries` per request
//     and by the request's remaining deadline budget; pre-run key
//     snapshots make the re-run sort the ORIGINAL data, not whatever a
//     crashed run left behind.  Terminal failures are delivered
//     immediately, first failure wins.
//
//   * POOL HEALTH — a machine whose batch failed runs a clean
//     self-check health run; a machine that fails its health check, or
//     accumulates `quarantine_after` consecutive batch failures, is
//     QUARANTINED and REPLACED by a freshly constructed (and
//     pre-warmed) Machine, so one poisoned pool member can neither
//     serve traffic nor strand its dispatcher.
//
//   * OVERLOAD CONTROL — two QoS classes (SubmitOptions::priority):
//     high-priority fragments dispatch strictly before low-priority
//     ones, low-priority admission is capped at a fraction of the
//     queue, and fragments whose remaining deadline budget is already
//     below the observed batch cost are SHED at dispatch (cheapest
//     possible rejection: no keys are sorted for a future that is
//     already lost).  Under saturation, goodput holds and high-class
//     p99 stays bounded while the low class degrades first —
//     bench_service_load measures exactly those curves.
//
//   * SLO METRICS — queue/run/total latency histograms (p50/p95/p99),
//     per-class latency, retry/shed/quarantine/replace counters, queue
//     depth, sorts/sec, batch occupancy — folded from the flight
//     records by the one recorder (every counter is a count of records
//     of one kind) and snapshotted via stats(); the bench_service
//     harness exports them as a bsort-bench-v1 report.
//
// Thread safety: submit()/stats()/shutdown() may be called from any
// thread.  Results are delivered through std::future; failures carry
// the library's structured bsort::Error types.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/parallel_sort.hpp"
#include "fault/error.hpp"
#include "fault/retry.hpp"
#include "obs/flight.hpp"
#include "obs/telemetry.hpp"

namespace bsort::service {

/// Admission rejection: the pending-fragment queue is at its limit.
/// Thrown synchronously from submit().  `trace_id` (when nonzero) is
/// the rejected request's trace ID — what() embeds it as
/// "[request 0x...]" so the text correlates with the flight recorder.
class QueueFull : public Error {
 public:
  QueueFull(const std::string& what, std::size_t depth, std::size_t limit,
            std::uint64_t trace_id = 0);
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] std::size_t limit() const { return limit_; }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }

 private:
  std::size_t depth_;
  std::size_t limit_;
  std::uint64_t trace_id_;
};

/// The request's deadline expired before (or while) it could run, or
/// its remaining budget was too small to be worth dispatching (shed);
/// delivered through the request's future.  `waited_seconds` is how
/// long the request had been in the service when it was rejected.
class DeadlineExceeded : public Error {
 public:
  DeadlineExceeded(const std::string& what, double deadline_seconds,
                   double waited_seconds, std::uint64_t trace_id = 0);
  [[nodiscard]] double deadline_seconds() const { return deadline_s_; }
  [[nodiscard]] double waited_seconds() const { return waited_s_; }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }

 private:
  double deadline_s_;
  double waited_s_;
  std::uint64_t trace_id_;
};

/// submit() after shutdown(), or a queued request failed by
/// shutdown(ShutdownPolicy::kAbort) before it could dispatch.
class ServiceStopped : public Error {
 public:
  explicit ServiceStopped(const std::string& what, std::uint64_t trace_id = 0);
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }

 private:
  std::uint64_t trace_id_;
};

/// A retryable batch failure outlived the request's retry budget: the
/// last attempt's error (embedded in what()) was transient, but
/// `ServiceConfig::retry.max_retries` re-runs were already spent.
class RetryExhausted : public Error {
 public:
  RetryExhausted(const std::string& what, std::uint64_t trace_id,
                 int attempts);
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  /// Run attempts this fragment made (1 + retries it consumed).
  [[nodiscard]] int attempts() const { return attempts_; }

 private:
  std::uint64_t trace_id_;
  int attempts_;
};

/// QoS class of a request.  High-priority fragments dispatch strictly
/// before low-priority ones, and low-priority admission is capped at
/// `ServiceConfig::low_priority_admission` of the queue — under
/// overload the low class degrades (sheds) first, keeping the high
/// class's latency bounded.
enum class Priority : int {
  kHigh = 0,
  kLow = 1,
};

/// How shutdown() treats work that is still queued.
enum class ShutdownPolicy {
  kDrain,  ///< complete everything already admitted (the default)
  kAbort,  ///< fail queued fragments with ServiceStopped immediately
};

struct ServiceConfig {
  /// Per-run template: nprocs/mode/params/algorithm and the defenses
  /// every batch runs with.  `backend` selects the pool machines'
  /// execution backend (BSORT_BACKEND still overrides, as for
  /// parallel_sort).  `watchdog_seconds` is the default run budget;
  /// request deadlines tighten it per batch.  `faults` is honored (for
  /// chaos-testing the service) but shared by every batch.
  api::Config base;

  int pool_size = 2;             ///< machines (and dispatcher threads)
  std::size_t queue_limit = 4096;  ///< pending fragments before QueueFull
  std::size_t max_batch = 8;       ///< fragments coalesced per shared run

  /// Requests with at least this many keys are splitter-sharded across
  /// the pool; 0 disables sharding.
  std::size_t shard_threshold = 0;
  int shards_per_request = 2;

  // ---- self-healing ------------------------------------------------
  /// Retry schedule for retryably-failed fragments (fault/retry.hpp).
  /// `retry.max_retries` is the PER-REQUEST cap across all its
  /// fragments; 0 disables retrying entirely.
  fault::RetryPolicy retry;

  /// Quarantine-and-replace a pool machine after this many CONSECUTIVE
  /// failed batches (a failed health check replaces it immediately).
  int quarantine_after = 3;

  /// Fraction of `queue_limit` the LOW QoS class may fill before its
  /// submits are rejected with QueueFull; the high class may use the
  /// whole queue.  Clamped to [0, 1].
  double low_priority_admission = 0.5;

  // ---- observability (DESIGN.md §11) --------------------------------
  /// Flight-recorder ring capacity (lifecycle events retained; oldest
  /// overwritten).  Always on; recording is allocation-free, so there
  /// is no enable knob — 0 drops every event if a silent service is
  /// really wanted.
  std::size_t flight_capacity = 4096;

  /// When nonempty, the flight recorder's retained events are dumped
  /// (truncate + rewrite) to this path on every quarantine, every
  /// terminal request failure, and at shutdown — the post-mortem is on
  /// disk even when the process dies with the service.
  std::string flight_dump_path;

  /// Periodic telemetry export (obs/telemetry.hpp).
  struct Telemetry {
    double interval_s = 0;   ///< sampler thread period; 0 = no thread
    std::string jsonl_path;  ///< bsort-telemetry-v1 time-series ("" = off)
    std::string prom_path;   ///< Prometheus text exposition ("" = off)
  } telemetry;
};

/// Per-request submit() options.
struct SubmitOptions {
  double deadline_s = 0;  ///< relative to submit; 0 = no deadline
  Priority priority = Priority::kHigh;
};

/// What a fulfilled future carries.
struct SortResult {
  std::vector<std::uint32_t> keys;  ///< the request's keys, sorted

  /// The request's 64-bit trace ID (minted at submit; deterministic in
  /// admission order), keying its flight-recorder events, Perfetto
  /// flow arrows, and error text.
  std::uint64_t trace_id = 0;

  double queue_us = 0;  ///< admission -> dispatch (host clock)
  double run_us = 0;    ///< dispatch -> batch completion (host clock)
  double total_us = 0;  ///< submit -> fulfillment (the SLO latency)

  int batch_items = 1;     ///< occupancy of the shared run that served it
  int shards = 1;          ///< 1 = not sharded
  int retries = 0;         ///< fragment re-runs this request needed
  double makespan_us = 0;  ///< simulated makespan (max over its runs)
};

/// Point-in-time service snapshot.  Each counter is the number of
/// flight records of one kind (sharded: enqueued records of two or more
/// fragments), read in one consistent snapshot; quantiles come from the
/// log2 histograms of obs::ServiceMetrics (interpolated, max exact).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t batches = 0;
  std::uint64_t sharded = 0;

  // Resilience counters (DESIGN.md §10).
  std::uint64_t retries = 0;      ///< fragment re-runs after retryable failure
  std::uint64_t shed = 0;         ///< dropped at dispatch: budget unmeetable
  std::uint64_t cancelled = 0;    ///< queued siblings of a failed request
  std::uint64_t quarantined = 0;  ///< pool members pulled from service
  std::uint64_t replaced = 0;     ///< fresh machines swapped into the pool
  std::uint64_t health_checks = 0;  ///< self-check runs after failed batches

  std::size_t queue_depth = 0;  ///< pending fragments right now
  int pool_size = 0;
  double uptime_s = 0;
  double sorts_per_sec = 0;  ///< completed / uptime

  double queue_p50_us = 0, queue_p95_us = 0, queue_p99_us = 0;
  double run_p50_us = 0, run_p95_us = 0, run_p99_us = 0;
  double total_p50_us = 0, total_p95_us = 0, total_p99_us = 0;
  double total_max_us = 0;

  // Per-QoS-class SLO latency (completed requests only).
  double high_p50_us = 0, high_p95_us = 0, high_p99_us = 0;
  double low_p50_us = 0, low_p95_us = 0, low_p99_us = 0;

  double batch_occupancy_mean = 0;
  double batch_occupancy_max = 0;

  // Observability (DESIGN.md §11).
  int pool_busy = 0;  ///< dispatchers currently inside a batch run
  double shard_fanout_mean = 0;  ///< fragments per admitted request
  double shard_fanout_max = 0;
  std::uint64_t flight_recorded = 0;  ///< lifecycle events in the ring
  std::uint64_t flight_dropped = 0;   ///< events overwritten (ring full)
};

class SortService {
 public:
  explicit SortService(ServiceConfig config);
  ~SortService();  ///< shutdown(kDrain): drains the queue, joins dispatchers

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Admit one sort request.  Any key count is accepted (fragments are
  /// padded to the nearest schedulable shape).  Throws QueueFull or
  /// ServiceStopped synchronously; every later failure — including
  /// DeadlineExceeded and any structured error of the run — is
  /// delivered through the returned future.
  std::future<SortResult> submit(std::vector<std::uint32_t> keys,
                                 SubmitOptions options = {});

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Dump the flight recorder's retained lifecycle events as
  /// `bsort-flight-v1` JSONL (obs/flight.hpp).  Callable any time from
  /// any thread; returns the number of event lines written.
  std::size_t dump_flight(std::ostream& os) const;

  /// Export the service timeline — queue track, per-slot batch tracks,
  /// flow arrows per request — merged with every pool machine's last
  /// profiled run (enable `base.profile_spans` for those tracks) as one
  /// multi-process Perfetto trace (obs/perfetto.hpp).  Call AFTER
  /// shutdown(): the pool machines' span rings are only stable once the
  /// dispatchers have joined.
  void export_perfetto(std::ostream& os) const;

  /// Stop admitting and join the dispatchers.  kDrain (the default,
  /// also what the destructor runs) completes everything already
  /// queued, including pending retries; kAbort fails still-queued
  /// fragments with ServiceStopped immediately — batches already
  /// running finish, nothing new dispatches.  Idempotent; concurrent
  /// calls serialize, first policy wins.
  void shutdown(ShutdownPolicy policy = ShutdownPolicy::kDrain);

 private:
  using Clock = std::chrono::steady_clock;

  /// One submitted request (possibly split into several fragments).
  struct Request;
  /// One queue entry: a whole small request or one shard of a big one.
  struct Fragment {
    std::shared_ptr<Request> req;
    std::vector<std::uint32_t> keys;  ///< padded to a schedulable shape
    std::size_t real_size = 0;        ///< keys before padding
    std::size_t shard_index = 0;
    int attempts = 0;  ///< completed run attempts (retries = attempts - 1)
    Clock::time_point enqueued{};
    Clock::time_point not_before{};  ///< retry backoff gate (epoch = ready)
    double queue_us_tmp = 0;  ///< stamped at dispatch, folded per request
  };

  /// One pool member and its health state.  After construction every
  /// field is touched only by the owning dispatcher thread, so machine
  /// replacement needs no lock.
  struct PoolSlot {
    std::unique_ptr<simd::Machine> machine;
    int consecutive_failures = 0;
    int index = 0;  ///< position in the pool (flight-recorder slot id)
    /// Stamp of the `dispatched` record of the machine's most recent
    /// batch — the ts offset placing its spans on the service timeline
    /// in export_perfetto().
    double last_dispatch_us = 0;
  };

  void dispatch_loop(std::size_t slot_index);
  void run_batch(PoolSlot& slot, std::vector<Fragment>& batch);
  /// Classify a failed batch's error per fragment: re-enqueue with
  /// backoff when retryable and within budget, deliver otherwise.
  void handle_batch_failure(std::vector<Fragment>& batch,
                            std::vector<std::vector<std::uint32_t>>& backups,
                            std::exception_ptr error, bool timeout);
  /// Clean self-check run on a machine whose batch just failed.
  bool machine_healthy(simd::Machine& machine);
  /// Construct (and pre-warm) a fresh pool machine from the base config.
  [[nodiscard]] std::unique_ptr<simd::Machine> make_machine() const;
  /// Deliver `error` through the fragment's request (first failure
  /// wins) and record its `failed` end.  `record_end` is false for
  /// queue-side rejections, whose shed or deadline-miss record already
  /// ended the fragment.
  void fail_fragment(Fragment& f, std::exception_ptr error,
                     bool record_end = true);
  void complete_fragment(Fragment&& f, double run_us, int batch_items,
                         double makespan_us);
  /// Smallest total >= `size` the base config can schedule.
  [[nodiscard]] std::size_t padded_size(std::size_t size) const;
  /// Pending fragments across all queues.  Caller holds mu_.
  [[nodiscard]] std::size_t queue_depth_locked() const {
    return queue_hi_.size() + queue_lo_.size() + retry_.size();
  }

  ServiceConfig config_;
  std::size_t low_limit_ = 0;  ///< low-class admission cap (fragments)
  Clock::time_point start_;

  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown()
  mutable std::mutex mu_;   ///< queues + pool gauges + stopping flags
  std::condition_variable cv_;
  std::deque<Fragment> queue_hi_;  ///< Priority::kHigh admissions
  std::deque<Fragment> queue_lo_;  ///< Priority::kLow admissions
  std::deque<Fragment> retry_;     ///< backoff-gated re-enqueued fragments
  bool stopping_ = false;
  bool abort_ = false;  ///< shutdown(kAbort): dispatchers exit without draining
  double run_ewma_us_ = 0;  ///< smoothed batch cost (successful runs only)
  int pool_busy_ = 0;       ///< dispatchers currently inside run_batch
  std::uint64_t admitted_ = 0;  ///< admission ordinal (seeds retry jitter)

  // ---- observability (DESIGN.md §11) --------------------------------
  /// The one recorder of the service: append a `kind` record to the
  /// flight ring and fold it (with `s`) into the counters and
  /// histograms, all in one FlightRecorder::record call; after a
  /// terminal failure or a quarantine, also dump the ring.  Safe with
  /// or without mu_ held.  Returns the record's stamp.
  double transition(obs::FlightEventKind kind, obs::FlightRecord r,
                    const obs::FlightSample& s = {});
  /// Build one telemetry sample from the current stats + histograms.
  [[nodiscard]] obs::TelemetrySample make_telemetry_sample() const;
  void telemetry_loop();
  /// Truncate-write the flight recorder to `flight_dump_path` (no-op
  /// when the path is empty).  Failure/quarantine/shutdown path only.
  void maybe_dump_flight() const;

  std::atomic<std::uint64_t> trace_seq_{0};    ///< trace-ID mint
  std::atomic<std::int64_t> next_batch_{0};    ///< global batch ordinal
  obs::FlightRecorder flight_;

  std::unique_ptr<obs::TelemetryWriter> telemetry_writer_;
  std::mutex telemetry_mu_;
  std::condition_variable telemetry_cv_;
  bool telemetry_stop_ = false;
  std::thread telemetry_thread_;

  std::vector<PoolSlot> pool_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace bsort::service
