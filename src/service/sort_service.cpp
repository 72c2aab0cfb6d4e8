#include "service/sort_service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include <fstream>

#include "backend/backend.hpp"
#include "obs/perfetto.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace bsort::service {

namespace {

using Clock = std::chrono::steady_clock;
using Kind = obs::FlightEventKind;

/// Pads sort to the tail under unsigned comparison, so dropping exactly
/// pad-many tail entries after the sort restores the request even when
/// real keys equal the pad value.
constexpr std::uint32_t kPadKey = std::numeric_limits<std::uint32_t>::max();

/// Seed for the deterministic health-check run after a failed batch.
constexpr std::uint64_t kHealthSeed = 0x6865616c7468ull;  // "health"

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// splitmix64 finalizer: turns the admission ordinal into a trace ID
/// that looks nothing like its neighbors (greppable, and distinct
/// requests decorrelate wherever the ID seeds jitter) while staying
/// fully deterministic in admission order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Append "[request 0x...]" so every service error's text correlates
/// with the flight recorder by plain grep.
std::string with_request(const std::string& what, std::uint64_t trace_id) {
  if (trace_id == 0) return what;
  return what + " [request " + util::hex_id(trace_id) + "]";
}

/// FlightRecord::error_class encoding of a captured exception.
std::uint8_t flight_error_class(const std::exception_ptr& error) {
  return static_cast<std::uint8_t>(
      1 + static_cast<int>(fault::classify_failure(error)));
}

/// The service counters: each is the number of flight records of one
/// kind (`sharded`: the enqueued records of two or more fragments).
/// stats() and the telemetry sample both read this one table.
struct CounterName {
  const char* name;
  std::uint64_t ServiceStats::*field;
  Kind kind;
  bool multi_fragment = false;

  [[nodiscard]] std::uint64_t count(const obs::ServiceMetrics& m) const {
    return multi_fragment ? m.sharded : m.count(kind);
  }
};
constexpr CounterName kCounters[] = {
    {"submitted", &ServiceStats::submitted, Kind::kEnqueued},
    {"completed", &ServiceStats::completed, Kind::kCompleted},
    {"failed", &ServiceStats::failed, Kind::kFailed},
    {"rejected_queue_full", &ServiceStats::rejected_queue_full,
     Kind::kQueueFull},
    {"rejected_deadline", &ServiceStats::rejected_deadline,
     Kind::kDeadlineMiss},
    {"batches", &ServiceStats::batches, Kind::kBatchDone},
    {"sharded", &ServiceStats::sharded, Kind::kEnqueued, true},
    {"retries", &ServiceStats::retries, Kind::kRetryScheduled},
    {"shed", &ServiceStats::shed, Kind::kShed},
    {"cancelled", &ServiceStats::cancelled, Kind::kCancelled},
    {"quarantined", &ServiceStats::quarantined, Kind::kQuarantined},
    {"replaced", &ServiceStats::replaced, Kind::kReplaced},
    {"health_checks", &ServiceStats::health_checks, Kind::kHealthCheck},
};

}  // namespace

QueueFull::QueueFull(const std::string& what, std::size_t depth,
                     std::size_t limit, std::uint64_t trace_id)
    : Error(with_request(what, trace_id)),
      depth_(depth),
      limit_(limit),
      trace_id_(trace_id) {}

DeadlineExceeded::DeadlineExceeded(const std::string& what,
                                   double deadline_seconds,
                                   double waited_seconds,
                                   std::uint64_t trace_id)
    : Error(with_request(what, trace_id)),
      deadline_s_(deadline_seconds),
      waited_s_(waited_seconds),
      trace_id_(trace_id) {}

ServiceStopped::ServiceStopped(const std::string& what, std::uint64_t trace_id)
    : Error(with_request(what, trace_id)), trace_id_(trace_id) {}

RetryExhausted::RetryExhausted(const std::string& what, std::uint64_t trace_id,
                               int attempts)
    : Error(with_request(what, trace_id)),
      trace_id_(trace_id),
      attempts_(attempts) {}

/// One submitted request.  Shards of a sharded request are independent
/// queue fragments (possibly served by different pool machines), so the
/// reassembly state lives here behind its own mutex; the promise is
/// settled exactly once (`done`), first failure wins.  `done_flag`
/// mirrors `done` so dispatchers can cancel queued siblings of a failed
/// request without taking the request mutex.
struct SortService::Request {
  std::promise<SortResult> promise;
  Clock::time_point submitted{};
  double deadline_s = 0;  ///< 0 = none
  Clock::time_point deadline{};
  std::size_t total_keys = 0;
  int shards = 1;
  Priority priority = Priority::kHigh;
  std::uint64_t id = 0;        ///< admission ordinal; seeds retry jitter
  std::uint64_t trace_id = 0;  ///< minted at submit(); keys all telemetry

  std::atomic<int> retries_used{0};   ///< per-request retry budget consumed
  std::atomic<bool> done_flag{false};  ///< lock-free mirror of `done`

  std::mutex m;
  bool done = false;
  int parts_pending = 0;
  std::vector<std::vector<std::uint32_t>> parts;  ///< unpadded, shard order

  // Aggregates across the request's fragments (max: shards overlap).
  double queue_us = 0;
  double run_us = 0;
  double makespan_us = 0;
  int batch_items = 1;

  [[nodiscard]] bool has_deadline() const { return deadline_s > 0; }
  [[nodiscard]] bool expired(Clock::time_point now) const {
    return has_deadline() && now >= deadline;
  }
};

SortService::SortService(ServiceConfig config)
    : config_(std::move(config)),
      start_(Clock::now()),
      flight_(config_.flight_capacity) {
  if (config_.pool_size < 1) {
    throw ConfigError("SortService: pool_size must be >= 1 (got " +
                      std::to_string(config_.pool_size) + ")");
  }
  if (config_.max_batch < 1) {
    throw ConfigError("SortService: max_batch must be >= 1 (got " +
                      std::to_string(config_.max_batch) + ")");
  }
  if (config_.shard_threshold > 0 && config_.shards_per_request < 2) {
    throw ConfigError(
        "SortService: shards_per_request must be >= 2 when sharding is "
        "enabled (got " +
        std::to_string(config_.shards_per_request) + ")");
  }
  if (config_.retry.max_retries < 0) {
    throw ConfigError("SortService: retry.max_retries must be >= 0 (got " +
                      std::to_string(config_.retry.max_retries) + ")");
  }
  if (config_.quarantine_after < 1) {
    throw ConfigError("SortService: quarantine_after must be >= 1 (got " +
                      std::to_string(config_.quarantine_after) + ")");
  }
  const double lo_frac = std::clamp(config_.low_priority_admission, 0.0, 1.0);
  low_limit_ = static_cast<std::size_t>(
      static_cast<double>(config_.queue_limit) * lo_frac);
  // Fail construction, not the first submit, on an unschedulable base
  // config: probe the smallest shape the padder would ever produce.
  static_cast<void>(padded_size(1));

  pool_.reserve(static_cast<std::size_t>(config_.pool_size));
  for (int i = 0; i < config_.pool_size; ++i) {
    pool_.push_back(PoolSlot{make_machine(), 0, i, 0});
  }
  dispatchers_.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    dispatchers_.emplace_back([this, i] { dispatch_loop(i); });
  }
  if (config_.telemetry.interval_s > 0 &&
      (!config_.telemetry.jsonl_path.empty() ||
       !config_.telemetry.prom_path.empty())) {
    telemetry_writer_ = std::make_unique<obs::TelemetryWriter>(
        config_.telemetry.jsonl_path, config_.telemetry.prom_path);
    telemetry_thread_ = std::thread([this] { telemetry_loop(); });
  }
}

SortService::~SortService() { shutdown(); }

std::unique_ptr<simd::Machine> SortService::make_machine() const {
  const auto& base = config_.base;
  auto machine = std::make_unique<simd::Machine>(
      base.nprocs, base.params, base.mode, base.cpu_scale,
      backend::make(backend::kind_from_env(base.backend)));
  // First-run lazy costs (thread-pool settling, arena growth for the
  // empty program) are paid here, not by the first request.
  machine->run([](simd::Proc&) {});
  return machine;
}

void SortService::shutdown(ShutdownPolicy policy) {
  std::lock_guard<std::mutex> serial(shutdown_mu_);
  std::vector<Fragment> dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_ && dispatchers_.empty()) return;  // already shut down
    stopping_ = true;
    if (policy == ShutdownPolicy::kAbort) {
      abort_ = true;
      auto grab = [&](std::deque<Fragment>& q) {
        for (auto& f : q) dropped.push_back(std::move(f));
        q.clear();
      };
      grab(queue_hi_);
      grab(queue_lo_);
      grab(retry_);
    }
  }
  transition(Kind::kStopped,
             {.a = policy == ShutdownPolicy::kAbort ? 1 : 0,
              .b = static_cast<std::int64_t>(dropped.size())});
  cv_.notify_all();
  for (auto& f : dropped) {
    fail_fragment(f, std::make_exception_ptr(ServiceStopped(
                         "SortService: shutdown(kAbort) failed this queued "
                         "request before it could dispatch",
                         f.req->trace_id)));
  }
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  // Stop the telemetry sampler AFTER the dispatchers joined so its
  // final sample carries the drained counters.
  if (telemetry_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(telemetry_mu_);
      telemetry_stop_ = true;
    }
    telemetry_cv_.notify_all();
    telemetry_thread_.join();
  }
  maybe_dump_flight();
}

std::size_t SortService::padded_size(std::size_t size) const {
  if (size == 0) return 0;
  std::size_t total = 1;
  while (total < size) total <<= 1;
  // The shape constraints (N >= P, smart's N >= 2P, column sort's
  // n >= 2(P-1)^2, ...) are all satisfied by doubling far below this
  // bound for any constructible machine.
  constexpr std::size_t kPadLimit = std::size_t{1} << 40;
  while (!api::config_valid(config_.base, total)) {
    if (total >= kPadLimit) {
      throw ConfigError(
          "SortService: no schedulable padded shape for " +
          std::to_string(size) + " keys under the base config: " +
          api::config_invalid_reason(config_.base, total));
    }
    total <<= 1;
  }
  return total;
}

std::future<SortResult> SortService::submit(std::vector<std::uint32_t> keys,
                                            SubmitOptions options) {
  const auto now = Clock::now();
  auto req = std::make_shared<Request>();
  req->submitted = now;
  req->total_keys = keys.size();
  req->priority = options.priority;
  // The trace ID is minted BEFORE admission so even a QueueFull
  // rejection is greppable in the flight dump by ID.
  req->trace_id =
      mix64(trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (options.deadline_s > 0) {
    req->deadline_s = options.deadline_s;
    req->deadline = now + from_seconds(options.deadline_s);
  }
  auto future = req->promise.get_future();
  transition(Kind::kSubmitted,
             {.trace_id = req->trace_id,
              .a = static_cast<std::int64_t>(keys.size()),
              .b = static_cast<std::int64_t>(options.priority)});

  // Plan the request into fragments OUTSIDE the lock: padding and
  // splitter partitioning touch every key.  A request without keys
  // plans no fragment and completes at admission.
  const bool shard = config_.shard_threshold > 0 &&
                     keys.size() >= config_.shard_threshold &&
                     config_.shards_per_request >= 2;
  std::vector<Fragment> frags;
  if (!shard && !keys.empty()) {
    Fragment f;
    f.req = req;
    f.real_size = keys.size();
    f.keys = std::move(keys);
    f.keys.resize(padded_size(f.real_size), kPadKey);
    frags.push_back(std::move(f));
  } else if (shard) {
    // Sampled splitters (oversampling rate 32 per shard): the shard
    // ranges are disjoint and ordered, so the sorted shards concatenate
    // into the sorted request with no merge step.
    const auto S = static_cast<std::size_t>(config_.shards_per_request);
    std::vector<std::uint32_t> sample;
    const std::size_t want = std::min(keys.size(), S * 32);
    sample.reserve(want);
    const std::size_t stride = keys.size() / want;
    for (std::size_t i = 0; i < want; ++i) sample.push_back(keys[i * stride]);
    std::sort(sample.begin(), sample.end());
    std::vector<std::uint32_t> splitters;  // S-1 upper bounds (exclusive)
    splitters.reserve(S - 1);
    for (std::size_t s = 1; s < S; ++s) {
      splitters.push_back(sample[s * sample.size() / S]);
    }
    std::vector<std::vector<std::uint32_t>> buckets(S);
    for (auto& b : buckets) b.reserve(keys.size() / S + 16);
    for (std::uint32_t k : keys) {
      const auto it = std::upper_bound(splitters.begin(), splitters.end(), k);
      buckets[static_cast<std::size_t>(it - splitters.begin())].push_back(k);
    }
    keys.clear();
    keys.shrink_to_fit();
    for (std::size_t s = 0; s < S; ++s) {
      if (buckets[s].empty()) continue;  // degenerate splitter: skip
      Fragment f;
      f.req = req;
      f.shard_index = s;
      f.real_size = buckets[s].size();
      f.keys = std::move(buckets[s]);
      f.keys.resize(padded_size(f.real_size), kPadKey);
      frags.push_back(std::move(f));
    }
  }
  const auto n_frags = static_cast<std::int64_t>(frags.size());
  req->shards = static_cast<int>(n_frags);
  req->parts_pending = static_cast<int>(n_frags);
  req->parts.resize(shard ? static_cast<std::size_t>(config_.shards_per_request)
                          : 1);

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      transition(Kind::kStopped,
                 {.trace_id = req->trace_id, .a = abort_ ? 1 : 0});
      throw ServiceStopped("SortService: submit after shutdown",
                           req->trace_id);
    }
    // Class-aware admission: the low class only gets its reserved
    // fraction of the queue, so a low-priority flood cannot starve
    // high-priority admission.
    const std::size_t limit = options.priority == Priority::kLow
                                  ? low_limit_
                                  : config_.queue_limit;
    const std::size_t depth = queue_depth_locked();
    if (!frags.empty() && depth + frags.size() > limit) {
      transition(Kind::kQueueFull,
                 {.trace_id = req->trace_id,
                  .a = static_cast<std::int64_t>(depth),
                  .b = static_cast<std::int64_t>(limit)});
      std::ostringstream os;
      os << "SortService: queue full — " << depth << " fragment(s) "
         << "pending plus " << frags.size() << " new would exceed the "
         << (options.priority == Priority::kLow ? "low-priority admission cap"
                                                : "queue_limit")
         << " of " << limit;
      throw QueueFull(os.str(), depth, limit, req->trace_id);
    }
    req->id = ++admitted_;
    const auto enq = Clock::now();
    auto& queue =
        options.priority == Priority::kLow ? queue_lo_ : queue_hi_;
    for (auto& f : frags) {
      f.enqueued = enq;
      queue.push_back(std::move(f));
    }
    // Recorded under mu_: enqueued precedes every dispatched record.
    transition(Kind::kEnqueued,
               {.trace_id = req->trace_id,
                .a = n_frags,
                .b = static_cast<std::int64_t>(queue_depth_locked())});
  }
  if (n_frags == 0) {
    SortResult empty;
    empty.trace_id = req->trace_id;
    transition(Kind::kCompleted, {.trace_id = req->trace_id},
               {.priority = static_cast<int>(options.priority)});
    req->promise.set_value(std::move(empty));
    return future;
  }
  cv_.notify_all();
  return future;
}

void SortService::fail_fragment(Fragment& f, std::exception_ptr error,
                                bool record_end) {
  // Claim the request under its own mutex, record, and only then
  // fulfill the promise — a caller that catches the failure and
  // immediately calls stats() must see it counted.  Claiming makes this
  // thread the sole deliverer, so the promise needs no lock.
  {
    std::lock_guard<std::mutex> lk(f.req->m);
    if (f.req->done) return;
    f.req->done = true;
    f.req->done_flag.store(true, std::memory_order_release);
  }
  if (record_end) {
    transition(Kind::kFailed,
               {.trace_id = f.req->trace_id,
                .a = f.attempts,
                .attempt = static_cast<std::uint32_t>(f.attempts),
                .shard = static_cast<std::uint32_t>(f.shard_index),
                .error_class = flight_error_class(error)});
  }
  f.req->promise.set_exception(std::move(error));
}

void SortService::complete_fragment(Fragment&& f, double run_us,
                                    int batch_items, double makespan_us) {
  const auto now = Clock::now();
  f.keys.resize(f.real_size);  // drop the kPadKey tail
  auto req = f.req;

  SortResult result;
  {
    std::lock_guard<std::mutex> lk(req->m);
    if (req->done) return;  // a sibling shard already failed the request
    req->parts[f.shard_index] = std::move(f.keys);
    req->queue_us = std::max(req->queue_us, f.queue_us_tmp);
    req->run_us = std::max(req->run_us, run_us);
    req->makespan_us = std::max(req->makespan_us, makespan_us);
    req->batch_items = std::max(req->batch_items, batch_items);
    if (--req->parts_pending > 0) return;

    req->done = true;
    req->done_flag.store(true, std::memory_order_release);
    result.keys.reserve(req->total_keys);
    for (auto& part : req->parts) {
      result.keys.insert(result.keys.end(), part.begin(), part.end());
      part.clear();
    }
    result.trace_id = req->trace_id;
    result.queue_us = req->queue_us;
    result.run_us = req->run_us;
    result.total_us = us_between(req->submitted, now);
    result.batch_items = req->batch_items;
    result.shards = req->shards;
    result.retries = std::min(req->retries_used.load(std::memory_order_relaxed),
                              config_.retry.max_retries);
    result.makespan_us = req->makespan_us;
  }

  transition(Kind::kCompleted,
             {.trace_id = req->trace_id,
              .a = static_cast<std::int64_t>(result.total_us),
              .b = result.retries},
             {.queue_us = result.queue_us,
              .run_us = result.run_us,
              .total_us = result.total_us,
              .priority = static_cast<int>(req->priority)});
  req->promise.set_value(std::move(result));
}

void SortService::dispatch_loop(std::size_t slot_index) {
  PoolSlot& slot = pool_[slot_index];
  const auto slot_id = static_cast<std::uint32_t>(slot_index);

  // A fragment rejected at dispatch (deadline expired in queue, or its
  // remaining budget is below the observed batch cost).  Failed OUTSIDE
  // the queue lock: fail_fragment takes the request mutex.
  struct Doomed {
    Fragment f;
    bool shed = false;  ///< false = expired, true = budget-unmeetable
    double remaining_us = 0;  ///< shed: the budget left at dispatch
  };

  // Ready work: an admitted fragment, or a retry whose backoff elapsed.
  const auto has_ready = [this](Clock::time_point now) {
    if (!queue_hi_.empty() || !queue_lo_.empty()) return true;
    for (const auto& f : retry_) {
      if (f.not_before <= now) return true;
    }
    return false;
  };
  const auto earliest_retry = [this] {
    auto t = Clock::time_point::max();
    for (const auto& f : retry_) t = std::min(t, f.not_before);
    return t;
  };
  // Pop order: ready retries first (they are the oldest work), then the
  // high-priority queue, then low — this ordering IS the QoS policy.
  const auto try_pop = [this](Clock::time_point now) -> std::optional<Fragment> {
    for (auto it = retry_.begin(); it != retry_.end(); ++it) {
      if (it->not_before <= now) {
        Fragment f = std::move(*it);
        retry_.erase(it);
        return f;
      }
    }
    if (!queue_hi_.empty()) {
      Fragment f = std::move(queue_hi_.front());
      queue_hi_.pop_front();
      return f;
    }
    if (!queue_lo_.empty()) {
      Fragment f = std::move(queue_lo_.front());
      queue_lo_.pop_front();
      return f;
    }
    return std::nullopt;
  };

  for (;;) {
    std::vector<Fragment> batch;
    std::vector<Doomed> doomed;
    std::vector<Fragment> cancelled;  // destroyed outside the lock
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (;;) {
        if (abort_) return;
        if (has_ready(Clock::now())) break;
        if (stopping_ && queue_depth_locked() == 0) return;  // drained
        if (retry_.empty()) {
          cv_.wait(lk);
        } else {
          // Only backoff-gated work left: sleep until the earliest
          // retry matures (or new work / shutdown wakes us).
          cv_.wait_until(lk, earliest_retry());
        }
      }
      const auto now = Clock::now();
      while (batch.size() < config_.max_batch) {
        auto popped = try_pop(now);
        if (!popped) break;
        Fragment f = std::move(*popped);
        if (f.req->done_flag.load(std::memory_order_acquire)) {
          // Sibling cancellation: the request already failed
          // terminally, so sorting these keys would serve a future
          // that is already lost.
          cancelled.push_back(std::move(f));
          continue;
        }
        if (f.req->expired(now)) {
          doomed.push_back({std::move(f), /*shed=*/false});
          continue;
        }
        if (f.req->has_deadline() && run_ewma_us_ > 0) {
          // Deadline-aware shedding: if the remaining budget cannot
          // cover even one observed batch cost, reject now — the
          // cheapest possible failure, no keys sorted.
          const double remaining_us =
              std::chrono::duration<double, std::micro>(f.req->deadline - now)
                  .count();
          if (remaining_us < run_ewma_us_) {
            doomed.push_back({std::move(f), /*shed=*/true, remaining_us});
            continue;
          }
        }
        f.queue_us_tmp = us_between(f.enqueued, now);
        batch.push_back(std::move(f));
      }
    }
    for (const auto& f : cancelled) {
      transition(Kind::kCancelled,
                 {.trace_id = f.req->trace_id,
                  .slot = slot_id,
                  .shard = static_cast<std::uint32_t>(f.shard_index)});
    }
    cancelled.clear();
    for (auto& d : doomed) {
      const double waited = us_between(d.f.req->submitted, Clock::now()) / 1e6;
      transition(d.shed ? Kind::kShed : Kind::kDeadlineMiss,
                 {.trace_id = d.f.req->trace_id,
                  .a = static_cast<std::int64_t>(d.shed ? d.remaining_us
                                                        : waited * 1e6),
                  .slot = slot_id,
                  .shard = static_cast<std::uint32_t>(d.f.shard_index)});
      std::ostringstream os;
      if (d.shed) {
        os << "SortService: shed at dispatch — remaining deadline budget of "
           << d.remaining_us / 1e6 << "s is below the observed "
           << "batch cost (request never dispatched this attempt)";
      } else {
        os << "SortService: deadline of " << d.f.req->deadline_s
           << "s exceeded after waiting " << waited << "s in the queue"
           << (d.f.attempts > 0
                   ? " awaiting retry " + std::to_string(d.f.attempts)
                   : " (request never dispatched)");
      }
      fail_fragment(d.f,
                    std::make_exception_ptr(DeadlineExceeded(
                        os.str(), d.f.req->deadline_s, waited,
                        d.f.req->trace_id)),
                    /*record_end=*/false);
    }
    if (batch.empty()) continue;
    run_batch(slot, batch);
    cv_.notify_all();  // queue may still hold work for us
  }
}

void SortService::run_batch(PoolSlot& slot, std::vector<Fragment>& batch) {
  simd::Machine& machine = *slot.machine;
  api::Config cfg = config_.base;

  // Arm the barrier watchdog with the tightest remaining deadline
  // budget so a stuck run fails structurally (BarrierTimeout) instead
  // of wedging this pool machine past every rider's deadline.
  const auto t0 = Clock::now();
  bool any_deadline = false;
  double budget_s = std::numeric_limits<double>::infinity();
  for (const auto& f : batch) {
    if (!f.req->has_deadline()) continue;
    any_deadline = true;
    budget_s = std::min(
        budget_s, std::chrono::duration<double>(f.req->deadline - t0).count());
  }
  if (any_deadline) {
    budget_s = std::max(budget_s, 0.001);
    cfg.watchdog_seconds = cfg.watchdog_seconds > 0
                               ? std::min(cfg.watchdog_seconds, budget_s)
                               : budget_s;
  }

  // Pre-run key snapshots for fragments whose request still has retry
  // budget: a failed run leaves keys unspecified (scatter/gather may
  // have landed partially, faults may have flipped bits), so a retry
  // must re-sort THIS image, not the wreckage.
  std::vector<std::vector<std::uint32_t>> backups(batch.size());
  if (config_.retry.max_retries > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].req->retries_used.load(std::memory_order_relaxed) <
          config_.retry.max_retries) {
        backups[i] = batch[i].keys;
      }
    }
  }
  for (auto& f : batch) ++f.attempts;

  std::vector<std::vector<std::uint32_t>*> items;
  items.reserve(batch.size());
  for (auto& f : batch) items.push_back(&f.keys);

  // Request trace IDs ride into the run so a BarrierTimeout's per-VP
  // diagnosis can name the request each stuck VP was serving.
  std::vector<std::uint64_t> item_ids;
  item_ids.reserve(batch.size());
  for (const auto& f : batch) item_ids.push_back(f.req->trace_id);
  cfg.batch_item_ids = item_ids.data();

  const std::int64_t ordinal =
      next_batch_.fetch_add(1, std::memory_order_relaxed);
  std::size_t depth_now = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++pool_busy_;
    depth_now = queue_depth_locked();
  }
  const auto slot_id = static_cast<std::uint32_t>(slot.index);
  for (const auto& f : batch) {
    const double t_us =
        transition(Kind::kDispatched,
                   {.trace_id = f.req->trace_id,
                    .a = ordinal,
                    .b = static_cast<std::int64_t>(depth_now),
                    .slot = slot_id,
                    .attempt = static_cast<std::uint32_t>(f.attempts),
                    .shard = static_cast<std::uint32_t>(f.shard_index)});
    if (&f == &batch.front()) slot.last_dispatch_us = t_us;
  }

  api::BatchOutcome out;
  std::exception_ptr error;
  try {
    out = api::parallel_sort_batch_on(machine, items, cfg);
  } catch (...) {
    error = std::current_exception();
  }
  const double run_us = us_between(t0, Clock::now());

  transition(Kind::kBatchDone,
             {.a = ordinal,
              .b = static_cast<std::int64_t>(run_us),
              .slot = slot_id,
              .error_class = error ? flight_error_class(error)
                                   : std::uint8_t{0}},
             {.batch_size = static_cast<int>(batch.size())});
  {
    std::lock_guard<std::mutex> lk(mu_);
    --pool_busy_;
    if (!error) {
      // Smoothed batch cost, successful runs only (a watchdog-aborted
      // run's duration reflects the watchdog, not the work) — this is
      // the shedding policy's estimate of "one more batch".
      run_ewma_us_ =
          run_ewma_us_ == 0 ? run_us : 0.75 * run_ewma_us_ + 0.25 * run_us;
    }
  }

  if (error) {
    bool timeout = false;
    try {
      std::rethrow_exception(error);
    } catch (const BarrierTimeout&) {
      timeout = true;
    } catch (...) {
    }
    handle_batch_failure(batch, backups, error, timeout);

    // Pool health: a machine that just failed a batch proves itself
    // with a clean self-check run; repeated failures (or a failed
    // health check) quarantine it and a fresh machine takes the slot.
    ++slot.consecutive_failures;
    const bool healthy = machine_healthy(machine);
    transition(Kind::kHealthCheck, {.a = healthy ? 1 : 0, .slot = slot_id});
    if (!healthy || slot.consecutive_failures >= config_.quarantine_after) {
      transition(Kind::kQuarantined,
                 {.a = slot.consecutive_failures, .slot = slot_id});
      slot.machine = make_machine();  // the old machine is destroyed here
      slot.consecutive_failures = 0;
      transition(Kind::kReplaced, {.slot = slot_id});
    }
    return;
  }

  slot.consecutive_failures = 0;
  const auto n = static_cast<int>(batch.size());
  for (auto& f : batch) {
    complete_fragment(std::move(f), run_us, n, out.report.makespan_us);
  }
}

void SortService::handle_batch_failure(
    std::vector<Fragment>& batch,
    std::vector<std::vector<std::uint32_t>>& backups, std::exception_ptr error,
    bool timeout) {
  const bool retryable =
      config_.retry.max_retries > 0 && fault::is_retryable(error);
  const auto now = Clock::now();
  double ewma_us = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ewma_us = run_ewma_us_;
  }

  std::vector<Fragment> requeue;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Fragment& f = batch[i];
    bool retried = false;
    if (retryable && !backups[i].empty() &&
        !f.req->done_flag.load(std::memory_order_acquire)) {
      // The retry cap is per REQUEST: every fragment (shard) draws from
      // the same budget, so a wide request cannot multiply its retries.
      const int used =
          f.req->retries_used.fetch_add(1, std::memory_order_relaxed);
      if (used < config_.retry.max_retries) {
        const double delay_ms = fault::backoff_ms(
            config_.retry, f.attempts,
            f.req->id ^ (static_cast<std::uint64_t>(f.shard_index) << 48));
        // Respect the deadline budget: a retry that cannot finish
        // before the deadline only delays the inevitable failure.
        bool budget_ok = true;
        if (f.req->has_deadline()) {
          const double remaining_us =
              std::chrono::duration<double, std::micro>(f.req->deadline - now)
                  .count();
          budget_ok = remaining_us > delay_ms * 1000.0 + ewma_us;
        }
        if (budget_ok) {
          f.keys = std::move(backups[i]);
          f.not_before = now + from_seconds(delay_ms / 1000.0);
          f.enqueued = now;  // queue_us measures the wait of THIS attempt
          requeue.push_back(std::move(f));
          retried = true;
        }
      }
    }
    if (retried) continue;

    // Terminal delivery: deadline-carrying riders of a watchdog abort
    // get the deadline error they asked for, everyone else the
    // structured run error — wrapped as RetryExhausted when the error
    // WAS transient but the request's retry budget is already spent.
    // First failure wins.
    if (timeout && f.req->has_deadline()) {
      const double waited = us_between(f.req->submitted, Clock::now()) / 1e6;
      std::ostringstream os;
      os << "SortService: deadline of " << f.req->deadline_s
         << "s exceeded while running (the batch watchdog fired after "
         << waited << "s)";
      fail_fragment(f, std::make_exception_ptr(DeadlineExceeded(
                           os.str(), f.req->deadline_s, waited,
                           f.req->trace_id)));
    } else if (retryable && f.req->retries_used.load(
                                std::memory_order_relaxed) >=
                                config_.retry.max_retries) {
      std::string last = "unknown error";
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        last = e.what();
      } catch (...) {
      }
      std::ostringstream os;
      os << "SortService: retry budget of " << config_.retry.max_retries
         << " exhausted after " << f.attempts
         << " attempt(s); last transient error: " << last;
      fail_fragment(f, std::make_exception_ptr(RetryExhausted(
                           os.str(), f.req->trace_id, f.attempts)));
    } else {
      fail_fragment(f, error);
    }
  }

  if (requeue.empty()) return;
  bool aborting = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    aborting = abort_;
    if (!aborting) {
      for (auto& f : requeue) {
        transition(
            Kind::kRetryScheduled,
            {.trace_id = f.req->trace_id,
             .a = static_cast<std::int64_t>(
                 std::chrono::duration<double, std::milli>(f.not_before - now)
                     .count()),
             .b = static_cast<std::int64_t>(queue_depth_locked() + 1),
             .attempt = static_cast<std::uint32_t>(f.attempts),
             .shard = static_cast<std::uint32_t>(f.shard_index)});
        retry_.push_back(std::move(f));
      }
    }
  }
  if (aborting) {
    // shutdown(kAbort) landed while this batch was running: nothing
    // will drain the retry queue, so deliver the original error.
    for (auto& f : requeue) fail_fragment(f, error);
  } else {
    cv_.notify_all();
  }
}

bool SortService::machine_healthy(simd::Machine& machine) {
  api::Config cfg = config_.base;
  cfg.faults = nullptr;  // the health run must be clean
  cfg.self_check = true;  // sortedness + multiset fingerprint
  cfg.integrity = true;
  // Scatter the health keys: under the base threshold they would sort
  // whole on one VP (or on this thread), exercising no exchange, barrier
  // or VP thread of the machine being certified.
  cfg.small_item_threshold = 0;
  cfg.watchdog_seconds =
      cfg.watchdog_seconds > 0 ? std::min(cfg.watchdog_seconds, 10.0) : 10.0;
  const std::size_t n =
      padded_size(static_cast<std::size_t>(config_.base.nprocs) * 16);
  auto keys =
      util::generate_keys(n, util::KeyDistribution::kUniform31, kHealthSeed);
  try {
    return api::parallel_sort_on(machine, keys, cfg).sorted;
  } catch (...) {
    return false;
  }
}

ServiceStats SortService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = queue_depth_locked();
    s.pool_busy = pool_busy_;
  }
  const obs::ServiceMetrics m = flight_.metrics();
  for (const CounterName& c : kCounters) s.*c.field = c.count(m);
  s.pool_size = config_.pool_size;
  s.uptime_s = std::chrono::duration<double>(Clock::now() - start_).count();
  s.sorts_per_sec =
      s.uptime_s > 0 ? static_cast<double>(s.completed) / s.uptime_s : 0;
  s.queue_p50_us = m.queue_us.quantile(0.50);
  s.queue_p95_us = m.queue_us.quantile(0.95);
  s.queue_p99_us = m.queue_us.quantile(0.99);
  s.run_p50_us = m.run_us.quantile(0.50);
  s.run_p95_us = m.run_us.quantile(0.95);
  s.run_p99_us = m.run_us.quantile(0.99);
  s.total_p50_us = m.total_us.quantile(0.50);
  s.total_p95_us = m.total_us.quantile(0.95);
  s.total_p99_us = m.total_us.quantile(0.99);
  s.total_max_us = m.total_us.max();
  const auto& hi = m.class_total_us[static_cast<int>(Priority::kHigh)];
  const auto& lo = m.class_total_us[static_cast<int>(Priority::kLow)];
  s.high_p50_us = hi.quantile(0.50);
  s.high_p95_us = hi.quantile(0.95);
  s.high_p99_us = hi.quantile(0.99);
  s.low_p50_us = lo.quantile(0.50);
  s.low_p95_us = lo.quantile(0.95);
  s.low_p99_us = lo.quantile(0.99);
  s.batch_occupancy_mean = m.batch_occupancy.mean();
  s.batch_occupancy_max = m.batch_occupancy.max();
  s.shard_fanout_mean = m.shard_fanout.mean();
  s.shard_fanout_max = m.shard_fanout.max();
  s.flight_recorded = flight_.size();
  s.flight_dropped = flight_.dropped();
  return s;
}

double SortService::transition(obs::FlightEventKind kind, obs::FlightRecord r,
                               const obs::FlightSample& s) {
  r.kind = kind;
  const double t_us = flight_.record(r, s);
  // Terminal failures and quarantines: the post-mortems the dump path
  // exists for.
  if (kind == Kind::kFailed || kind == Kind::kQuarantined) maybe_dump_flight();
  return t_us;
}

std::size_t SortService::dump_flight(std::ostream& os) const {
  return flight_.dump_jsonl(os);
}

void SortService::maybe_dump_flight() const {
  if (config_.flight_dump_path.empty()) return;
  std::ofstream out(config_.flight_dump_path, std::ios::trunc);
  if (out) flight_.dump_jsonl(out);
}

void SortService::export_perfetto(std::ostream& os) const {
  obs::ServicePerfettoMeta meta;
  meta.process_name = "bsort-service";
  meta.pid = 0;
  meta.pool_size = config_.pool_size;
  std::vector<obs::ServiceMachineTrack> machines;
  machines.reserve(pool_.size());
  for (const auto& slot : pool_) {
    obs::ServiceMachineTrack t;
    // Only machines that actually ran with profiling contribute span
    // tracks (an idle pool member never allocates its span rings); the
    // process entry keeps the layout stable either way.
    t.machine = slot.machine != nullptr && slot.machine->profiling()
                    ? slot.machine.get()
                    : nullptr;
    t.name = "pool slot " + std::to_string(slot.index);
    t.ts_offset_us = slot.last_dispatch_us;
    machines.push_back(std::move(t));
  }
  obs::write_service_perfetto(os, flight_.snapshot(), machines, meta);
}

obs::TelemetrySample SortService::make_telemetry_sample() const {
  obs::TelemetrySample sample;
  sample.t_s =
      std::chrono::duration<double>(Clock::now() - start_).count();
  const auto counter = [&](const char* name, double v) {
    sample.values.push_back({name, v, /*counter=*/true});
  };
  const auto gauge = [&](const char* name, double v) {
    sample.values.push_back({name, v, /*counter=*/false});
  };
  const auto hist = [&](const char* name, const obs::LogHistogram& h) {
    obs::TelemetryHist out;
    out.name = name;
    out.count = h.count();
    out.p50 = h.quantile(0.50);
    out.p95 = h.quantile(0.95);
    out.p99 = h.quantile(0.99);
    out.max = h.max();
    out.sum = h.sum();
    sample.hists.push_back(std::move(out));
  };
  const obs::ServiceMetrics m = flight_.metrics();
  for (const CounterName& c : kCounters) {
    counter(c.name, static_cast<double>(c.count(m)));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    gauge("queue_depth", static_cast<double>(queue_depth_locked()));
    gauge("pool_busy", static_cast<double>(pool_busy_));
  }
  gauge("pool_size", static_cast<double>(config_.pool_size));
  hist("queue_wait_us", m.queue_us);
  hist("run_us", m.run_us);
  hist("total_us", m.total_us);
  hist("batch_size", m.batch_occupancy);
  hist("shard_fanout", m.shard_fanout);
  hist("high_total_us", m.class_total_us[static_cast<int>(Priority::kHigh)]);
  hist("low_total_us", m.class_total_us[static_cast<int>(Priority::kLow)]);
  counter("flight_events",
          static_cast<double>(flight_.dropped() + flight_.size()));
  gauge("flight_dropped", static_cast<double>(flight_.dropped()));
  return sample;
}

void SortService::telemetry_loop() {
  const auto interval = from_seconds(config_.telemetry.interval_s);
  std::unique_lock<std::mutex> lk(telemetry_mu_);
  for (;;) {
    telemetry_cv_.wait_for(lk, interval, [this] { return telemetry_stop_; });
    // Sample WITHOUT holding telemetry_mu_ (stats takes mu_; keep the
    // two uncoupled), then write.  One final sample on stop so the
    // series always ends with the drained counters.
    const bool stop = telemetry_stop_;
    lk.unlock();
    telemetry_writer_->write(make_telemetry_sample());
    if (stop) return;
    lk.lock();
  }
}

}  // namespace bsort::service
