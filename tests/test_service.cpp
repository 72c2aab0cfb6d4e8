// SortService end to end: batching correctness over a pre-warmed pool,
// arbitrary (non-power-of-two) request sizes via padding, splitter
// sharding of oversized requests, queue-full and deadline admission
// control, structured failure delivery, SLO stats sanity, and the
// request-lifecycle observability layer (trace IDs, flight recorder,
// telemetry export, service Perfetto traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "service/sort_service.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

namespace api = bsort::api;
namespace fault = bsort::fault;
namespace service = bsort::service;

std::vector<std::uint32_t> request_keys(std::size_t n, std::uint64_t seed) {
  return bsort::util::generate_keys(n, bsort::util::KeyDistribution::kUniform31,
                                    seed);
}

service::ServiceConfig small_service() {
  service::ServiceConfig cfg;
  cfg.base.nprocs = 4;
  cfg.base.algorithm = api::Algorithm::kSmartBitonic;
  cfg.pool_size = 2;
  cfg.max_batch = 8;
  return cfg;
}

/// The fields of one bsort-flight-v1 record line the tests read.
struct FlightLine {
  std::string event;
  std::string request;
  double t_us = 0;
  long long a = 0;
};

/// The retained records of a service's flight dump, oldest first.
std::vector<FlightLine> flight_lines(const service::SortService& svc) {
  std::ostringstream os;
  svc.dump_flight(os);
  std::istringstream in(os.str());
  std::vector<FlightLine> out;
  std::string line;
  std::getline(in, line);  // meta
  const auto field = [&line](const std::string& key) {
    const auto at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    return at + key.size() + 3;
  };
  while (std::getline(in, line)) {
    FlightLine r;
    const auto ev = field("event") + 1;
    r.event = line.substr(ev, line.find('"', ev) - ev);
    const auto rq = field("request") + 1;
    r.request = line.substr(rq, line.find('"', rq) - rq);
    r.t_us = std::stod(line.substr(field("t_us")));
    r.a = std::stoll(line.substr(field("a")));
    out.push_back(std::move(r));
  }
  return out;
}

/// Ids of the flow events of one phase ("s", "t" or "f") in a trace.
std::set<std::string> flow_ids(const std::string& trace, const char* ph) {
  const std::string key = std::string("\"ph\":\"") + ph + "\",\"id\":\"";
  std::set<std::string> ids;
  for (auto at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    const auto id = at + key.size();
    ids.insert(trace.substr(id, trace.find('"', id) - id));
  }
  return ids;
}

TEST(SortService, SortsManyConcurrentRequests) {
  service::SortService svc(small_service());
  struct Pending {
    std::vector<std::uint32_t> want;
    std::future<service::SortResult> fut;
  };
  std::vector<Pending> pending;
  for (std::uint64_t i = 0; i < 48; ++i) {
    // Sizes deliberately include non-powers-of-two and sub-P counts.
    const std::size_t n = 3 + (i * 37) % 900;
    auto keys = request_keys(n, i);
    Pending p;
    p.want = keys;
    std::sort(p.want.begin(), p.want.end());
    p.fut = svc.submit(std::move(keys));
    pending.push_back(std::move(p));
  }
  for (auto& p : pending) {
    const auto res = p.fut.get();
    EXPECT_EQ(res.keys, p.want);
    EXPECT_GE(res.batch_items, 1);
    EXPECT_GE(res.total_us, 0.0);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 48u);
  EXPECT_EQ(stats.completed, 48u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  // Batching may not beat the dispatcher under light load, but it can
  // never exceed one run per request.
  EXPECT_LE(stats.batches, stats.completed);
}

TEST(SortService, CoalescesQueuedRequestsIntoSharedRuns) {
  auto cfg = small_service();
  cfg.pool_size = 1;  // a single machine serializes dispatch
  cfg.max_batch = 8;
  service::SortService svc(cfg);

  // Occupy the machine with a large request; everything submitted while
  // it runs must coalesce into (at most) one shared follow-up batch.
  auto big = svc.submit(request_keys(std::size_t{1} << 16, 7));
  std::vector<std::future<service::SortResult>> small;
  for (std::uint64_t i = 0; i < 8; ++i) {
    small.push_back(svc.submit(request_keys(64, 100 + i)));
  }
  big.get();
  int max_batch_items = 0;
  for (auto& f : small) {
    max_batch_items = std::max(max_batch_items, f.get().batch_items);
  }
  EXPECT_GE(max_batch_items, 2)
      << "requests queued behind a running sort should share one run";
  EXPECT_GE(svc.stats().batch_occupancy_max, 2.0);
}

TEST(SortService, PadsArbitrarySizesIncludingPadKeyCollisions) {
  service::SortService svc(small_service());
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{100},
                              std::size_t{1000}, std::size_t{1} << 12,
                              (std::size_t{1} << 12) + 1}) {
    auto keys = request_keys(n, n);
    auto want = keys;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(svc.submit(std::move(keys)).get().keys, want) << "n=" << n;
  }
  // All keys equal to the pad sentinel: unpadding must still drop
  // exactly the pad count, not every max-valued key.
  std::vector<std::uint32_t> all_max(37, 0xFFFFFFFFu);
  const auto res = svc.submit(all_max).get();
  EXPECT_EQ(res.keys, all_max);

  EXPECT_TRUE(svc.submit({}).get().keys.empty());
}

TEST(SortService, ShardsOversizedRequestsAcrossThePool) {
  auto cfg = small_service();
  cfg.shard_threshold = std::size_t{1} << 14;
  cfg.shards_per_request = 4;
  service::SortService svc(cfg);

  auto keys = request_keys(std::size_t{1} << 15, 9);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto res = svc.submit(std::move(keys)).get();
  EXPECT_EQ(res.keys, want);
  EXPECT_GE(res.shards, 2);
  EXPECT_EQ(svc.stats().sharded, 1u);

  // Below the threshold: untouched.
  auto small = request_keys(256, 10);
  auto small_want = small;
  std::sort(small_want.begin(), small_want.end());
  const auto small_res = svc.submit(std::move(small)).get();
  EXPECT_EQ(small_res.keys, small_want);
  EXPECT_EQ(small_res.shards, 1);
}

TEST(SortService, LocalPlacementServesSmallRequestsCorrectly) {
  auto cfg = small_service();
  cfg.base.small_item_threshold = 2048;  // batch scheduler may place locally
  service::SortService svc(cfg);
  std::vector<std::pair<std::vector<std::uint32_t>, std::future<service::SortResult>>>
      pending;
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto keys = request_keys(100 + (i * 53) % 500, i);
    auto want = keys;
    std::sort(want.begin(), want.end());
    auto fut = svc.submit(std::move(keys));
    pending.emplace_back(std::move(want), std::move(fut));
  }
  for (auto& [want, fut] : pending) EXPECT_EQ(fut.get().keys, want);
  EXPECT_EQ(svc.stats().completed, 32u);
  EXPECT_EQ(svc.stats().failed, 0u);
}

TEST(SortService, QueueFullRejectsAtSubmit) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.queue_limit = 2;
  service::SortService svc(cfg);

  // Park the machine on a big sort, then overfill the tiny queue.
  auto big = svc.submit(request_keys(std::size_t{1} << 16, 3));
  std::vector<std::future<service::SortResult>> accepted;
  bool rejected = false;
  for (int i = 0; i < 16 && !rejected; ++i) {
    try {
      accepted.push_back(svc.submit(request_keys(64, 40 + i)));
    } catch (const service::QueueFull& e) {
      rejected = true;
      EXPECT_EQ(e.limit(), 2u);
      EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
    }
  }
  EXPECT_TRUE(rejected) << "16 submits against queue_limit=2 must overflow";
  EXPECT_GE(svc.stats().rejected_queue_full, 1u);

  // Everything admitted still completes: rejection sheds load, it does
  // not poison the pool.
  big.get();
  for (auto& f : accepted) EXPECT_FALSE(f.get().keys.empty());
}

TEST(SortService, ExpiredDeadlineRejectsStructurallyAndPoolKeepsServing) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  service::SortService svc(cfg);

  // Queue the doomed request behind a long-running one so its
  // (effectively immediate) deadline expires before dispatch.
  auto big = svc.submit(request_keys(std::size_t{1} << 16, 5));
  auto doomed = svc.submit(request_keys(128, 6), {/*deadline_s=*/1e-9});
  try {
    doomed.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const service::DeadlineExceeded& e) {
    EXPECT_DOUBLE_EQ(e.deadline_seconds(), 1e-9);
    EXPECT_GT(e.waited_seconds(), 0.0);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  big.get();

  // The pool is still serving afterwards.
  auto after = request_keys(512, 8);
  auto want = after;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(svc.submit(std::move(after)).get().keys, want);

  const auto stats = svc.stats();
  EXPECT_GE(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.failed, 0u) << "a queue-side deadline rejection is not a run failure";

  // A generous deadline passes through untouched.
  auto easy = request_keys(256, 12);
  auto easy_want = easy;
  std::sort(easy_want.begin(), easy_want.end());
  EXPECT_EQ(svc.submit(std::move(easy), {/*deadline_s=*/60.0}).get().keys, easy_want);
}

TEST(SortService, RunFailureDeliversStructuredErrorAndMachineSurvives) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  static fault::FaultPlan plan;  // outlives every batch run
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  cfg.base.faults = &plan;
  cfg.base.watchdog_seconds = 60.0;
  service::SortService svc(cfg);

  // Sequential submits so each request is its own batch: the second
  // being served at all proves the machine survived the first's crash.
  for (int i = 0; i < 2; ++i) {
    auto fut = svc.submit(request_keys(256, static_cast<std::uint64_t>(i)));
    EXPECT_THROW(fut.get(), bsort::Error) << "round " << i;
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(SortService, StatsAreCoherent) {
  service::SortService svc(small_service());
  for (std::uint64_t i = 0; i < 12; ++i) {
    svc.submit(request_keys(100 + i, i)).get();
  }
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 12u);
  EXPECT_EQ(s.completed, 12u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.pool_size, 2);
  EXPECT_GT(s.uptime_s, 0.0);
  EXPECT_GT(s.sorts_per_sec, 0.0);
  EXPECT_LE(s.total_p50_us, s.total_p95_us);
  EXPECT_LE(s.total_p95_us, s.total_p99_us);
  EXPECT_LE(s.total_p99_us, s.total_max_us);
  EXPECT_GE(s.batch_occupancy_mean, 1.0);
  EXPECT_GE(s.batch_occupancy_max, s.batch_occupancy_mean);
}

TEST(SortService, SubmitAfterShutdownThrows) {
  service::SortService svc(small_service());
  auto fut = svc.submit(request_keys(128, 1));
  svc.shutdown();
  EXPECT_FALSE(fut.get().keys.empty()) << "shutdown drains queued work";
  EXPECT_THROW(svc.submit(request_keys(8, 2)), service::ServiceStopped);
  svc.shutdown();  // idempotent
}

TEST(SortService, RejectsUnschedulableConstruction) {
  auto cfg = small_service();
  cfg.pool_size = 0;
  EXPECT_THROW(service::SortService bad(cfg), bsort::ConfigError);

  auto cfg2 = small_service();
  cfg2.base.nprocs = 3;  // not a power of two: no padded shape exists
  EXPECT_THROW(service::SortService bad2(cfg2), bsort::ConfigError);

  auto cfg3 = small_service();
  cfg3.retry.max_retries = -1;
  EXPECT_THROW(service::SortService bad3(cfg3), bsort::ConfigError);

  auto cfg4 = small_service();
  cfg4.quarantine_after = 0;
  EXPECT_THROW(service::SortService bad4(cfg4), bsort::ConfigError);
}

TEST(SortService, HighPriorityDispatchesBeforeEarlierLowPriority) {
  auto cfg = small_service();
  cfg.pool_size = 1;   // a single machine serializes dispatch
  cfg.max_batch = 4;   // one batch per class below
  service::SortService svc(cfg);

  // Park the machine, then enqueue LOW requests FIRST and HIGH second:
  // FIFO would dispatch the lows first; the class-aware queue must flip
  // that, which shows up as strictly smaller queue waits for every
  // high request (lows enqueued earlier AND dispatched later).
  //
  // Enqueue nothing until the park request is running: a low request
  // that arrives before dispatch would be batched ahead of it and never
  // wait behind the highs.  If this thread is descheduled for the whole
  // park run, it never sees the machine busy; park again (bounded).
  std::future<service::SortResult> park;
  std::uint64_t parks = 0;
  bool parked = false;
  while (!parked && parks < 20) {
    park = svc.submit(request_keys(std::size_t{1} << 17, 3 + parks));
    ++parks;
    while (!(parked = svc.stats().pool_busy == 1) &&
           park.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      std::this_thread::yield();
    }
    if (!parked) park.get();
  }
  ASSERT_TRUE(parked) << "the park request never showed as running";
  std::vector<std::future<service::SortResult>> lows;
  std::vector<std::future<service::SortResult>> highs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    lows.push_back(svc.submit(request_keys(200, i),
                              {/*deadline_s=*/0, service::Priority::kLow}));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    highs.push_back(svc.submit(request_keys(200, 10 + i),
                               {/*deadline_s=*/0, service::Priority::kHigh}));
  }
  park.get();
  double max_high_queue_us = 0;
  for (auto& f : highs) {
    max_high_queue_us = std::max(max_high_queue_us, f.get().queue_us);
  }
  double min_low_queue_us = 1e18;
  for (auto& f : lows) {
    min_low_queue_us = std::min(min_low_queue_us, f.get().queue_us);
  }
  EXPECT_GT(min_low_queue_us, max_high_queue_us)
      << "low-priority requests submitted FIRST must still wait longer";

  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 8u + parks);
  // Both classes completed, so both class histograms are populated.
  EXPECT_GT(s.high_p99_us, 0.0);
  EXPECT_GT(s.low_p99_us, 0.0);
}

TEST(SortService, LowPriorityAdmissionIsCappedBelowQueueLimit) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.queue_limit = 8;
  cfg.low_priority_admission = 0.25;  // low may fill only 2 slots
  service::SortService svc(cfg);

  auto park = svc.submit(request_keys(std::size_t{1} << 16, 3));
  std::vector<std::future<service::SortResult>> accepted;
  int low_rejected = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      accepted.push_back(
          svc.submit(request_keys(64, 40 + static_cast<std::uint64_t>(i)),
                     {/*deadline_s=*/0, service::Priority::kLow}));
    } catch (const service::QueueFull& e) {
      ++low_rejected;
      EXPECT_EQ(e.limit(), 2u);
    }
  }
  EXPECT_GE(low_rejected, 6) << "low admission must cap at 25% of the queue";
  // High-priority still has the whole queue at its disposal.
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(
        svc.submit(request_keys(64, 80 + static_cast<std::uint64_t>(i)),
                   {/*deadline_s=*/0, service::Priority::kHigh}));
  }
  park.get();
  for (auto& f : accepted) EXPECT_FALSE(f.get().keys.empty());
  EXPECT_GE(svc.stats().rejected_queue_full, 6u);
}

TEST(SortService, ShedsRequestsWhoseBudgetCannotCoverABatch) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  service::SortService svc(cfg);

  // Teach the dispatcher's batch-cost EWMA a LARGE cost E with one big
  // completed request, then offer tiny requests whose ENTIRE deadline
  // is a fraction of E: unexpired at dispatch (the machine is idle, so
  // queue wait is microseconds), but with a remaining budget no batch
  // estimate says is meetable — the shed window, independent of host
  // speed because both sides of the comparison come from this run.
  const auto first =
      svc.submit(request_keys(std::size_t{1} << 17, 1)).get();
  const double e_s = first.run_us / 1e6;

  std::vector<std::future<service::SortResult>> doomed;
  const double mults[] = {0.2, 0.35, 0.5};
  for (const double mult : mults) {
    doomed.push_back(svc.submit(request_keys(64, 7),
                                {/*deadline_s=*/mult * e_s}));
  }
  int deadline_errors = 0;
  for (auto& f : doomed) {
    try {
      f.get();
    } catch (const service::DeadlineExceeded&) {
      ++deadline_errors;
    }
  }
  const auto s = svc.stats();
  EXPECT_EQ(deadline_errors, 3);
  EXPECT_GE(s.shed, 1u) << "an unexpired but unmeetable budget must shed "
                        << "(shed=" << s.shed
                        << " rejected_deadline=" << s.rejected_deadline << ")";
  EXPECT_EQ(s.shed + s.rejected_deadline, 3u);
  EXPECT_EQ(s.failed, 0u) << "shedding is not a run failure";

  // A shed record carries the budget that was left at dispatch: the
  // deadline minus the time the request had spent in the service, not
  // that time itself (which is all the machine being idle makes tiny).
  // Submits came from this thread alone, so the n-th submitted record
  // after the first request's is the n-th doomed request.
  std::map<std::string, double> submitted_at, deadline_us;
  for (const auto& r : flight_lines(svc)) {
    if (r.event == "submitted") {
      const std::size_t n = submitted_at.size();
      submitted_at[r.request] = r.t_us;
      if (n >= 1 && n <= 3) deadline_us[r.request] = mults[n - 1] * e_s * 1e6;
    }
    if (r.event != "shed") continue;
    ASSERT_EQ(deadline_us.count(r.request), 1u) << r.request;
    const double deadline = deadline_us[r.request];
    const double waited = r.t_us - submitted_at.at(r.request);
    EXPECT_LE(static_cast<double>(r.a), deadline) << r.request;
    EXPECT_GE(static_cast<double>(r.a) + waited, 0.75 * deadline)
        << r.request << " a=" << r.a << " waited=" << waited;
  }

  // And the pool still serves.
  auto after = request_keys(256, 9);
  auto want = after;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(svc.submit(std::move(after)).get().keys, want);
}

TEST(SortService, CancelsQueuedSiblingShardsOfAFailedRequest) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  cfg.max_batch = 1;  // each shard dispatches as its own batch
  cfg.shard_threshold = 1024;
  cfg.shards_per_request = 4;
  cfg.retry.max_retries = 0;  // first failure is terminal
  static fault::FaultPlan plan;  // outlives every batch run
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  cfg.base.faults = &plan;
  cfg.base.watchdog_seconds = 60.0;
  service::SortService svc(cfg);

  // The first shard's batch crashes and fails the request terminally;
  // its still-queued siblings must be dropped at dispatch instead of
  // sorting keys whose future is already failed.
  auto fut = svc.submit(request_keys(4096, 11));
  EXPECT_THROW(fut.get(), bsort::Error);
  // Drain: all sibling fragments have passed through dispatch.
  svc.shutdown();
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_GE(s.cancelled, 1u)
      << "queued siblings of the failed request must be cancelled";
  EXPECT_LT(s.batches, 4u) << "cancelled shards must not consume runs";
}

TEST(SortService, ShutdownAbortFailsQueuedRequestsImmediately) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  service::SortService svc(cfg);

  // Park the machine; everything queued behind it is aborted, while the
  // in-flight request is allowed to finish.  Wait for the park to leave
  // the queue so the abort cannot race its dispatch and fail it too.
  auto park = svc.submit(request_keys(std::size_t{1} << 18, 5));
  while (svc.stats().queue_depth != 0) std::this_thread::yield();
  std::vector<std::future<service::SortResult>> queued;
  for (std::uint64_t i = 0; i < 8; ++i) {
    queued.push_back(svc.submit(request_keys(128, i)));
  }
  svc.shutdown(service::ShutdownPolicy::kAbort);

  EXPECT_FALSE(park.get().keys.empty()) << "the running batch completes";
  int stopped = 0;
  for (auto& f : queued) {
    try {
      f.get();
      ADD_FAILURE() << "a queued request survived shutdown(kAbort)";
    } catch (const service::ServiceStopped&) {
      ++stopped;
    }
  }
  EXPECT_EQ(stopped, 8);
  EXPECT_THROW(svc.submit(request_keys(8, 2)), service::ServiceStopped);
  svc.shutdown(service::ShutdownPolicy::kAbort);  // idempotent
  svc.shutdown();                                 // and mixed-policy safe
}

// ---- request-lifecycle observability (DESIGN.md §11) ----------------

TEST(SortService, TraceIdsAreNonzeroDistinctAndDeterministic) {
  std::vector<std::uint64_t> first_run;
  for (int run = 0; run < 2; ++run) {
    service::SortService svc(small_service());
    std::vector<std::future<service::SortResult>> futs;
    for (std::uint64_t i = 0; i < 4; ++i) {
      futs.push_back(svc.submit(request_keys(128, i)));
    }
    std::vector<std::uint64_t> ids;
    for (auto& f : futs) {
      const auto res = f.get();
      EXPECT_NE(res.trace_id, 0u);
      ids.push_back(res.trace_id);
    }
    auto uniq = ids;
    std::sort(uniq.begin(), uniq.end());
    EXPECT_EQ(std::unique(uniq.begin(), uniq.end()), uniq.end())
        << "trace ids must be distinct within a service";
    // Minted from an admission-order sequence: a fresh service given
    // the same submission order reproduces the same IDs, so traces from
    // two runs of one workload are comparable.
    if (run == 0) {
      first_run = ids;
    } else {
      EXPECT_EQ(ids, first_run);
    }
  }
}

TEST(SortService, ErrorsCarryTheRequestTraceId) {
  auto cfg = small_service();
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.queue_limit = 2;
  service::SortService svc(cfg);

  auto park = svc.submit(request_keys(std::size_t{1} << 16, 3));
  auto doomed = svc.submit(request_keys(128, 6), {/*deadline_s=*/1e-9});

  // Overfill the tiny queue: the synchronous QueueFull names the
  // REJECTED request's id (minted before admission so even rejected
  // traffic correlates with the flight recorder).
  bool rejected = false;
  std::vector<std::future<service::SortResult>> accepted;
  for (int i = 0; i < 16 && !rejected; ++i) {
    try {
      accepted.push_back(svc.submit(request_keys(64, 40 + i)));
    } catch (const service::QueueFull& e) {
      rejected = true;
      EXPECT_NE(e.trace_id(), 0u);
      EXPECT_NE(std::string(e.what()).find(bsort::util::hex_id(e.trace_id())),
                std::string::npos)
          << "what() must embed the hex trace id: " << e.what();
    }
  }
  EXPECT_TRUE(rejected);

  try {
    doomed.get();
    FAIL() << "expected DeadlineExceeded";
  } catch (const service::DeadlineExceeded& e) {
    EXPECT_NE(e.trace_id(), 0u);
    EXPECT_NE(std::string(e.what()).find(bsort::util::hex_id(e.trace_id())),
              std::string::npos);
  }
  park.get();
  for (auto& f : accepted) EXPECT_FALSE(f.get().keys.empty());
}

TEST(SortService, FlightRecorderCapturesTheLifecycle) {
  service::SortService svc(small_service());
  const auto res = svc.submit(request_keys(500, 9)).get();
  ASSERT_NE(res.trace_id, 0u);

  std::ostringstream os;
  EXPECT_GT(svc.dump_flight(os), 0u);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("bsort-flight-v1"), std::string::npos);
  const std::string id = bsort::util::hex_id(res.trace_id);
  for (const char* event : {"submitted", "enqueued", "dispatched",
                            "completed"}) {
    EXPECT_NE(dump.find(std::string("\"event\":\"") + event +
                        "\",\"request\":\"" + id + "\""),
              std::string::npos)
        << "missing " << event << " for " << id << " in:\n" << dump;
  }

  const auto s = svc.stats();
  EXPECT_GT(s.flight_recorded, 0u);
  EXPECT_EQ(s.flight_dropped, 0u);
}

TEST(SortService, StatsExposeObservabilityFields) {
  auto cfg = small_service();
  cfg.shard_threshold = 2048;
  cfg.shards_per_request = 2;
  service::SortService svc(cfg);
  svc.submit(request_keys(4096, 3)).get();  // sharded: fan-out 2
  svc.submit(request_keys(128, 4)).get();   // whole: fan-out 1
  const auto s = svc.stats();
  EXPECT_GE(s.shard_fanout_max, 2.0);
  EXPECT_GT(s.shard_fanout_mean, 1.0);
  EXPECT_LE(s.shard_fanout_mean, s.shard_fanout_max);
  EXPECT_GE(s.pool_busy, 0);
  EXPECT_LE(s.pool_busy, s.pool_size);
  EXPECT_GT(s.flight_recorded, 0u);
}

TEST(SortService, TelemetryThreadWritesSeriesAndExposition) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/bsort_test_telemetry.jsonl";
  const std::string prom = dir + "/bsort_test_metrics.prom";
  auto cfg = small_service();
  cfg.telemetry.interval_s = 0.01;
  cfg.telemetry.jsonl_path = jsonl;
  cfg.telemetry.prom_path = prom;
  {
    service::SortService svc(cfg);
    for (std::uint64_t i = 0; i < 6; ++i) {
      svc.submit(request_keys(200 + i, i)).get();
    }
    svc.shutdown();  // writes one final drained sample
  }

  std::ifstream jf(jsonl);
  ASSERT_TRUE(jf.is_open()) << jsonl;
  std::string line, last;
  ASSERT_TRUE(std::getline(jf, line));
  EXPECT_NE(line.find("bsort-telemetry-v1"), std::string::npos);
  int samples = 0;
  while (std::getline(jf, line)) {
    if (line.find("\"type\":\"sample\"") != std::string::npos) {
      ++samples;
      last = line;
    }
  }
  EXPECT_GE(samples, 1);
  // The final sample sees the fully drained service.
  EXPECT_NE(last.find("\"submitted\":{\"total\":6"), std::string::npos)
      << last;

  std::ifstream pf(prom);
  ASSERT_TRUE(pf.is_open()) << prom;
  std::stringstream ps;
  ps << pf.rdbuf();
  EXPECT_NE(ps.str().find("# TYPE bsort_submitted_total counter\n"
                          "bsort_submitted_total 6"),
            std::string::npos)
      << ps.str();
}

TEST(SortService, FlightDumpPathWrittenAtShutdown) {
  const std::string path =
      ::testing::TempDir() + "/bsort_test_flight_dump.jsonl";
  auto cfg = small_service();
  cfg.flight_dump_path = path;
  {
    service::SortService svc(cfg);
    svc.submit(request_keys(300, 7)).get();
  }  // destructor shuts down and dumps
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("bsort-flight-v1"), std::string::npos);
  EXPECT_NE(ss.str().find("\"event\":\"stopped\""), std::string::npos);
}

TEST(SortService, ExportPerfettoEndsTheFlowsOfRefusedSubmits) {
  auto cfg = small_service();
  cfg.queue_limit = 0;
  service::SortService svc(cfg);
  EXPECT_THROW(svc.submit(request_keys(64, 1)), service::QueueFull);
  svc.shutdown();
  EXPECT_THROW(svc.submit(request_keys(64, 2)), service::ServiceStopped);

  std::ostringstream os;
  svc.export_perfetto(os);
  const auto started = flow_ids(os.str(), "s");
  EXPECT_EQ(started.size(), 2u);
  EXPECT_EQ(flow_ids(os.str(), "f"), started)
      << "every flow that starts must end:\n" << os.str();
}

// Every ServiceStats counter is the number of flight records of its
// kind, whatever path the requests took.  Each scenario drains (or
// aborts) the service before the dump, so no record is still in flight.
TEST(SortService, CountersAreTheFlightRecordCounts) {
  struct Count {
    const char* event;
    std::uint64_t service::ServiceStats::*field;
  };
  const Count kCounts[] = {
      {"enqueued", &service::ServiceStats::submitted},
      {"completed", &service::ServiceStats::completed},
      {"failed", &service::ServiceStats::failed},
      {"queue-full", &service::ServiceStats::rejected_queue_full},
      {"deadline-miss", &service::ServiceStats::rejected_deadline},
      {"batch-done", &service::ServiceStats::batches},
      {"retry-scheduled", &service::ServiceStats::retries},
      {"shed", &service::ServiceStats::shed},
      {"cancelled", &service::ServiceStats::cancelled},
      {"quarantined", &service::ServiceStats::quarantined},
      {"replaced", &service::ServiceStats::replaced},
      {"health-check", &service::ServiceStats::health_checks},
  };
  // Crashes every run that reaches its first exchange.
  const auto crash_always = [](service::ServiceConfig& cfg,
                               fault::FaultPlan& plan) {
    plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
    cfg.base.faults = &plan;
    cfg.base.small_item_threshold = 0;
    cfg.base.watchdog_seconds = 60.0;
    cfg.pool_size = 1;
    cfg.max_batch = 1;
  };
  const auto park_then = [](service::SortService& svc,
                            const std::function<void()>& behind) {
    auto park = svc.submit(request_keys(std::size_t{1} << 16, 3));
    behind();
    park.get();
  };
  const auto settle = [](std::future<service::SortResult>& f) {
    try {
      f.get();
    } catch (const bsort::Error&) {
    }
  };
  struct Scenario {
    const char* name;
    std::function<void(service::ServiceConfig&, fault::FaultPlan&)> configure;
    std::function<void(service::SortService&)> drive;
    const char* must_see;  ///< an event the scenario exists to produce
  };
  const Scenario scenarios[] = {
      {"plain", [](auto&, auto&) {},
       [](service::SortService& svc) {
         for (std::uint64_t i = 0; i < 3; ++i) {
           svc.submit(request_keys(300 + i, i)).get();
         }
       },
       "completed"},
      {"sharded",
       [](service::ServiceConfig& cfg, auto&) {
         cfg.shard_threshold = 2048;
         cfg.shards_per_request = 2;
       },
       [](service::SortService& svc) {
         svc.submit(request_keys(4096, 5)).get();
         svc.submit(request_keys(128, 6)).get();
       },
       "dispatched"},
      {"empty", [](auto&, auto&) {},
       [](service::SortService& svc) {
         svc.submit({}).get();
         svc.submit({}, {0, service::Priority::kLow}).get();
       },
       "completed"},
      {"queue-full",
       [](service::ServiceConfig& cfg, auto&) {
         cfg.pool_size = 1;
         cfg.max_batch = 1;
         cfg.queue_limit = 2;
       },
       [&](service::SortService& svc) {
         std::vector<std::future<service::SortResult>> accepted;
         park_then(svc, [&] {
           for (int i = 0; i < 6; ++i) {
             try {
               accepted.push_back(svc.submit(request_keys(64, 40 + i)));
             } catch (const service::QueueFull&) {
             }
           }
         });
         for (auto& f : accepted) f.get();
       },
       "queue-full"},
      {"deadline-miss",
       [](service::ServiceConfig& cfg, auto&) { cfg.pool_size = 1; },
       [&](service::SortService& svc) {
         std::future<service::SortResult> doomed;
         park_then(svc, [&] {
           doomed = svc.submit(request_keys(128, 6), {/*deadline_s=*/1e-9});
         });
         settle(doomed);
       },
       "deadline-miss"},
      {"shed", [](service::ServiceConfig& cfg, auto&) { cfg.pool_size = 1; },
       [&](service::SortService& svc) {
         const double e_s =
             svc.submit(request_keys(std::size_t{1} << 17, 1)).get().run_us /
             1e6;
         for (const double mult : {0.2, 0.35, 0.5}) {
           auto f = svc.submit(request_keys(64, 7), {mult * e_s});
           settle(f);
         }
       },
       "shed"},
      {"cancelled sibling",
       [&](service::ServiceConfig& cfg, fault::FaultPlan& plan) {
         crash_always(cfg, plan);
         cfg.shard_threshold = 1024;
         cfg.shards_per_request = 4;
         cfg.retry.max_retries = 0;
       },
       [&](service::SortService& svc) {
         auto f = svc.submit(request_keys(4096, 11));
         settle(f);
       },
       "cancelled"},
      {"retry",
       [&](service::ServiceConfig& cfg, fault::FaultPlan& plan) {
         crash_always(cfg, plan);
         cfg.retry.max_retries = 1;
         cfg.retry.base_ms = 1;
         cfg.retry.max_ms = 1;
         cfg.quarantine_after = 10;
       },
       [&](service::SortService& svc) {
         auto f = svc.submit(request_keys(2048, 17));
         settle(f);
       },
       "retry-scheduled"},
      {"quarantine",
       [&](service::ServiceConfig& cfg, fault::FaultPlan& plan) {
         crash_always(cfg, plan);
         cfg.retry.max_retries = 1;
         cfg.retry.base_ms = 1;
         cfg.retry.max_ms = 1;
         cfg.quarantine_after = 2;
       },
       [&](service::SortService& svc) {
         auto f = svc.submit(request_keys(2048, 2));
         settle(f);
       },
       "replaced"},
      {"shutdown(kAbort)",
       [](service::ServiceConfig& cfg, auto&) { cfg.pool_size = 1; },
       [](service::SortService& svc) {
         auto park = svc.submit(request_keys(std::size_t{1} << 18, 5));
         while (svc.stats().queue_depth != 0) std::this_thread::yield();
         std::vector<std::future<service::SortResult>> queued;
         for (std::uint64_t i = 0; i < 4; ++i) {
           queued.push_back(svc.submit(request_keys(128, i)));
         }
         svc.shutdown(service::ShutdownPolicy::kAbort);
         park.get();
         for (auto& f : queued) EXPECT_THROW(f.get(), service::ServiceStopped);
       },
       "failed"},
  };

  const auto run = [&](const Scenario& sc, std::size_t capacity) {
    fault::FaultPlan plan;  // outlives the service
    auto cfg = small_service();
    cfg.flight_capacity = capacity;
    sc.configure(cfg, plan);
    service::SortService svc(cfg);
    sc.drive(svc);
    svc.shutdown();
    std::map<std::string, std::uint64_t> n;
    std::uint64_t sharded = 0;
    for (const auto& r : flight_lines(svc)) {
      ++n[r.event];
      if (r.event == "enqueued" && r.a > 1) ++sharded;
    }
    return std::make_tuple(svc.stats(), n, sharded);
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    const auto [s, n, sharded] = run(sc, 4096);
    ASSERT_EQ(s.flight_dropped, 0u);
    EXPECT_GT(n.count(sc.must_see), 0u);
    for (const Count& c : kCounts) {
      EXPECT_EQ(s.*c.field, n.count(c.event) ? n.at(c.event) : 0u) << c.event;
    }
    EXPECT_EQ(s.sharded, sharded);
  }

  // A ring that keeps nothing still counts everything: the retry
  // scenario is deterministic, so its counters must match the records
  // of the same scenario run with a ring.
  const auto [kept, n, sharded] = run(scenarios[7], 4096);
  const auto [none, n0, sharded0] = run(scenarios[7], 0);
  EXPECT_TRUE(n0.empty());
  EXPECT_EQ(none.flight_recorded, 0u);
  EXPECT_EQ(none.flight_dropped, kept.flight_recorded);
  for (const Count& c : kCounts) {
    EXPECT_EQ(none.*c.field, kept.*c.field) << c.event;
    EXPECT_EQ(none.*c.field, n.count(c.event) ? n.at(c.event) : 0u) << c.event;
  }
}

/// Ranks (`tid`s) of the pool machine `pid` that recorded an exchange.
std::set<int> ranks_with_exchanges(const std::string& trace, int pid) {
  const std::string key = "{\"name\":\"exchange\",";
  const std::string track = "\"pid\":" + std::to_string(pid) + ",\"tid\":";
  std::set<int> ranks;
  for (auto at = trace.find(key); at != std::string::npos; at = trace.find(key, at + 1)) {
    const auto t = trace.find(track, at);
    if (t != std::string::npos && t < trace.find('}', at)) {
      ranks.insert(std::stoi(trace.substr(t + track.size())));
    }
  }
  return ranks;
}

TEST(SortService, HealthCheckExchangesOnEveryVpUnderLocalPlacement) {
  // The health run certifies a machine that just failed a batch, so it
  // must drive its VPs through exchanges and barriers: under the
  // service's small-item threshold its P*16 keys would otherwise sort
  // whole on one VP (or on the dispatcher's own thread).
  fault::FaultPlan plan;  // declared before the service: outlives every run
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  auto cfg = small_service();
  cfg.pool_size = 1;
  cfg.base.small_item_threshold = 2048;
  cfg.base.faults = &plan;
  cfg.base.profile_spans = 4096;
  cfg.retry.max_retries = 0;
  cfg.quarantine_after = 10;  // keep the machine whose health run is inspected
  service::SortService svc(cfg);
  // Above the threshold, so the request is scattered and the crash fires.
  EXPECT_THROW(svc.submit(request_keys(4096, 12)).get(), bsort::ExchangeError);
  svc.shutdown();
  EXPECT_EQ(svc.stats().health_checks, 1u);
  EXPECT_EQ(svc.stats().quarantined, 0u);

  // The health run is the machine's last run: its track is pid 1.
  std::ostringstream os;
  svc.export_perfetto(os);
  EXPECT_EQ(ranks_with_exchanges(os.str(), 1), (std::set<int>{0, 1, 2, 3}));
}

TEST(SortService, ExportPerfettoAfterShutdownEmitsServiceTimeline) {
  auto cfg = small_service();
  cfg.base.profile_spans = 2048;  // machine tracks ride along
  service::SortService svc(cfg);
  const auto res = svc.submit(request_keys(600, 11)).get();
  svc.shutdown();

  std::ostringstream os;
  svc.export_perfetto(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("bsort-service"), std::string::npos);
  EXPECT_NE(trace.find("\"queue\""), std::string::npos);
  EXPECT_NE(trace.find("pool slot 0"), std::string::npos);
  // The request's flow arrows carry its hex id.
  EXPECT_NE(trace.find(bsort::util::hex_id(res.trace_id)),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_EQ(flow_ids(trace, "f"), flow_ids(trace, "s"));
}

}  // namespace
