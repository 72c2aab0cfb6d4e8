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
#include <future>
#include <sstream>
#include <thread>
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
  for (const double mult : {0.2, 0.35, 0.5}) {
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
}

}  // namespace
