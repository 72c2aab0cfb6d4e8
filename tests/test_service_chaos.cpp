// Service-level chaos: FaultPlans injected into the POOL machines while
// real concurrent traffic flows through SortService, proving the
// self-healing contract of DESIGN.md §10 end to end:
//
//   * a transient (retryable) crash is absorbed by the retry layer —
//     the caller's future succeeds and reports the re-runs it cost;
//   * a machine that keeps failing is quarantined and replaced, and the
//     replacement serves cleanly;
//   * under a full crash storm EVERY future still resolves (success or
//     structured error — never a hang, never a wedged dispatcher), and
//     once the storm lifts every slot serves again, cleanly, as fast as
//     a never-crashed twin service.
//
// FaultPlan mutation protocol: the service's batches read the shared
// plan only while dispatching, so tests mutate `plan.rules` exclusively
// at provable idle points (all futures resolved + queue drained, or
// inside a retry-backoff window much wider than the mutation) and then
// publish the write through the service mutex with a stats() call
// before any dispatcher can re-arm the plan.  That keeps the suite
// clean under TSan, which gates it in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "service/sort_service.hpp"
#include "util/random.hpp"

namespace {

namespace api = bsort::api;
namespace fault = bsort::fault;
namespace service = bsort::service;

using Clock = std::chrono::steady_clock;

std::vector<std::uint32_t> chaos_keys(std::size_t n, std::uint64_t seed) {
  return bsort::util::generate_keys(n, bsort::util::KeyDistribution::kUniform31,
                                    seed);
}

service::ServiceConfig chaos_service(fault::FaultPlan& plan) {
  service::ServiceConfig cfg;
  cfg.base.nprocs = 4;
  cfg.base.algorithm = api::Algorithm::kSmartBitonic;
  // Keep local placement OFF so every batch item runs the full exchange
  // schedule — exchange-targeted fault rules must be able to fire.
  cfg.base.small_item_threshold = 0;
  cfg.base.faults = &plan;
  return cfg;
}

TEST(ServiceChaos, TransientCrashRecoversViaRetry) {
  fault::FaultPlan plan;  // declared before the service: outlives every run
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  auto cfg = chaos_service(plan);
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.retry.max_retries = 3;
  cfg.retry.base_ms = 250;  // a wide idle window for the mutation below
  cfg.retry.max_ms = 250;
  cfg.retry.jitter = 0;
  cfg.quarantine_after = 10;  // health management must not mask the retry
  service::SortService svc(cfg);

  auto keys = chaos_keys(4096, 1);
  auto want = keys;
  std::sort(want.begin(), want.end());
  auto fut = svc.submit(std::move(keys));

  // Wait for the first run to crash and its retry to be enqueued; the
  // dispatcher then sits in a 250 ms backoff wait, during which the
  // fault "heals": clear the plan and publish the write through the
  // service mutex before the retry can re-arm it.
  while (svc.stats().retries < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  plan.rules.clear();
  static_cast<void>(svc.stats());

  const auto res = fut.get();  // the retry must SUCCEED
  EXPECT_EQ(res.keys, want);
  EXPECT_GE(res.retries, 1);

  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.health_checks, 1u) << "a failed batch must health-check";
  EXPECT_EQ(s.quarantined, 0u) << "one transient failure is not quarantine";
}

TEST(ServiceChaos, RepeatOffenderIsQuarantinedAndReplaced) {
  fault::FaultPlan plan;
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  auto cfg = chaos_service(plan);
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.retry.max_retries = 1;
  cfg.retry.base_ms = 5;
  cfg.retry.max_ms = 5;
  cfg.retry.jitter = 0;
  cfg.quarantine_after = 2;  // second consecutive failure pulls the machine
  service::SortService svc(cfg);

  // The plan crashes EVERY run, so the request fails, its one retry
  // fails too, and the single pool machine accumulates two consecutive
  // batch failures: quarantine and replacement, even though the machine
  // itself would pass a health check (the fault lives in the plan).
  auto fut = svc.submit(chaos_keys(2048, 2));
  EXPECT_THROW(fut.get(), bsort::Error);

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (svc.stats().replaced < 1 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto s = svc.stats();
  EXPECT_GE(s.quarantined, 1u);
  EXPECT_GE(s.replaced, 1u);
  EXPECT_GE(s.health_checks, 2u);
  EXPECT_EQ(s.failed, 1u);

  // Queue is drained and the future resolved: the dispatcher is idle.
  // Lift the fault and prove the REPLACEMENT machine serves cleanly.
  plan.rules.clear();
  static_cast<void>(svc.stats());
  auto keys = chaos_keys(1024, 3);
  auto want = keys;
  std::sort(want.begin(), want.end());
  const auto res = svc.submit(std::move(keys)).get();
  EXPECT_EQ(res.keys, want);
  EXPECT_EQ(res.retries, 0);
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(ServiceChaos, RetryExhaustionDeliversTraceIdAndAttempts) {
  fault::FaultPlan plan;  // crashes EVERY run: the retry budget must die
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  auto cfg = chaos_service(plan);
  cfg.pool_size = 1;
  cfg.max_batch = 1;
  cfg.retry.max_retries = 1;
  cfg.retry.base_ms = 1;
  cfg.retry.max_ms = 1;
  cfg.retry.jitter = 0;
  cfg.quarantine_after = 10;
  service::SortService svc(cfg);

  auto fut = svc.submit(chaos_keys(2048, 17));
  try {
    fut.get();
    FAIL() << "expected RetryExhausted";
  } catch (const service::RetryExhausted& e) {
    EXPECT_NE(e.trace_id(), 0u);
    EXPECT_EQ(e.attempts(), 2);  // the first run + the one retry
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
    EXPECT_NE(what.find("0x"), std::string::npos)
        << "what() must embed the hex trace id: " << what;
  }
  EXPECT_GE(svc.stats().retries, 1u);
}

TEST(ServiceChaos, StatsSnapshotsAreConsistentUnderConcurrentLoad) {
  // stats() is hammered from one thread while two others push traffic:
  // every snapshot must be internally consistent (the counters are one
  // snapshot taken under the flight recorder's lock — no torn reads)
  // and counters must be monotone across snapshots.  TSan (which gates this suite in CI) proves the
  // concurrent flight-recorder/metrics writes race-free.
  service::ServiceConfig cfg;
  cfg.base.nprocs = 4;
  cfg.base.algorithm = api::Algorithm::kSmartBitonic;
  cfg.pool_size = 2;
  cfg.max_batch = 4;
  service::SortService svc(cfg);

  constexpr int kPerThread = 20;
  std::atomic<int> running{2};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&svc, &running, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto n = static_cast<std::size_t>(64 + 32 * (i % 5));
        const auto salt = static_cast<std::uint64_t>(t * 1000 + i);
        static_cast<void>(svc.submit(chaos_keys(n, salt)).get());
      }
      running.fetch_sub(1);
    });
  }

  std::uint64_t prev_submitted = 0, prev_completed = 0, prev_events = 0;
  while (running.load() > 0) {
    const auto s = svc.stats();
    // Monotone counters: a torn or stale snapshot would go backwards.
    EXPECT_GE(s.submitted, prev_submitted);
    EXPECT_GE(s.completed, prev_completed);
    EXPECT_GE(s.flight_recorded + s.flight_dropped, prev_events);
    // Internal consistency of one snapshot.
    EXPECT_GE(s.submitted, s.completed + s.failed);
    EXPECT_GE(s.pool_busy, 0);
    EXPECT_LE(s.pool_busy, s.pool_size);
    EXPECT_LE(s.completed, s.submitted);
    prev_submitted = s.submitted;
    prev_completed = s.completed;
    prev_events = s.flight_recorded + s.flight_dropped;
  }
  for (auto& t : submitters) t.join();

  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 2u * kPerThread);
  EXPECT_EQ(s.completed, 2u * kPerThread);
  EXPECT_EQ(s.failed, 0u);
}

TEST(ServiceChaos, CrashStormEveryFutureResolvesAndPoolRecovers) {
  fault::FaultPlan plan;  // starts EMPTY: pre-chaos traffic is clean
  auto cfg = chaos_service(plan);
  cfg.pool_size = 2;
  cfg.max_batch = 4;
  cfg.retry.max_retries = 2;
  cfg.retry.base_ms = 1;
  cfg.retry.max_ms = 4;
  cfg.retry.jitter = 0.5;
  cfg.quarantine_after = 2;
  service::SortService svc(cfg);

  // A twin of the same config whose plan stays EMPTY: it never crashes.
  // Its bursts alternate with the stormed service's, so a host slowdown
  // lands on both sides of a wall-clock pair instead of on one window.
  fault::FaultPlan twin_plan;
  auto twin_cfg = cfg;
  twin_cfg.base.faults = &twin_plan;
  service::SortService twin(twin_cfg);

  // One burst of concurrent mixed traffic; returns wall seconds.  With
  // the plan EMPTY every request must succeed; with the storm armed the
  // only requirement is that every future RESOLVES.
  const auto burst = [](service::SortService& target, int n, std::uint64_t salt,
                        bool expect_success) -> double {
    struct Pending {
      std::vector<std::uint32_t> want;
      std::future<service::SortResult> fut;
    };
    std::vector<Pending> pending;
    pending.reserve(static_cast<std::size_t>(n));
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      auto keys = chaos_keys(512, salt * 1000 + static_cast<std::uint64_t>(i));
      Pending p;
      p.want = keys;
      std::sort(p.want.begin(), p.want.end());
      service::SubmitOptions opt;
      opt.priority = (i % 2 != 0) ? service::Priority::kLow
                                  : service::Priority::kHigh;
      if (i % 3 == 0) opt.deadline_s = 30.0;
      p.fut = target.submit(std::move(keys), opt);
      pending.push_back(std::move(p));
    }
    for (auto& p : pending) {
      try {
        EXPECT_EQ(p.fut.get().keys, p.want);  // resolves or throws — no hang
      } catch (const bsort::Error&) {
        EXPECT_FALSE(expect_success) << "clean traffic must not fail";
      }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Pre-chaos throughput: best (minimum) wall over three 24-request
  // bursts, each followed by a twin burst that warms the twin alike.
  double pre_s = 1e18;
  for (std::uint64_t r = 0; r < 3; ++r) {
    pre_s = std::min(pre_s, burst(svc, 24, 10 + r, /*expect_success=*/true));
    burst(twin, 24, 10 + r, /*expect_success=*/true);
  }

  // Every pre-chaos future resolved and nothing is queued, so both
  // dispatchers are idle: arm the storm and publish.  Replacement
  // machines inherit the SAME shared plan, so the whole pool keeps
  // crashing (and keeps being quarantined) until the storm lifts.
  ASSERT_EQ(svc.stats().queue_depth, 0u);
  plan.rules = {{fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0}};
  static_cast<void>(svc.stats());

  burst(svc, 24, 50, /*expect_success=*/false);  // the storm: all futures resolve

  auto s = svc.stats();
  EXPECT_GE(s.retries, 1u) << "storm failures are retryable and retried";
  EXPECT_GE(s.quarantined, 1u);
  EXPECT_GE(s.replaced, 1u);
  EXPECT_GE(s.failed, 1u);

  // Storm futures all resolved and the queue is drained again: lift the
  // fault, publish, and require the pool to RECOVER.
  ASSERT_EQ(svc.stats().queue_depth, 0u);
  plan.rules.clear();
  const auto lifted = svc.stats();  // also publishes the write
  std::ostringstream lift_dump;
  const std::size_t lift_records = svc.dump_flight(lift_dump);

  // Pool slots with a `dispatched` record after the lift.
  const auto slots_serving = [&svc, lift_records] {
    std::ostringstream os;
    svc.dump_flight(os);
    std::istringstream in(os.str());
    std::set<std::string> slots;
    std::string line;
    std::getline(in, line);  // meta
    for (std::size_t i = 0; std::getline(in, line); ++i) {
      if (i < lift_records || line.find("\"event\":\"dispatched\"") == std::string::npos) {
        continue;
      }
      const auto at = line.find("\"slot\":") + 7;
      slots.insert(line.substr(at, line.find(',', at) - at));
    }
    return slots.size();
  };

  // Recovery in wall time: each post-storm burst is paired with a twin
  // burst (their order alternating), and the best pair's post/twin
  // ratio must be within 10% (stop early once achieved and every slot
  // has served).
  const auto pool = static_cast<std::size_t>(cfg.pool_size);
  double ratio = 1e18;
  double post_s = 0;
  double twin_s = 0;
  for (std::uint64_t r = 0; r < 6 && (ratio > 1 / 0.9 || slots_serving() < pool); ++r) {
    double post = 0;
    double ref = 0;
    if (r % 2 == 0) {
      post = burst(svc, 24, 100 + r, /*expect_success=*/true);
      ref = burst(twin, 24, 100 + r, /*expect_success=*/true);
    } else {
      ref = burst(twin, 24, 100 + r, /*expect_success=*/true);
      post = burst(svc, 24, 100 + r, /*expect_success=*/true);
    }
    if (post / ref < ratio) {
      ratio = post / ref;
      post_s = post;
      twin_s = ref;
    }
  }
  EXPECT_LE(ratio, 1 / 0.9)
      << "post-chaos throughput must be within 10% of a never-crashed twin "
      << "(pre=" << pre_s << "s, best pair post=" << post_s << "s twin=" << twin_s << "s)";

  // Recovery in counts, independent of the host: every slot serves
  // again, and the clean post-storm bursts cost no retry, failure or
  // shed.  (Quarantines are not compared: a dispatcher may still be
  // replacing its machine after the last storm future resolved.)
  EXPECT_EQ(slots_serving(), pool) << "a pool slot never served after the storm";
  const auto end = svc.stats();
  EXPECT_EQ(end.flight_dropped, 0u) << "the dump must hold every post-storm record";
  EXPECT_EQ(end.retries, lifted.retries);
  EXPECT_EQ(end.failed, lifted.failed);
  EXPECT_EQ(end.shed, lifted.shed);
  EXPECT_EQ(end.failed + end.rejected_deadline + end.shed, 24u)
      << "exactly the storm burst fails; clean bursts are untouched";
}

}  // namespace
