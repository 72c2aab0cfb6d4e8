// Unit tests for the fault subsystem and the hardened Machine:
// structured errors, exchange validation, the Proc::timed contract,
// the barrier watchdog, integrity checking, fault injection, and the
// api self-check.  The broad randomized coverage lives in
// test_chaos.cpp (stress binary); these are the tight, deterministic
// cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "api/parallel_sort.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"
#include "trace/events.hpp"
#include "util/random.hpp"

namespace {

using bsort::BarrierTimeout;
using bsort::ConfigError;
using bsort::ExchangeError;
using bsort::IntegrityError;
namespace api = bsort::api;
namespace fault = bsort::fault;
namespace simd = bsort::simd;

simd::Machine make_machine(int nprocs) {
  return simd::Machine(nprocs, bsort::loggp::meiko_cs2(), simd::MessageMode::kLong);
}

/// One ring exchange: each VP sends `len` salted words to rank+1 and
/// receives from rank-1; returns the received words through `got`.
void ring_once(simd::Proc& p, std::size_t len, std::vector<std::uint32_t>* got = nullptr) {
  const auto P = static_cast<std::uint64_t>(p.nprocs());
  const auto r = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t to[1] = {(r + 1) % P};
  const std::uint64_t from[1] = {(r + P - 1) % P};
  const std::size_t sizes[1] = {len};
  p.open_exchange(to, sizes, from);
  auto slot = p.send_slot(0);
  for (std::size_t j = 0; j < len; ++j) {
    slot[j] = static_cast<std::uint32_t>(r * 1000 + j);
  }
  p.commit_exchange();
  const auto v = p.recv_view(0);
  if (got != nullptr) got->assign(v.begin(), v.end());
}

/// The machine must stay fully usable after any failed run.
void expect_reusable(simd::Machine& m) {
  std::vector<std::vector<std::uint32_t>> got(static_cast<std::size_t>(m.nprocs()));
  m.run([&](simd::Proc& p) {
    ring_once(p, 4, &got[static_cast<std::size_t>(p.rank())]);
  });
  for (int r = 0; r < m.nprocs(); ++r) {
    const auto src = static_cast<std::uint32_t>((r + m.nprocs() - 1) % m.nprocs());
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), 4u);
    EXPECT_EQ(got[static_cast<std::size_t>(r)][0], src * 1000);
  }
}

// ---- structured error hierarchy -------------------------------------

TEST(FaultError, ContextIsEmbeddedInWhatAndAccessible) {
  const bsort::Error e("boom", {3, 17, 2});
  EXPECT_EQ(e.rank(), 3);
  EXPECT_EQ(e.exchange_ordinal(), 17);
  EXPECT_EQ(e.context().remap, 2);
  const std::string what = e.what();
  EXPECT_NE(what.find("boom"), std::string::npos);
  EXPECT_NE(what.find("vp 3"), std::string::npos);
  EXPECT_NE(what.find("exchange 17"), std::string::npos);
  EXPECT_NE(what.find("remap 2"), std::string::npos);
}

TEST(FaultError, ContextlessErrorHasPlainWhat) {
  const bsort::Error e("plain failure");
  EXPECT_STREQ(e.what(), "plain failure");
  EXPECT_EQ(e.rank(), -1);
}

TEST(FaultError, SubtypesDeriveFromErrorAndRuntimeError) {
  const ExchangeError xe("x", {1, 2, -1}, 5, 0);
  EXPECT_EQ(xe.peer(), 5);
  EXPECT_EQ(xe.slot(), 0);
  const IntegrityError ie("i", {0, 0, -1}, 3, 1);
  EXPECT_EQ(ie.sender(), 3);
  const BarrierTimeout bt(0.5, {{0, "barrier", 7, 123.0}});
  EXPECT_DOUBLE_EQ(bt.deadline_seconds(), 0.5);
  ASSERT_EQ(bt.states().size(), 1u);
  EXPECT_STREQ(bt.states()[0].where, "barrier");
  const std::string what = bt.what();
  EXPECT_NE(what.find("watchdog"), std::string::npos);
  EXPECT_NE(what.find("7 exchanges"), std::string::npos);
  // The whole hierarchy stays catchable as std::runtime_error.
  EXPECT_NE(dynamic_cast<const std::runtime_error*>(static_cast<const bsort::Error*>(&xe)),
            nullptr);
}

// ---- open_exchange validation ---------------------------------------

TEST(ExchangeValidation, LengthMismatchThrows) {
  auto m = make_machine(2);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const std::uint64_t peers[1] = {static_cast<std::uint64_t>(1 - p.rank())};
    const std::size_t sizes[2] = {1, 1};  // one peer, two sizes
    p.open_exchange(peers, sizes, peers);
  }),
               ExchangeError);
  expect_reusable(m);
}

TEST(ExchangeValidation, OutOfRangePeerThrowsWithPeerContext) {
  auto m = make_machine(2);
  try {
    m.run([](simd::Proc& p) {
      const std::uint64_t peers[1] = {99};
      const std::size_t sizes[1] = {1};
      p.open_exchange(peers, sizes, peers);
    });
    FAIL() << "expected ExchangeError";
  } catch (const ExchangeError& e) {
    EXPECT_EQ(e.peer(), 99);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  expect_reusable(m);
}

TEST(ExchangeValidation, DuplicateSendPeerThrows) {
  auto m = make_machine(4);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const auto other = static_cast<std::uint64_t>((p.rank() + 1) % p.nprocs());
    const std::uint64_t peers[2] = {other, other};
    const std::size_t sizes[2] = {1, 1};
    const std::uint64_t recv[1] = {static_cast<std::uint64_t>(p.rank())};
    p.open_exchange(peers, sizes, recv);
  }),
               ExchangeError);
  expect_reusable(m);
}

TEST(ExchangeValidation, DuplicateRecvPeerThrows) {
  auto m = make_machine(4);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const auto other = static_cast<std::uint64_t>((p.rank() + 1) % p.nprocs());
    const std::uint64_t send[1] = {other};
    const std::size_t sizes[1] = {1};
    const std::uint64_t recv[2] = {other, other};
    p.open_exchange(send, sizes, recv);
  }),
               ExchangeError);
  expect_reusable(m);
}

TEST(ExchangeValidation, SelfPeerAllowedOncePerList) {
  auto m = make_machine(2);
  // One self entry in each list is legal (the kept portion)...
  std::vector<std::uint32_t> kept(static_cast<std::size_t>(m.nprocs()));
  m.run([&](simd::Proc& p) {
    const auto self = static_cast<std::uint64_t>(p.rank());
    const std::uint64_t peers[1] = {self};
    const std::size_t sizes[1] = {1};
    p.open_exchange(peers, sizes, peers);
    p.send_slot(0)[0] = static_cast<std::uint32_t>(p.rank()) + 7;
    p.commit_exchange();
    kept[static_cast<std::size_t>(p.rank())] = p.recv_view(0)[0];
  });
  EXPECT_EQ(kept[0], 7u);
  EXPECT_EQ(kept[1], 8u);
  // ...but twice is a duplicate like any other.
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const auto self = static_cast<std::uint64_t>(p.rank());
    const std::uint64_t peers[2] = {self, self};
    const std::size_t sizes[2] = {1, 1};
    p.open_exchange(peers, sizes, peers);
  }),
               ExchangeError);
  expect_reusable(m);
}

TEST(ExchangeValidation, ProtocolOrderViolationsThrow) {
  auto m = make_machine(2);
  // commit without open
  EXPECT_THROW(m.run([](simd::Proc& p) { p.commit_exchange(); }), ExchangeError);
  // send_slot without open
  EXPECT_THROW(m.run([](simd::Proc& p) { (void)p.send_slot(0); }), ExchangeError);
  // open while already open
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const std::uint64_t peers[1] = {static_cast<std::uint64_t>(1 - p.rank())};
    const std::size_t sizes[1] = {1};
    p.open_exchange(peers, sizes, peers);
    p.open_exchange(peers, sizes, peers);
  }),
               ExchangeError);
  // slot index out of range
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const std::uint64_t peers[1] = {static_cast<std::uint64_t>(1 - p.rank())};
    const std::size_t sizes[1] = {1};
    p.open_exchange(peers, sizes, peers);
    (void)p.send_slot(3);
  }),
               ExchangeError);
  // recv index out of range
  EXPECT_THROW(m.run([](simd::Proc& p) {
    ring_once(p, 2);
    (void)p.recv_view(1);
  }),
               ExchangeError);
  expect_reusable(m);
}

// ---- Proc::timed contract -------------------------------------------

TEST(TimedContract, BarrierInsideTimedThrowsConfigError) {
  auto m = make_machine(2);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    p.timed(simd::Phase::kCompute, [&] { p.barrier(); });
  }),
               ConfigError);
  expect_reusable(m);
}

TEST(TimedContract, ExchangeCallsInsideTimedThrowConfigError) {
  auto m = make_machine(2);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    p.timed(simd::Phase::kPack, [&] {
      const std::uint64_t peers[1] = {static_cast<std::uint64_t>(1 - p.rank())};
      const std::size_t sizes[1] = {1};
      p.open_exchange(peers, sizes, peers);
    });
  }),
               ConfigError);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    const std::uint64_t peers[1] = {static_cast<std::uint64_t>(1 - p.rank())};
    const std::size_t sizes[1] = {1};
    p.open_exchange(peers, sizes, peers);
    p.timed(simd::Phase::kPack, [&] { p.commit_exchange(); });
  }),
               ConfigError);
  expect_reusable(m);
}

TEST(TimedContract, NestedTimedThrowsConfigError) {
  auto m = make_machine(2);
  EXPECT_THROW(m.run([](simd::Proc& p) {
    p.timed(simd::Phase::kCompute,
            [&] { p.timed(simd::Phase::kCompute, [] {}); });
  }),
               ConfigError);
  expect_reusable(m);
}

TEST(TimedContract, RecvViewInsideTimedIsAllowed) {
  // remap_exec unpacks inside timed(kUnpack); that must keep working.
  auto m = make_machine(2);
  std::array<std::uint32_t, 2> got{};
  m.run([&](simd::Proc& p) {
    ring_once(p, 2);
    p.timed(simd::Phase::kUnpack, [&] {
      got[static_cast<std::size_t>(p.rank())] = p.recv_view(0)[1];
    });
  });
  EXPECT_EQ(got[0], 1001u);
  EXPECT_EQ(got[1], 1u);
}

// ---- barrier watchdog -----------------------------------------------

TEST(Watchdog, NegativeDeadlineThrows) {
  auto m = make_machine(2);
  EXPECT_THROW(m.set_watchdog(-1.0), ConfigError);
}

TEST(Watchdog, ExpiryDiagnosesEveryVpAndMachineStaysUsable) {
  auto m = make_machine(2);
  m.set_watchdog(0.05);
  try {
    m.run([](simd::Proc& p) {
      if (p.rank() == 0) {
        // Real (host) stall in user code, long past the deadline; rank 1
        // parks in the barrier meanwhile.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
      p.barrier();
    });
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    EXPECT_DOUBLE_EQ(e.deadline_seconds(), 0.05);
    ASSERT_EQ(e.states().size(), 2u);
    EXPECT_EQ(e.states()[0].rank, 0);
    EXPECT_EQ(e.states()[1].rank, 1);
    // The non-stalling VP published its barrier entry before the expiry.
    EXPECT_STREQ(e.states()[1].where, "barrier");
    EXPECT_NE(std::string(e.what()).find("vp 1: barrier"), std::string::npos);
  }
  m.set_watchdog(0);
  expect_reusable(m);
}

TEST(Watchdog, FastRunUnderDeadlinePasses) {
  auto m = make_machine(4);
  m.set_watchdog(30.0);
  expect_reusable(m);
  EXPECT_DOUBLE_EQ(m.watchdog_seconds(), 30.0);
}

// ---- fault plans -----------------------------------------------------

TEST(FaultPlan, RandomIsDeterministicAndInRange) {
  const std::array<fault::FaultKind, 5> kinds = {
      fault::FaultKind::kStraggler, fault::FaultKind::kCrash,
      fault::FaultKind::kCorrupt, fault::FaultKind::kTruncate,
      fault::FaultKind::kOversize};
  const auto a = fault::FaultPlan::random(42, 8, 10, kinds, 5);
  const auto b = fault::FaultPlan::random(42, 8, 10, kinds, 5);
  ASSERT_EQ(a.rules.size(), 5u);
  ASSERT_EQ(b.rules.size(), 5u);
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].kind, b.rules[i].kind);
    EXPECT_EQ(a.rules[i].rank, b.rules[i].rank);
    EXPECT_EQ(a.rules[i].exchange, b.rules[i].exchange);
    EXPECT_EQ(a.rules[i].bit, b.rules[i].bit);
    EXPECT_EQ(a.rules[i].delta, b.rules[i].delta);
    EXPECT_GE(a.rules[i].rank, 0);
    EXPECT_LT(a.rules[i].rank, 8);
    EXPECT_LE(a.rules[i].exchange, 10u);
    EXPECT_LE(a.rules[i].real_ms, fault::kMaxRealStallMs);
    EXPECT_GE(a.rules[i].delta, 1u);
    EXPECT_LE(a.rules[i].delta, fault::kMaxSizeDelta);
  }
  const auto c = fault::FaultPlan::random(43, 8, 10, kinds, 5);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.rules.size(); ++i) {
    any_diff = any_diff || c.rules[i].bit != a.rules[i].bit;
  }
  EXPECT_TRUE(any_diff);
  const std::string desc = fault::describe(a);
  EXPECT_NE(desc.find("\"type\":\"fault_plan\""), std::string::npos);
  EXPECT_NE(desc.find("\"seed\":42"), std::string::npos);
}

TEST(FaultPlan, ArmRejectsOutOfRangeVictim) {
  auto m = make_machine(2);
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCrash, 7, 0, 0, 0, 0, 1});
  EXPECT_THROW(m.arm_faults(plan), ConfigError);
  EXPECT_FALSE(m.faults_armed());
}

TEST(FaultInjection, CrashBecomesStructuredErrorAndMachineRecovers) {
  auto m = make_machine(4);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({fault::FaultKind::kCrash, 1, 0, 0, 0, 0, 1});
  m.arm_faults(plan);
  try {
    m.run([](simd::Proc& p) { ring_once(p, 4); });
    FAIL() << "expected ExchangeError";
  } catch (const ExchangeError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.exchange_ordinal(), 0);
    EXPECT_NE(std::string(e.what()).find("injected fault: crash"), std::string::npos);
  }
  EXPECT_EQ(m.faults_fired(), 1u);
  m.disarm_faults();
  expect_reusable(m);
}

TEST(FaultInjection, StragglerChargesSimulatedTimeAndMarksTrace) {
  auto m = make_machine(2);
  m.enable_profiling(16);
  fault::FaultPlan plan;
  plan.rules.push_back(
      {fault::FaultKind::kStraggler, 0, 0, /*delay_us=*/5000.0, /*real_ms=*/1.0, 0, 1});
  m.arm_faults(plan);
  const auto rep = m.run([](simd::Proc& p) { ring_once(p, 4); });
  EXPECT_EQ(m.faults_fired(), 1u);
  // The commit barrier propagates the victim's skew to every clock.
  EXPECT_GE(rep.makespan_us, 5000.0);
  const auto victim = bsort::testing::exchange_records(m.vp_spans(0));
  const auto bystander = bsort::testing::exchange_records(m.vp_spans(1));
  ASSERT_GE(victim.size(), 1u);
  ASSERT_GE(bystander.size(), 1u);
  EXPECT_EQ(victim[0].fault_mask & bsort::trace::kFaultStraggler,
            bsort::trace::kFaultStraggler);
  EXPECT_EQ(bystander[0].fault_mask, 0u);
  m.disarm_faults();
}

TEST(FaultInjection, RuleWaitsForItsExchangeOrdinal) {
  auto m = make_machine(2);
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCrash, 0, 2, 0, 0, 0, 1});
  m.arm_faults(plan);
  try {
    m.run([](simd::Proc& p) {
      for (int i = 0; i < 4; ++i) ring_once(p, 2);
    });
    FAIL() << "expected ExchangeError";
  } catch (const ExchangeError& e) {
    EXPECT_EQ(e.exchange_ordinal(), 2);
  }
  m.disarm_faults();
  expect_reusable(m);
}

// ---- exchange integrity ---------------------------------------------

TEST(Integrity, CorruptionIsCaughtWithSenderAndSlot) {
  auto m = make_machine(4);
  m.enable_integrity();
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCorrupt, 1, 0, 0, 0, /*bit=*/37, 1});
  m.arm_faults(plan);
  try {
    m.run([](simd::Proc& p) { ring_once(p, 8); });
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.sender(), 1);   // the victim's payload...
    EXPECT_EQ(e.rank(), 2);     // ...fails verification at its receiver
    EXPECT_EQ(e.slot(), 0);
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
  }
  EXPECT_EQ(m.faults_fired(), 1u);
  m.disarm_faults();
  m.disable_integrity();
  expect_reusable(m);
}

TEST(Integrity, TruncateAndOversizeAreCaughtAsSizeMismatch) {
  for (const auto kind : {fault::FaultKind::kTruncate, fault::FaultKind::kOversize}) {
    auto m = make_machine(4);
    m.enable_integrity();
    fault::FaultPlan plan;
    plan.rules.push_back({kind, 2, 0, 0, 0, 0, /*delta=*/3});
    m.arm_faults(plan);
    try {
      m.run([](simd::Proc& p) { ring_once(p, 8); });
      FAIL() << "expected IntegrityError for " << fault::fault_kind_name(kind);
    } catch (const IntegrityError& e) {
      EXPECT_EQ(e.sender(), 2);
      EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos);
    }
    m.disarm_faults();
    m.disable_integrity();
    expect_reusable(m);
  }
}

TEST(Integrity, OffMeansCorruptionPassesSilently) {
  // The control experiment: without enable_integrity() the same plan
  // delivers damaged bytes and nothing notices at the machine layer.
  auto m = make_machine(2);
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCorrupt, 0, 0, 0, 0, /*bit=*/5, 1});
  m.arm_faults(plan);
  std::vector<std::uint32_t> got;
  m.run([&](simd::Proc& p) {
    std::vector<std::uint32_t> mine;
    ring_once(p, 4, &mine);
    if (p.rank() == 1) got = mine;
  });
  EXPECT_EQ(m.faults_fired(), 1u);
  // Exactly bit 5 of word 0 differs from what rank 0 packed.
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], 0u ^ (1u << 5));
  m.disarm_faults();
}

TEST(Integrity, CleanRunWithIntegrityOnPasses) {
  auto m = make_machine(4);
  m.enable_integrity();
  expect_reusable(m);
  EXPECT_TRUE(m.integrity());
}

// ---- api hardening ---------------------------------------------------

TEST(ApiHardening, InvalidConfigThrowsConfigErrorNotAssert) {
  std::vector<std::uint32_t> keys(100, 1);  // not a power of two
  api::Config cfg;
  cfg.nprocs = 4;
  EXPECT_THROW(api::parallel_sort(keys, cfg), ConfigError);
}

TEST(ApiHardening, MachineShapeMismatchThrows) {
  auto m = make_machine(2);
  std::vector<std::uint32_t> keys(128, 1);
  api::Config cfg;
  cfg.nprocs = 4;
  EXPECT_THROW(api::parallel_sort_on(m, keys, cfg), ConfigError);
}

TEST(ApiHardening, SelfCheckPassesOnCleanRun) {
  std::vector<std::uint32_t> keys = bsort::util::generate_keys(256, bsort::util::KeyDistribution::kUniform31, 99);
  api::Config cfg;
  cfg.nprocs = 4;
  cfg.self_check = true;
  cfg.integrity = true;
  cfg.watchdog_seconds = 60;
  const auto out = api::parallel_sort(keys, cfg);
  EXPECT_TRUE(out.sorted);
  EXPECT_EQ(out.faults_fired, 0u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ApiHardening, SelfCheckCatchesCorruptionWhenIntegrityIsOff) {
  std::vector<std::uint32_t> keys = bsort::util::generate_keys(256, bsort::util::KeyDistribution::kUniform31, 7);
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCorrupt, 1, 0, 0, 0, /*bit=*/613, 1});
  api::Config cfg;
  cfg.nprocs = 4;
  cfg.self_check = true;
  cfg.integrity = false;  // the last line of defense must catch it alone
  cfg.faults = &plan;
  EXPECT_THROW((void)api::parallel_sort(keys, cfg), IntegrityError);
}

TEST(ApiHardening, DirectSortShapeErrorsAreConfigErrors) {
  // Sorts called below the api facade report bad shapes structurally too.
  auto m = make_machine(4);
  std::vector<std::uint32_t> keys(4 * 3, 1);  // 3 keys/proc: not a power of two
  EXPECT_THROW(m.run([&](simd::Proc& p) {
    std::span<std::uint32_t> slice(keys.data() + p.rank() * 3, 3);
    bsort::bitonic::blocked_merge_sort(p, slice);
  }),
               ConfigError);
  expect_reusable(m);
}

// ---- post-exception machine reuse across every algorithm -------------

TEST(MachineReuse, CleanSortSucceedsAfterInjectedCrashForEveryAlgorithm) {
  constexpr int kProcs = 4;
  constexpr std::size_t kTotal = 128;  // 32 keys/proc: valid for all algorithms
  const std::array<api::Algorithm, 7> algorithms = {
      api::Algorithm::kSmartBitonic, api::Algorithm::kCyclicBlockedBitonic,
      api::Algorithm::kBlockedMergeBitonic, api::Algorithm::kNaiveBitonic,
      api::Algorithm::kParallelRadix, api::Algorithm::kSampleSort,
      api::Algorithm::kColumnSort};

  auto m = make_machine(kProcs);
  fault::FaultPlan crash;
  crash.rules.push_back({fault::FaultKind::kCrash, 1, 0, 0, 0, 0, 1});

  for (const auto algorithm : algorithms) {
    api::Config cfg;
    cfg.nprocs = kProcs;
    cfg.algorithm = algorithm;
    ASSERT_TRUE(api::config_valid(cfg, kTotal));

    auto keys = bsort::util::generate_keys(kTotal, bsort::util::KeyDistribution::kUniform31, 1234);
    cfg.faults = &crash;
    EXPECT_THROW((void)api::parallel_sort_on(m, keys, cfg), bsort::Error)
        << api::algorithm_name(algorithm);
    EXPECT_FALSE(m.faults_armed());  // parallel_sort_on disarms on exit

    // The same machine, fresh keys, no faults: must sort cleanly.
    keys = bsort::util::generate_keys(kTotal, bsort::util::KeyDistribution::kUniform31, 5678);
    cfg.faults = nullptr;
    cfg.self_check = true;
    const auto out = api::parallel_sort_on(m, keys, cfg);
    EXPECT_TRUE(out.sorted) << api::algorithm_name(algorithm);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
        << api::algorithm_name(algorithm);
  }
}

// ---- failure taxonomy + retry policy (fault/retry.hpp) --------------

std::exception_ptr as_ptr(auto&& e) {
  return std::make_exception_ptr(std::forward<decltype(e)>(e));
}

TEST(RetryTaxonomy, ClassifiesTransientVsDeterministicFailures) {
  using fault::FailureClass;
  // Transient causes: worth one more superstep.
  EXPECT_EQ(fault::classify_failure(
                as_ptr(BarrierTimeout(1.0, {}))),
            FailureClass::kRetryable);
  EXPECT_EQ(fault::classify_failure(as_ptr(IntegrityError("bit flip"))),
            FailureClass::kRetryable);
  EXPECT_EQ(fault::classify_failure(as_ptr(ExchangeError("crash"))),
            FailureClass::kRetryable);
  EXPECT_TRUE(fault::is_retryable(as_ptr(ExchangeError("crash"))));

  // Deterministic causes: the same attempt fails the same way.
  EXPECT_EQ(fault::classify_failure(as_ptr(ConfigError("bad shape"))),
            FailureClass::kTerminal);
  // Unknown Error subtypes and non-bsort exceptions don't earn retries.
  EXPECT_EQ(fault::classify_failure(as_ptr(bsort::Error("unknown"))),
            FailureClass::kTerminal);
  EXPECT_EQ(fault::classify_failure(as_ptr(std::runtime_error("plain"))),
            FailureClass::kTerminal);
  EXPECT_EQ(fault::classify_failure(nullptr), FailureClass::kTerminal);
  EXPECT_FALSE(fault::is_retryable(nullptr));

  EXPECT_STREQ(fault::failure_class_name(FailureClass::kRetryable),
               "retryable");
  EXPECT_STREQ(fault::failure_class_name(FailureClass::kTerminal), "terminal");
}

TEST(RetryTaxonomy, BackoffIsCappedExponentialWithDeterministicJitter) {
  fault::RetryPolicy p;
  p.base_ms = 2.0;
  p.max_ms = 16.0;
  p.jitter = 0.0;
  // No jitter: exact capped doubling.
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 1, 7), 2.0);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 2, 7), 4.0);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 3, 7), 8.0);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 4, 7), 16.0);
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 5, 7), 16.0);   // capped
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 60, 7), 16.0);  // no overflow
  EXPECT_DOUBLE_EQ(fault::backoff_ms(p, 0, 7), 2.0);    // clamped to 1

  // Jitter shortens (never lengthens), is deterministic in the seed,
  // and distinct seeds decorrelate.
  p.jitter = 0.5;
  const double a = fault::backoff_ms(p, 3, 42);
  EXPECT_DOUBLE_EQ(a, fault::backoff_ms(p, 3, 42));
  EXPECT_GT(a, 8.0 * 0.5 - 1e-12);
  EXPECT_LE(a, 8.0);
  bool differs = false;
  for (std::uint64_t s = 0; s < 8 && !differs; ++s) {
    differs = fault::backoff_ms(p, 3, s) != a;
  }
  EXPECT_TRUE(differs) << "jitter must vary across seeds";
}

}  // namespace
