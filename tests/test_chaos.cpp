// Chaos suite: seeded FaultPlan fuzzing across every algorithm and both
// message modes, proving the hardening contract end to end:
//
//   * a faulted run NEVER hangs — it either completes with verified
//     output (self-check) or fails with a structured bsort::Error;
//   * every crash plan that fires surfaces as a structured error;
//   * every payload/size corruption that fires is caught by integrity
//     checking;
//   * a Machine that just survived a faulted run sorts cleanly on the
//     next run (worker threads, arenas and barriers all recover);
//   * fault-free runs with all defenses armed still validate exactly
//     against the loggp::predict() closed forms.
//
// When an expectation fails, the offending plan is appended as one JSON
// line to CHAOS_failed_plan.jsonl in the working directory; CI uploads
// that file as the repro artifact.  Re-running with the same seed
// reproduces the run exactly (plans are platform-independent).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <string>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "loggp/choose.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"
#include "trace/validate.hpp"
#include "util/random.hpp"

namespace {

using bsort::IntegrityError;
namespace api = bsort::api;
namespace fault = bsort::fault;
namespace loggp = bsort::loggp;
namespace simd = bsort::simd;
namespace trace = bsort::trace;

constexpr int kProcs = 4;
constexpr std::size_t kKeysPerProc = 32;  // valid for all seven algorithms
constexpr std::size_t kTotalKeys = kKeysPerProc * kProcs;

const std::array<api::Algorithm, 7>& all_algorithms() {
  static const std::array<api::Algorithm, 7> a = {
      api::Algorithm::kSmartBitonic, api::Algorithm::kCyclicBlockedBitonic,
      api::Algorithm::kBlockedMergeBitonic, api::Algorithm::kNaiveBitonic,
      api::Algorithm::kParallelRadix, api::Algorithm::kSampleSort,
      api::Algorithm::kColumnSort};
  return a;
}

/// Record a failing plan for the CI artifact, and in the test log.
void dump_repro(const fault::FaultPlan& plan, const std::string& where) {
  std::ofstream out("CHAOS_failed_plan.jsonl", std::ios::app);
  out << fault::describe(plan) << '\n';
  ADD_FAILURE() << where << "\nfailing plan (appended to CHAOS_failed_plan.jsonl):\n"
                << fault::describe(plan);
}

std::vector<std::uint32_t> chaos_keys(std::uint64_t seed) {
  return bsort::util::generate_keys(kTotalKeys, bsort::util::KeyDistribution::kUniform31,
                                    seed);
}

/// One faulted run with every defense armed, then one clean run on the
/// SAME machine.  The invariant: the faulted run either throws a
/// structured bsort::Error or completes with self-checked output, and
/// the machine afterwards sorts cleanly no matter what the plan did.
void chaos_round(simd::Machine& machine, api::Algorithm algorithm,
                 const fault::FaultPlan& plan) {
  api::Config cfg;
  cfg.nprocs = kProcs;
  // parallel_sort_on applies config.mode to the pooled machine, so the
  // config must name the mode under test or a kShort machine would be
  // silently flipped back to the kLong default.
  cfg.mode = machine.mode();
  cfg.algorithm = algorithm;
  cfg.integrity = true;
  cfg.self_check = true;
  // Generous real-time ceiling: injected stalls are <= 19ms each, so a
  // healthy run finishes far inside it; a hang converts into a
  // diagnosed BarrierTimeout instead of eating the ctest budget.
  cfg.watchdog_seconds = 30.0;
  cfg.faults = &plan;

  auto keys = chaos_keys(plan.seed ^ 0x9e3779b9u);
  try {
    const auto out = api::parallel_sort_on(machine, keys, cfg);
    // Completed: self_check already proved sortedness + permutation.
    if (!out.sorted) {
      dump_repro(plan, std::string("completed run not sorted: ") +
                           std::string(api::algorithm_name(algorithm)));
    }
  } catch (const bsort::Error&) {
    // Structured failure is an acceptable outcome of a damaging plan.
  } catch (const std::exception& e) {
    dump_repro(plan, std::string("non-structured exception from ") +
                         std::string(api::algorithm_name(algorithm)) + ": " + e.what());
  }

  // The machine must have fully recovered.
  api::Config clean;
  clean.nprocs = kProcs;
  clean.mode = machine.mode();
  clean.algorithm = algorithm;
  clean.self_check = true;
  auto keys2 = chaos_keys(plan.seed + 17);
  try {
    const auto out = api::parallel_sort_on(machine, keys2, clean);
    if (!out.sorted || !std::is_sorted(keys2.begin(), keys2.end())) {
      dump_repro(plan, std::string("clean run after faulted run not sorted: ") +
                           std::string(api::algorithm_name(algorithm)));
    }
  } catch (const std::exception& e) {
    dump_repro(plan, std::string("clean run after faulted run threw: ") + e.what());
  }
}

TEST(Chaos, MixedPlansAcrossAllAlgorithmsAndModes) {
  const std::array<fault::FaultKind, 5> kinds = {
      fault::FaultKind::kStraggler, fault::FaultKind::kCrash,
      fault::FaultKind::kCorrupt, fault::FaultKind::kTruncate,
      fault::FaultKind::kOversize};
  std::uint64_t seed = 1000;
  for (const auto mode : {simd::MessageMode::kLong, simd::MessageMode::kShort}) {
    simd::Machine machine(kProcs, loggp::meiko_cs2(), mode);
    for (const auto algorithm : all_algorithms()) {
      for (int round = 0; round < 3; ++round) {
        const auto plan =
            fault::FaultPlan::random(seed++, kProcs, /*max_exchange=*/8, kinds,
                                     /*nrules=*/2);
        chaos_round(machine, algorithm, plan);
      }
    }
  }
}

TEST(Chaos, CrashPlansAlwaysSurfaceAsStructuredErrors) {
  const std::array<fault::FaultKind, 1> kinds = {fault::FaultKind::kCrash};
  std::uint64_t seed = 2000;
  simd::Machine machine(kProcs, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : all_algorithms()) {
    for (int round = 0; round < 3; ++round) {
      const auto plan = fault::FaultPlan::random(seed++, kProcs, 8, kinds, 2);
      api::Config cfg;
      cfg.nprocs = kProcs;
      cfg.algorithm = algorithm;
      cfg.watchdog_seconds = 30.0;
      cfg.faults = &plan;
      auto keys = chaos_keys(seed);
      try {
        const auto out = api::parallel_sort_on(machine, keys, cfg);
        // Crash rules fire unconditionally at their trigger ordinal, so
        // a completed run means every rule's ordinal was beyond the
        // algorithm's exchange count on its victim — nothing fired.
        if (out.faults_fired != 0) {
          dump_repro(plan, "run completed although a crash rule fired");
        }
        if (!std::is_sorted(keys.begin(), keys.end())) {
          dump_repro(plan, "undamaged run produced unsorted output");
        }
      } catch (const bsort::Error&) {
        // The expected outcome when a crash fires.
      } catch (const std::exception& e) {
        dump_repro(plan, std::string("crash surfaced as a non-structured exception: ") +
                             e.what());
      }
      chaos_round(machine, algorithm, plan);  // and the machine recovers
    }
  }
}

TEST(Chaos, CorruptionPlansAreAlwaysCaughtByIntegrity) {
  const std::array<fault::FaultKind, 3> kinds = {fault::FaultKind::kCorrupt,
                                                 fault::FaultKind::kTruncate,
                                                 fault::FaultKind::kOversize};
  std::uint64_t seed = 3000;
  simd::Machine machine(kProcs, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : all_algorithms()) {
    for (int round = 0; round < 3; ++round) {
      const auto plan = fault::FaultPlan::random(seed++, kProcs, 8, kinds, 2);
      api::Config cfg;
      cfg.nprocs = kProcs;
      cfg.algorithm = algorithm;
      cfg.integrity = true;
      cfg.self_check = true;  // belt and braces: nothing damaged may slip through
      cfg.watchdog_seconds = 30.0;
      cfg.faults = &plan;
      auto keys = chaos_keys(seed);
      try {
        const auto out = api::parallel_sort_on(machine, keys, cfg);
        // Completed: every transmitted slot passed verification, so no
        // corruption can have fired (a fired rule always damages a slot
        // some receiver verifies).
        if (out.faults_fired != 0) {
          dump_repro(plan, "corruption fired but integrity checking missed it");
        }
      } catch (const IntegrityError&) {
        // The defense this test exists to prove.
      } catch (const std::exception& e) {
        dump_repro(plan,
                   std::string("corruption surfaced as the wrong exception type: ") +
                       e.what());
      }
    }
  }
}

TEST(Chaos, StragglerPlansCompleteSortedDespiteSkew) {
  const std::array<fault::FaultKind, 1> kinds = {fault::FaultKind::kStraggler};
  std::uint64_t seed = 4000;
  simd::Machine machine(kProcs, loggp::meiko_cs2(), simd::MessageMode::kLong);
  for (const auto algorithm : all_algorithms()) {
    const auto plan = fault::FaultPlan::random(seed++, kProcs, 8, kinds, 3);
    api::Config cfg;
    cfg.nprocs = kProcs;
    cfg.algorithm = algorithm;
    cfg.integrity = true;
    cfg.self_check = true;
    cfg.watchdog_seconds = 30.0;  // stalls are bounded; must ride them out
    cfg.faults = &plan;
    auto keys = chaos_keys(seed);
    try {
      const auto out = api::parallel_sort_on(machine, keys, cfg);
      if (!out.sorted) dump_repro(plan, "straggler run not sorted");
    } catch (const std::exception& e) {
      dump_repro(plan, std::string("straggler plan must not fail the run: ") + e.what());
    }
  }
}

// Fault-free runs with every defense armed must still validate EXACTLY
// against the closed-form predictions: the defenses may not perturb the
// model (integrity reads payloads, the watchdog only observes, and
// straggler charging — unused here — goes to the compute phase).
TEST(Chaos, DefensesArmedFaultFreeRunsValidateAgainstModel) {
  struct Case {
    loggp::Strategy strategy;
    void (*sort)(simd::Proc&, std::span<std::uint32_t>);
  };
  const std::array<Case, 3> cases = {
      Case{loggp::Strategy::kBlocked,
           [](simd::Proc& p, std::span<std::uint32_t> s) {
             bsort::bitonic::blocked_merge_sort(p, s);
           }},
      Case{loggp::Strategy::kCyclicBlocked,
           [](simd::Proc& p, std::span<std::uint32_t> s) {
             bsort::bitonic::cyclic_blocked_sort(p, s);
           }},
      Case{loggp::Strategy::kSmart, [](simd::Proc& p, std::span<std::uint32_t> s) {
             bsort::bitonic::smart_sort(p, s, {});
           }}};

  for (const auto mode : {simd::MessageMode::kLong, simd::MessageMode::kShort}) {
    for (const auto& c : cases) {
      // validate_run checks the ANALYTIC charges against the model's
      // closed forms, so this machine pins the simulated backend even
      // on the BSORT_BACKEND=native CI leg.
      simd::Machine machine(kProcs, loggp::meiko_cs2(), mode, 1.0,
                            bsort::backend::make_simulated());
      machine.enable_integrity();
      machine.set_watchdog(60.0);
      machine.enable_profiling();
      auto keys = chaos_keys(99);
      bsort::testing::run_blocked_spmd_on(
          machine, keys, [&](simd::Proc& p, std::span<std::uint32_t> s) { c.sort(p, s); });
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
      const auto report = trace::validate_run(machine, c.strategy, kKeysPerProc);
      EXPECT_TRUE(report.all_ok())
          << loggp::strategy_name(c.strategy) << " "
          << (mode == simd::MessageMode::kLong ? "long" : "short") << "\n"
          << report.summary();
    }
  }
}

}  // namespace
