// Machine-pool reuse: a pooled Machine driven through HETEROGENEOUS
// configs (profiling on -> off, integrity on -> off, a faulted run then
// a clean one, long <-> short message modes, different LogGP params)
// must behave run-for-run exactly like a fresh Machine constructed for
// each config — the pool-reuse contract of api::parallel_sort_on.
//
// "Exactly like" is asserted on the DETERMINISTIC subset of a run:
// sorted output, per-VP communication counters (exchanges, elements and
// messages sent), the analytic makespan ordering, the observability
// switches and the recorded phase names and counts.
// Measured compute times are host-dependent and are deliberately not
// compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "loggp/params.hpp"
#include "simd/machine.hpp"
#include "util/random.hpp"

namespace {

namespace api = bsort::api;
namespace fault = bsort::fault;
namespace loggp = bsort::loggp;
namespace simd = bsort::simd;

constexpr int kProcs = 8;
constexpr std::size_t kTotal = std::size_t{1} << 12;

std::vector<std::uint32_t> keys_for(std::uint64_t seed, std::size_t total = kTotal) {
  return bsort::util::generate_keys(total, bsort::util::KeyDistribution::kUniform31, seed);
}

/// Fresh machine exactly as parallel_sort would construct it, except the
/// backend is pinned to simulated so comm/transfer comparisons cannot be
/// flipped by a BSORT_BACKEND=native CI leg.
simd::Machine fresh_machine(const api::Config& cfg) {
  return simd::Machine(cfg.nprocs, cfg.params, cfg.mode, cfg.cpu_scale,
                       bsort::backend::make_simulated());
}

/// The deterministic per-run facts the pooled and fresh runs must agree
/// on bit-for-bit.
void expect_equivalent(const simd::RunReport& pooled, const simd::RunReport& fresh,
                       const char* what) {
  ASSERT_EQ(pooled.proc_comm.size(), fresh.proc_comm.size()) << what;
  for (std::size_t r = 0; r < pooled.proc_comm.size(); ++r) {
    EXPECT_EQ(pooled.proc_comm[r].exchanges, fresh.proc_comm[r].exchanges)
        << what << " rank " << r;
    EXPECT_EQ(pooled.proc_comm[r].elements_sent, fresh.proc_comm[r].elements_sent)
        << what << " rank " << r;
    EXPECT_EQ(pooled.proc_comm[r].messages_sent, fresh.proc_comm[r].messages_sent)
        << what << " rank " << r;
  }
  EXPECT_EQ(pooled.obs.enabled, fresh.obs.enabled) << what;
  if (pooled.obs.enabled && fresh.obs.enabled) {
    ASSERT_EQ(pooled.obs.phases.size(), fresh.obs.phases.size()) << what;
    for (std::size_t i = 0; i < pooled.obs.phases.size(); ++i) {
      EXPECT_STREQ(pooled.obs.phases[i].name, fresh.obs.phases[i].name) << what;
      EXPECT_EQ(pooled.obs.phases[i].count, fresh.obs.phases[i].count)
          << what << " phase " << pooled.obs.phases[i].name;
    }
  }
}

/// Run `cfg` on `total` keys on the pooled machine AND on a fresh
/// per-config machine; both must sort and agree on the deterministic
/// subset.
void run_both(simd::Machine& pooled, const api::Config& cfg, std::uint64_t seed,
              const char* what, std::size_t total = kTotal) {
  auto keys_pooled = keys_for(seed, total);
  auto keys_fresh = keys_pooled;
  auto want = keys_pooled;
  std::sort(want.begin(), want.end());

  const auto out_pooled = api::parallel_sort_on(pooled, keys_pooled, cfg);
  auto fresh = fresh_machine(cfg);
  const auto out_fresh = api::parallel_sort_on(fresh, keys_fresh, cfg);

  EXPECT_TRUE(out_pooled.sorted) << what;
  EXPECT_EQ(keys_pooled, want) << what;
  EXPECT_EQ(keys_pooled, keys_fresh) << what;
  expect_equivalent(out_pooled.report, out_fresh.report, what);
}

// The satellite's core scenario: one pooled machine, every config
// transition the service layer can produce, each step compared against
// a fresh machine.
TEST(MachineReuse, HeterogeneousConfigInterleaveMatchesFreshMachines) {
  simd::Machine pooled(kProcs, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                       bsort::backend::make_simulated());

  // 1: profiling + integrity + watchdog armed, smart sort, long mode.
  api::Config armed;
  armed.nprocs = kProcs;
  armed.algorithm = api::Algorithm::kSmartBitonic;
  armed.profile_spans = 2048;
  armed.integrity = true;
  armed.self_check = true;
  armed.watchdog_seconds = 60.0;
  run_both(pooled, armed, 11, "armed smart/long");
  EXPECT_TRUE(pooled.profiling());
  EXPECT_TRUE(pooled.integrity());

  // 2: everything off, radix, SHORT mode + different params — the
  // pooled machine must be reconfigured, not keep its construction
  // values.
  api::Config bare;
  bare.nprocs = kProcs;
  bare.algorithm = api::Algorithm::kParallelRadix;
  bare.mode = simd::MessageMode::kShort;
  bare.params = loggp::modern_cluster();
  run_both(pooled, bare, 22, "bare radix/short");
  EXPECT_EQ(pooled.mode(), simd::MessageMode::kShort);
  EXPECT_FALSE(pooled.profiling());
  EXPECT_FALSE(pooled.integrity());
  EXPECT_EQ(pooled.watchdog_seconds(), 0.0);

  // 3: a faulted run (unconditional crash) fails structurally...
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kCrash, /*rank=*/1, /*exchange=*/0});
  api::Config faulted;
  faulted.nprocs = kProcs;
  faulted.algorithm = api::Algorithm::kCyclicBlockedBitonic;
  faulted.watchdog_seconds = 60.0;
  faulted.faults = &plan;
  auto doomed = keys_for(33);
  EXPECT_THROW(api::parallel_sort_on(pooled, doomed, faulted), bsort::Error);
  EXPECT_FALSE(pooled.faults_armed()) << "fault plan must be disarmed on throw";

  // ...and the SAME machine immediately serves a clean self-checked run
  // identical to a fresh machine's.
  api::Config clean;
  clean.nprocs = kProcs;
  clean.algorithm = api::Algorithm::kSampleSort;
  clean.self_check = true;
  run_both(pooled, clean, 44, "clean sample sort after faulted run");

  // 4: back to long mode with profiling for a different algorithm.
  api::Config back;
  back.nprocs = kProcs;
  back.algorithm = api::Algorithm::kBlockedMergeBitonic;
  back.profile_spans = 2048;
  run_both(pooled, back, 55, "profiled blocked-merge back on long");
  EXPECT_EQ(pooled.mode(), simd::MessageMode::kLong);

  // 5: the shape changes between calls.  Each call fetches the remap
  // program of its own shape and resizes the VPs' scratch buffers, which
  // a larger earlier call may have left bigger.
  api::Config smart;
  smart.nprocs = kProcs;
  smart.algorithm = api::Algorithm::kSmartBitonic;
  smart.profile_spans = 4096;
  api::Config cyclic = smart;
  cyclic.algorithm = api::Algorithm::kCyclicBlockedBitonic;
  run_both(pooled, smart, 66, "smart at 2^14", std::size_t{1} << 14);
  run_both(pooled, cyclic, 77, "cyclic-blocked at 2^12", std::size_t{1} << 12);
  run_both(pooled, smart, 88, "smart at 2^16", std::size_t{1} << 16);
  run_both(pooled, smart, 99, "smart at 2^14 again", std::size_t{1} << 14);
}

// Run-N defenses must not leak into run N+1: the exact regression the
// profiling-state audit covers, extended to every switch.
TEST(MachineReuse, DefensesDoNotLeakAcrossPooledRuns) {
  simd::Machine pooled(kProcs, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                       bsort::backend::make_simulated());

  api::Config armed;
  armed.nprocs = kProcs;
  armed.profile_spans = 1024;
  armed.integrity = true;
  armed.watchdog_seconds = 60.0;
  auto keys = keys_for(1);
  const auto out1 = api::parallel_sort_on(pooled, keys, armed);
  EXPECT_TRUE(out1.report.obs.enabled);

  api::Config defaults;
  defaults.nprocs = kProcs;
  auto keys2 = keys_for(2);
  const auto out2 = api::parallel_sort_on(pooled, keys2, defaults);
  EXPECT_FALSE(out2.report.obs.enabled)
      << "profiling from the previous pooled run leaked into this one";
  EXPECT_TRUE(out2.report.obs.phases.empty());
  EXPECT_FALSE(pooled.profiling());
  EXPECT_FALSE(pooled.integrity());
  EXPECT_EQ(pooled.watchdog_seconds(), 0.0);
  EXPECT_FALSE(pooled.faults_armed());
}

// A long run of alternating mode/scale configs: the pooled machine's
// comm counters must track each config's fresh-machine counters the
// whole way (no drift after many reconfigurations).
TEST(MachineReuse, RepeatedModeAndScaleFlipsStayEquivalent) {
  simd::Machine pooled(kProcs, loggp::meiko_cs2(), simd::MessageMode::kShort, 1.0,
                       bsort::backend::make_simulated());
  for (int i = 0; i < 6; ++i) {
    api::Config cfg;
    cfg.nprocs = kProcs;
    cfg.mode = (i % 2 == 0) ? simd::MessageMode::kLong : simd::MessageMode::kShort;
    cfg.cpu_scale = (i % 3 == 0) ? 2.0 : 1.0;
    cfg.algorithm = (i % 2 == 0) ? api::Algorithm::kSmartBitonic
                                 : api::Algorithm::kNaiveBitonic;
    run_both(pooled, cfg, 100 + static_cast<std::uint64_t>(i), "flip round");
    EXPECT_EQ(pooled.mode(), cfg.mode);
  }
}

TEST(MachineReuse, SetCpuScaleRejectsNonPositive) {
  simd::Machine machine(2, loggp::meiko_cs2(), simd::MessageMode::kLong);
  EXPECT_THROW(machine.set_cpu_scale(0.0), bsort::ConfigError);
  EXPECT_THROW(machine.set_cpu_scale(-1.0), bsort::ConfigError);
  EXPECT_THROW(machine.set_cpu_scale(std::nan("")), bsort::ConfigError);
  machine.set_cpu_scale(0.5);  // valid values still accepted
}

}  // namespace
