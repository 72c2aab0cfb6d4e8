// Reproduces the Section 3.4.2/3.4.3 analysis: remaps R, volume V and
// messages M per processor for the three remapping strategies — closed
// forms vs values measured on the simulated machine — plus the LogP and
// LogGP time predictions.
//
// The measured side is taken from the exchange records of a recorded
// run and cross-checked with the trace/ model validator (the same check the test suite runs); the
// per-exchange records are exported as TRACE_comm_metrics.jsonl
// (override the path with argv[1]) next to the BENCH_*.json outputs.
//
// A second, span-profiled smart run (with one benign injected straggler
// so a fault instant appears on the timeline) is exported as a
// Chrome/Perfetto trace — TRACE_smart_perfetto.json, override with
// argv[2] — ready to drop into https://ui.perfetto.dev.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <string>

#include "bench_common.hpp"
#include "bitonic/sorts.hpp"
#include "fault/plan.hpp"
#include "loggp/choose.hpp"
#include "loggp/cost.hpp"
#include "loggp/params.hpp"
#include "obs/perfetto.hpp"
#include "simd/machine.hpp"
#include "trace/jsonl.hpp"
#include "trace/validate.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

struct TracedRun {
  bsort::trace::MeasuredMetrics per_proc;  // rank 0 (all ranks identical here)
  bsort::trace::ValidationReport report;
  bool sorted = false;
};

TracedRun run_traced(
    std::ostream& jsonl, const char* name, bsort::loggp::Strategy strategy, std::size_t n,
    int P, const std::function<void(bsort::simd::Proc&, std::span<std::uint32_t>)>& body) {
  using namespace bsort;
  simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
  m.enable_profiling();
  auto keys = util::generate_keys(n * static_cast<std::size_t>(P),
                                  util::KeyDistribution::kUniform31, 1);
  m.run([&](simd::Proc& p) {
    body(p, std::span<std::uint32_t>(keys.data() + static_cast<std::size_t>(p.rank()) * n, n));
  });
  TracedRun out;
  out.sorted = std::is_sorted(keys.begin(), keys.end());
  out.per_proc = trace::measure(m.vp_spans(0));
  out.report = trace::validate_run(m, strategy, n);
  trace::write_jsonl(jsonl, m, {.label = "bench_comm_metrics", .algorithm = name,
                                .keys_per_proc = n});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsort;
  const int P = 16;
  const std::size_t n = bench::full_mode() ? (1u << 17) : (1u << 14);
  std::cout << "=== Section 3.4: communication metrics per processor, P=" << P
            << ", n=" << n << " keys/proc ===\n\n";

  const auto params = loggp::meiko_cs2();
  const auto model_b = loggp::blocked_metrics(n, P);
  const auto model_c = loggp::cyclic_blocked_metrics(n, P);
  const auto model_s = loggp::smart_metrics(n, P);

  const std::string jsonl_path = argc > 1 ? argv[1] : "TRACE_comm_metrics.jsonl";
  std::ofstream jsonl(jsonl_path);

  const auto bm = run_traced(
      jsonl, "blocked", loggp::Strategy::kBlocked, n, P,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::blocked_merge_sort(p, s); });
  const auto cb = run_traced(
      jsonl, "cyclic-blocked", loggp::Strategy::kCyclicBlocked, n, P,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::cyclic_blocked_sort(p, s); });
  const auto sm = run_traced(
      jsonl, "smart", loggp::Strategy::kSmart, n, P,
      [](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
  if (!bm.sorted || !cb.sorted || !sm.sorted) {
    std::cerr << "ERROR: unsorted output\n";
    return 1;
  }

  util::Table t({"strategy", "R model", "R meas", "V model", "V meas", "M model",
                 "M meas", "LogP T (ms)", "LogGP T (ms)"});
  const auto row = [&](const char* name, const loggp::StrategyMetrics& m,
                       const TracedRun& r) {
    t.add_row({name, std::to_string(m.remaps), std::to_string(r.per_proc.exchanges),
               std::to_string(m.elements), std::to_string(r.per_proc.elements),
               std::to_string(m.messages), std::to_string(r.per_proc.messages),
               util::Table::fmt(loggp::total_time_short(params, m.remaps, m.elements) / 1e3, 1),
               util::Table::fmt(
                   loggp::total_time_long(params, m.remaps, m.elements, m.messages, 4) / 1e3,
                   1)});
  };
  row("blocked", model_b, bm);
  row("cyclic-blocked", model_c, cb);
  row("smart", model_s, sm);
  t.print(std::cout);
  std::cout << "\nNotes: the closed-form smart M is the Section 3.4.3 lower bound "
               "(OutRemaps only), so the measured count can exceed it slightly.  "
               "Smart minimizes R and V (and LogP time); blocked minimizes "
               "M.\n";

  // Validator verdicts (the prediction side is loggp::predict(), which
  // uses the exact general-shape formulas for smart).
  std::cout << "\n" << bm.report.summary() << "\n"
            << cb.report.summary() << "\n"
            << sm.report.summary() << "\n";
  std::cout << "trace: " << jsonl_path << "\n";
  if (!bm.report.all_ok() || !cb.report.all_ok() || !sm.report.all_ok()) {
    std::cerr << "ERROR: measured communication deviates from the model\n";
    return 2;
  }

  // Dedicated span-profiled run for the Perfetto timeline artifact.
  // Kept separate from the model-validation runs above so the injected
  // straggler (which shows up as a fault instant + kStraggler span on
  // the victim's track) cannot perturb the measured metrics.
  {
    const std::string perfetto_path = argc > 2 ? argv[2] : "TRACE_smart_perfetto.json";
    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    m.enable_profiling();
    fault::FaultPlan plan;
    fault::FaultRule straggle;
    straggle.kind = fault::FaultKind::kStraggler;
    straggle.rank = P / 2;
    straggle.exchange = 1;
    straggle.delay_us = 400.0;  // simulated skew only; no real stall
    plan.rules.push_back(straggle);
    m.arm_faults(plan);
    auto keys = util::generate_keys(n * static_cast<std::size_t>(P),
                                    util::KeyDistribution::kUniform31, 7);
    m.run([&](simd::Proc& p) {
      bitonic::smart_sort(p, std::span<std::uint32_t>(
                                 keys.data() + static_cast<std::size_t>(p.rank()) * n, n));
    });
    if (!std::is_sorted(keys.begin(), keys.end())) {
      std::cerr << "ERROR: unsorted output in profiled run\n";
      return 3;
    }
    std::ofstream f(perfetto_path);
    obs::PerfettoMeta meta;
    meta.process_name = "bsort smart P=" + std::to_string(P);
    obs::write_perfetto(f, m, meta);
    if (!f) {
      std::cerr << "ERROR: cannot write " << perfetto_path << "\n";
      return 3;
    }
    std::cout << "perfetto: " << perfetto_path << "\n";
  }
  return 0;
}
