// Closes the model-vs-measured loop (ROADMAP item 2): run all seven
// sorts on the NATIVE backend — exchanges execute as real memcpys and
// charge measured host time — then compare the measured communication
// cost against the LogGP closed forms evaluated with host parameters
// fitted by trace::calibrate on the very same backend.
//
// Output is a bsort-bench-v1 report (BENCH_native.json, override with
// argv[1]) wired into the CI perf gate:
//   * native/<sort>/measured_comm_us — sum over VPs of measured
//     transfer time (what the memcpys actually took);
//   * native/<sort>/model_comm_us    — the same schedule priced by
//     remap_time_long with the FITTED host (L, g, G);
//   * native/<sort>/model_abs_rel_err — |model - measured| / measured,
//     the headline model-validation number;
//   * native/<sort>/exchanges, elements_sent — deterministic schedule
//     counters (exact-compared: the native backend must not change the
//     schedule, only its timing);
//   * calib/* — the fitted host parameters (documentation + drift
//     watch, compared with a generous tolerance);
//   * chooser/agree — 1 when choose_strategy under the fitted host
//     params picks the strategy with the smallest MEASURED
//     communication time among the three bitonic remapping strategies.
//     Advisory: on a noisy host the measured ranking can flip, so the
//     baseline records 1 and the gate's tolerance direction lets 0
//     pass only as a "new metric"-style warning via --time-tol.
//
// Times here are HOST-dependent by design (unlike every other bench
// harness, which charges calibrated Meiko CS-2 time), so the CI leg
// compares this report with a generous --time-tol.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "bench_report.hpp"
#include "loggp/choose.hpp"
#include "loggp/cost.hpp"
#include "obs/spans.hpp"
#include "simd/machine.hpp"
#include "trace/fit.hpp"
#include "trace/validate.hpp"
#include "util/random.hpp"

namespace {

using namespace bsort;

constexpr int kP = 8;
constexpr std::size_t kKeysPerProc = 4096;

struct SortRun {
  bool sorted = false;
  double measured_comm_us = 0;  ///< sum over VPs of measured transfer time
  double model_comm_us = 0;     ///< same schedule priced with fitted params
  double makespan_us = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t elements_sent = 0;
};

/// Run one sort on a fresh native machine with recording on and price
/// its recorded schedule with `fitted`.
SortRun run_sort(api::Algorithm algorithm, const loggp::Params& fitted) {
  simd::Machine m(kP, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                  backend::make(backend::Kind::kNative));
  api::Config cfg;
  cfg.nprocs = kP;
  cfg.algorithm = algorithm;
  cfg.mode = simd::MessageMode::kLong;
  cfg.profile_spans = 4096;  // parallel_sort_on arms recording from the config
  auto keys = util::generate_keys(kKeysPerProc * kP,
                                  util::KeyDistribution::kUniform31, 29);

  SortRun out;
  const auto outcome = api::parallel_sort_on(m, keys, cfg);
  out.sorted = outcome.sorted && std::is_sorted(keys.begin(), keys.end());
  out.makespan_us = outcome.report.makespan_us;
  const auto comm = outcome.report.total_comm();
  out.exchanges = comm.exchanges;
  out.elements_sent = comm.elements_sent;
  for (const auto& phases : outcome.report.proc_phases) {
    out.measured_comm_us += phases.transfer();
  }
  for (int r = 0; r < kP; ++r) {
    trace::for_each_exchange(m.vp_spans(r), [&](const obs::SpanRecord& e,
                                                const trace::PhaseDelta&) {
      if (e.elements == 0) return;
      out.model_comm_us += loggp::remap_time_long(fitted, e.elements, e.messages, 4);
    });
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_native.json";

  std::cout << "=== native backend: measured vs LogGP-predicted communication, P="
            << kP << ", n=" << kKeysPerProc << " keys/proc ===\n\n";

  // Fit host (L, g, G) with the existing calibration micro-benchmark —
  // unchanged code, just running over real memcpys now.  Noise can fit
  // a slightly negative intercept on a fast host; clamp to the model's
  // domain (params must be non-negative to price schedules).
  simd::Machine calib_m(kP, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                        backend::make(backend::Kind::kNative));
  auto fit = trace::calibrate(calib_m, /*known_o=*/0.0);
  loggp::Params host = fit.params;
  host.L = std::max(host.L, 0.0);
  host.g = std::max(host.g, 0.0);
  host.G = std::max(host.G, 0.0);
  std::cout << "fitted host params: L=" << host.L << "us g=" << host.g
            << "us G=" << host.G << "us/byte (" << fit.events
            << " fit rows, max rel residual " << fit.max_rel_residual << ")\n\n";

  bench::BenchReport report("native");
  report.add_time("calib/L_us", host.L);
  report.add_time("calib/g_us", host.g);
  report.add_time("calib/G_us_per_byte", host.G);
  report.add_count("calib/fit_rows", static_cast<double>(fit.events));

  struct Entry {
    const char* tag;
    api::Algorithm algorithm;
  };
  const Entry entries[] = {
      {"smart", api::Algorithm::kSmartBitonic},
      {"cyclic_blocked", api::Algorithm::kCyclicBlockedBitonic},
      {"blocked_merge", api::Algorithm::kBlockedMergeBitonic},
      {"naive", api::Algorithm::kNaiveBitonic},
      {"radix", api::Algorithm::kParallelRadix},
      {"sample", api::Algorithm::kSampleSort},
      {"column", api::Algorithm::kColumnSort},
  };

  bool all_sorted = true;
  double measured_smart = 0, measured_cyclic = 0, measured_blocked = 0;
  std::cout << "sort            measured_comm_us  model_comm_us  rel_err\n";
  for (const auto& e : entries) {
    const SortRun r = run_sort(e.algorithm, host);
    all_sorted = all_sorted && r.sorted;
    const double rel_err =
        r.measured_comm_us > 0
            ? std::abs(r.model_comm_us - r.measured_comm_us) / r.measured_comm_us
            : 0.0;
    std::cout << e.tag << std::string(16 - std::string(e.tag).size(), ' ')
              << r.measured_comm_us << "  " << r.model_comm_us << "  "
              << rel_err << (r.sorted ? "" : "  [NOT SORTED]") << "\n";

    const std::string prefix = std::string("native/") + e.tag;
    report.add_time(prefix + "/measured_comm_us", r.measured_comm_us);
    report.add_time(prefix + "/model_comm_us", r.model_comm_us);
    report.add_time(prefix + "/model_abs_rel_err", rel_err, "ratio");
    report.add_time(prefix + "/makespan_us", r.makespan_us);
    report.add_count(prefix + "/exchanges", static_cast<double>(r.exchanges));
    report.add_count(prefix + "/elements_sent",
                     static_cast<double>(r.elements_sent));

    if (e.algorithm == api::Algorithm::kSmartBitonic) measured_smart = r.measured_comm_us;
    if (e.algorithm == api::Algorithm::kCyclicBlockedBitonic) measured_cyclic = r.measured_comm_us;
    if (e.algorithm == api::Algorithm::kBlockedMergeBitonic) measured_blocked = r.measured_comm_us;
  }

  // Chooser validation: does the model's pick under the FITTED host
  // parameters have the smallest MEASURED communication time?
  const auto picked = loggp::choose_strategy(host, kKeysPerProc, kP,
                                             /*use_long_messages=*/true);
  loggp::Strategy measured_best = loggp::Strategy::kSmart;
  double best = measured_smart;
  if (measured_cyclic < best) {
    best = measured_cyclic;
    measured_best = loggp::Strategy::kCyclicBlocked;
  }
  if (measured_blocked < best) {
    best = measured_blocked;
    measured_best = loggp::Strategy::kBlocked;
  }
  const bool agree = picked == measured_best;
  std::cout << "\nchooser: model picks " << loggp::strategy_name(picked)
            << ", measured best is " << loggp::strategy_name(measured_best)
            << (agree ? " (agree)" : " (DISAGREE)") << "\n";
  report.add_time("chooser/agree", agree ? 1.0 : 0.0, "bool");

  if (!all_sorted) {
    std::cerr << "bench_native: a sort produced unsorted output\n";
    return 1;
  }
  if (!report.write_file(out_path)) return 1;
  return 0;
}
