// Ablation for Chapter 4: local-computation strategies of the smart sort
// — the network steps on the fused multi-step kernel (the default) vs
// the two-phase bitonic merge sorts (Theorems 2/3) vs the fused
// unpack+merge (Section 4.3) —
// plus the kernel-level ablation of the fused multi-step network sweep
// vs column-at-a-time, per dispatch variant.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "bitonic/sorts.hpp"
#include "kernel/kernel.hpp"
#include "layout/bit_layout.hpp"
#include "localsort/compare_exchange.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

/// Host us/key for one full final-stage network sweep (steps lg n .. 1)
/// over n local keys.  `fused` batches the whole sweep through
/// local_network_steps (multi-step tiles for the low-stride columns);
/// otherwise every column is its own local_network_step pass over the
/// array — the pre-fusion column-at-a-time behavior.  Uses the active
/// kernel table; raw host time (no Meiko scale) since this compares
/// code paths on the same host.
double network_sweep_us_per_key(std::size_t n, bool fused) {
  using namespace bsort;
  const int log_n = util::ilog2(n);
  const auto lay = layout::BitLayout::blocked(log_n, 0);
  const auto input = util::generate_keys(n, util::KeyDistribution::kUniform31, 13);
  std::vector<std::uint32_t> keys(n);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    keys = input;
    const double t0 = simd::Proc::now_us();
    if (fused) {
      localsort::local_network_steps(lay, 0, std::span<std::uint32_t>(keys.data(), n),
                                     log_n, log_n, log_n);
    } else {
      for (int step = log_n; step >= 1; --step) {
        localsort::local_network_step(lay, 0, std::span<std::uint32_t>(keys.data(), n),
                                      log_n, step);
      }
    }
    best = std::min(best, simd::Proc::now_us() - t0);
  }
  return best / static_cast<double>(n);
}

}  // namespace

int main() {
  using namespace bsort;
  const int P = 16;
  const double scale = bench::meiko_cpu_scale();
  std::cout << "=== Chapter 4 ablation: local computation strategies, smart "
               "sort, "
            << P << " processors (us/key) ===\n\n";

  util::Table t({"Keys/proc", "network", "two-phase", "fused", "network speedup"});
  for (const std::size_t n : bench::keys_per_proc_sweep()) {
    const std::size_t total = n * static_cast<std::size_t>(P);
    bitonic::SmartOptions nw, tp, fu;
    nw.compute = bitonic::SmartCompute::kNetwork;
    tp.compute = bitonic::SmartCompute::kTwoPhase;
    fu.compute = bitonic::SmartCompute::kFused;
    const auto rnw = bench::run_blocked_sort(
        total, P, simd::MessageMode::kLong, scale,
        [&](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s, nw); });
    const auto rtp = bench::run_blocked_sort(
        total, P, simd::MessageMode::kLong, scale,
        [&](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s, tp); });
    const auto rfu = bench::run_blocked_sort(
        total, P, simd::MessageMode::kLong, scale,
        [&](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s, fu); });
    if (!rnw.ok || !rtp.ok || !rfu.ok) {
      std::cerr << "ERROR: unsorted output\n";
      return 1;
    }
    const double dn = static_cast<double>(n);
    t.add_row({bench::size_label(n), util::Table::fmt(rnw.compute_us / dn, 3),
               util::Table::fmt(rtp.compute_us / dn, 3),
               util::Table::fmt(rfu.compute_us / dn, 3),
               util::Table::fmt(rtp.compute_us / rnw.compute_us, 2) + "x"});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: the network path beats the two-phase merges "
               "(speedup = two-phase / network > 1).  The thesis found the "
               "reverse on 1996 hardware, where every network step was a "
               "memory sweep; the fused kernel runs the low-stride steps in "
               "registers/L1.\n";

  // Kernel-dispatch ablation: the same smart sort with each supported
  // kernel variant forced, compute-phase time per key.  The network
  // strategy is the most kernel-bound, so it shows the SIMD dispatch win
  // most clearly.
  std::cout << "\n=== kernel dispatch ablation: smart sort, network "
               "strategy (compute us/key) ===\n\n";
  std::vector<std::string> headers = {"Keys/proc"};
  for (const kernel::Kernels* k : kernel::variants()) {
    if (kernel::supported(*k)) headers.push_back(k->name);
  }
  util::Table kt(headers);
  for (const std::size_t n : bench::keys_per_proc_sweep()) {
    const std::size_t total = n * static_cast<std::size_t>(P);
    std::vector<std::string> row = {bench::size_label(n)};
    for (const kernel::Kernels* k : kernel::variants()) {
      if (!kernel::supported(*k)) continue;
      kernel::set_active_for_testing(k);
      const auto r = bench::run_blocked_sort(
          total, P, simd::MessageMode::kLong, scale,
          [&](simd::Proc& p, std::span<std::uint32_t> s) { bitonic::smart_sort(p, s); });
      if (!r.ok) {
        std::cerr << "ERROR: unsorted output (kernel " << k->name << ")\n";
        return 1;
      }
      row.push_back(util::Table::fmt(r.compute_us / static_cast<double>(n), 3));
    }
    kt.add_row(row);
  }
  kernel::set_active_for_testing(nullptr);
  kt.print(std::cout);
  std::cout << "\nActive dispatch on this host: " << kernel::active().name << "\n";

  // Fused multi-step ablation: one full final-stage network sweep,
  // column-at-a-time vs fused, for every supported kernel variant.
  // This isolates the register-blocking win: same comparisons, same
  // variant, the only difference is how many times the array streams
  // through memory.
  std::cout << "\n=== fused multi-step vs column-at-a-time: final-stage "
               "network sweep (host us/key, speedup = column/fused) ===\n\n";
  std::vector<std::string> fh = {"Variant"};
  for (const std::size_t n : bench::keys_per_proc_sweep()) {
    fh.push_back(bench::size_label(n) + " col");
    fh.push_back(bench::size_label(n) + " fused");
    fh.push_back(bench::size_label(n) + " speedup");
  }
  util::Table ft(fh);
  for (const kernel::Kernels* k : kernel::variants()) {
    if (!kernel::supported(*k)) continue;
    kernel::set_active_for_testing(k);
    std::vector<std::string> row = {k->name};
    for (const std::size_t n : bench::keys_per_proc_sweep()) {
      const double col = network_sweep_us_per_key(n, /*fused=*/false);
      const double fus = network_sweep_us_per_key(n, /*fused=*/true);
      row.push_back(util::Table::fmt(col, 4));
      row.push_back(util::Table::fmt(fus, 4));
      row.push_back(util::Table::fmt(col / fus, 2) + "x");
    }
    ft.add_row(row);
  }
  kernel::set_active_for_testing(nullptr);
  ft.print(std::cout);
  std::cout << "\nExpected shape: fused wins grow with the variant width — the "
               "low-stride columns collapse into one load/store pass, so the "
               "wider the vectors the more the sweep is memory-bound and the "
               "bigger the saving.\n";
  return 0;
}
