// Per-kernel microbenchmarks: pre-PR scalar baselines vs the kernel
// layer, per dispatch variant, plus the fused multi-step network sweep
// vs the column-at-a-time path.  Emits BENCH_kernels.json in the
// bsort-bench-v1 schema so tools/bench_compare.py can gate it in CI
// like BENCH_bitonic/BENCH_machine; pass an output path as argv[1]
// (default: ./BENCH_kernels.json).
//
// "baseline" is a faithful copy of the pre-kernel-layer code: the
// branchy one-key-per-iteration compare-exchange of the old
// local_network_step, the 4x(count+scatter) radix ladder with separate
// complement-flip passes for descending order, the per-key pack gather
// of the old remap_exec, and the per-key std::min keep-the-minimum loop
// of the old blocked-merge remote step.  The acceptance bar for the kernel
// layer is >= 1.5x on radix sort and >= 2x on compare-exchange steps
// against these; the fused multi-step sweep must additionally beat the
// column-at-a-time path of the SAME dispatched variant
// (fused_vs_column_ratio < 1).
//
// Gated metric names stay host-independent: only the always-present
// "baseline"/"scalar" variants and the "dispatched" alias appear in the
// report (a committed avx512 row would read as MISSING on an AVX2-only
// CI runner).  The full per-variant table still prints to stdout.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "kernel/kernel.hpp"
#include "layout/bit_layout.hpp"
#include "layout/remap.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/radix_sort.hpp"
#include "simd/machine.hpp"
#include "util/random.hpp"

namespace {

using namespace bsort;

constexpr std::size_t kKeys = std::size_t{1} << 17;  // 128K keys per measurement
// The radix measurement uses a larger array: the scatter passes are the
// cost center and the interesting regime is the memory-bound one where
// the array has left L2 (1M keys = 4 MB working set per buffer).
constexpr std::size_t kRadixKeys = std::size_t{1} << 20;

/// Best-of-reps wall time of f() in microseconds (min is the faithful
/// estimate under a host scheduler; see bench_common.hpp).
template <class F>
double time_us(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = simd::Proc::now_us();
    f();
    best = std::min(best, simd::Proc::now_us() - t0);
  }
  return best;
}

// ---- pre-PR baselines (copied from the seed implementations) ---------

void baseline_radix_sort(std::span<std::uint32_t> keys,
                         std::vector<std::uint32_t>& scratch) {
  constexpr int kDigitBits = 8, kBuckets = 256, kPasses = 4;
  const std::size_t n = keys.size();
  if (n <= 1) return;
  scratch.resize(n);
  std::uint32_t* src = keys.data();
  std::uint32_t* dst = scratch.data();
  for (int pass = 0; pass < kPasses; ++pass) {
    const int shift = pass * kDigitBits;
    std::array<std::size_t, kBuckets> count{};
    for (std::size_t i = 0; i < n; ++i) ++count[(src[i] >> shift) & (kBuckets - 1)];
    if (count[(src[0] >> shift) & (kBuckets - 1)] == n) continue;
    std::size_t offset = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::size_t c = count[static_cast<std::size_t>(b)];
      count[static_cast<std::size_t>(b)] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(src[i] >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

void baseline_radix_sort_descending(std::span<std::uint32_t> keys,
                                    std::vector<std::uint32_t>& scratch) {
  for (auto& k : keys) k = ~k;
  baseline_radix_sort(keys, scratch);
  for (auto& k : keys) k = ~k;
}

/// The old scalar inner loop of local_network_step: per-key pair-bit
/// test, per-key direction derivation, branchy swap.
void baseline_network_step(std::span<std::uint32_t> data, std::uint64_t pair_bit,
                           int dir_pos, bool const_ascending) {
  const std::uint64_t n = data.size();
  for (std::uint64_t l = 0; l < n; ++l) {
    if ((l & pair_bit) != 0) continue;
    const std::uint64_t lp = l | pair_bit;
    const bool ascending =
        dir_pos >= 0 ? ((l >> dir_pos) & 1) == 0 : const_ascending;
    if ((data[l] > data[lp]) == ascending) std::swap(data[l], data[lp]);
  }
}

// ---- measurements ----------------------------------------------------

/// keys/sec for one full ascending + descending local radix sort pair.
double radix_keys_per_sec(bool baseline) {
  const auto input =
      util::generate_keys(kRadixKeys, util::KeyDistribution::kUniform31, 42);
  std::vector<std::uint32_t> keys(kRadixKeys), scratch;
  const double us = time_us(5, [&] {
    keys = input;
    if (baseline) {
      baseline_radix_sort(keys, scratch);
    } else {
      localsort::radix_sort(std::span<std::uint32_t>(keys.data(), kRadixKeys), scratch);
    }
    keys = input;
    if (baseline) {
      baseline_radix_sort_descending(keys, scratch);
    } else {
      localsort::radix_sort_descending(
          std::span<std::uint32_t>(keys.data(), kRadixKeys), scratch);
    }
  });
  return 2.0 * static_cast<double>(kRadixKeys) / us * 1e6;
}

/// keys/sec for one full sweep of network steps (every local compare
/// bit, blocked layout with a local direction bit mix).  `fused` runs
/// the whole sweep through local_network_steps (multi-step batching);
/// otherwise each column is its own local_network_step pass —
/// column-at-a-time, the pre-fusion behavior.
double cmpex_keys_per_sec(bool baseline, bool fused = false) {
  const auto lay = layout::BitLayout::blocked(17, 0);  // 128K keys, 1 proc
  const auto input = util::generate_keys(kKeys, util::KeyDistribution::kUniform31, 7);
  std::vector<std::uint32_t> keys(kKeys);
  const int stage = 17;  // full final stage: steps 17..1, all three dir cases
  const double us = time_us(5, [&] {
    keys = input;
    if (fused) {
      localsort::local_network_steps(
          lay, 0, std::span<std::uint32_t>(keys.data(), kKeys), stage, stage, stage);
      return;
    }
    for (int step = stage; step >= 1; --step) {
      if (baseline) {
        baseline_network_step(std::span<std::uint32_t>(keys.data(), kKeys),
                              std::uint64_t{1} << (step - 1), -1, true);
      } else {
        localsort::local_network_step(lay, 0,
                                      std::span<std::uint32_t>(keys.data(), kKeys),
                                      stage, step);
      }
    }
  });
  return static_cast<double>(kKeys) * stage / us * 1e6;
}

/// keys/sec for the remap pack gather (per-key table lookup), mask-plan
/// blocked->cyclic pattern (stride-P gathers: the case runs cannot
/// coalesce, so this measures the gather kernel itself).
double gather_keys_per_sec(bool baseline) {
  const auto from = layout::BitLayout::blocked(17, 3);
  const auto to = layout::BitLayout::cyclic(17, 3);
  const auto plan = layout::build_mask_plan(from, to);
  const auto src = util::generate_keys(plan.message_size() * plan.group_size(),
                                       util::KeyDistribution::kUniform31, 9);
  std::vector<std::uint32_t> msg(plan.message_size());
  const auto& K = kernel::active();
  const double us = time_us(5, [&] {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      if (baseline) {
        for (std::size_t j = 0; j < msg.size(); ++j) {
          msg[j] = src[plan.kept_order[j] | plan.dest_pattern[o]];
        }
      } else {
        K.gather_idx(msg.data(), src.data(), plan.kept_order.data(),
                     plan.dest_pattern[o], msg.size());
      }
    }
  });
  return static_cast<double>(plan.message_size() * plan.group_size()) / us * 1e6;
}

/// keys/sec for the keep-the-minimum half of a whole-block exchange
/// (dst[i] = min(dst[i], src[i])), which blocked-merge's remote steps run.
double keep_min_keys_per_sec(bool baseline) {
  const auto src = util::generate_keys(kKeys, util::KeyDistribution::kUniform31, 5);
  auto dst = util::generate_keys(kKeys, util::KeyDistribution::kUniform31, 6);
  const auto& K = kernel::active();
  const double us = time_us(5, [&] {
    if (baseline) {
      for (std::size_t i = 0; i < kKeys; ++i) dst[i] = std::min(dst[i], src[i]);
    } else {
      K.keep_min(dst.data(), src.data(), kKeys);
    }
  });
  return static_cast<double>(kKeys) / us * 1e6;
}

constexpr std::array<const char*, 4> kRows = {"radix_sort", "compare_exchange",
                                              "pack_gather", "keep_min"};

/// All row measurements under whichever kernel table is active.
std::map<std::string, double> measure_rows(bool baseline) {
  std::map<std::string, double> r;
  r["radix_sort"] = radix_keys_per_sec(baseline);
  r["compare_exchange"] = cmpex_keys_per_sec(baseline);
  r["pack_gather"] = gather_keys_per_sec(baseline);
  r["keep_min"] = keep_min_keys_per_sec(baseline);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  // measurements[kernel_name][row] = keys/sec
  std::map<std::string, std::map<std::string, double>> m;
  std::map<std::string, std::pair<double, double>> fused;  // variant -> (column, fused) keys/sec

  m["baseline"] = measure_rows(/*baseline=*/true);

  for (const kernel::Kernels* k : kernel::variants()) {
    if (!kernel::supported(*k)) continue;
    kernel::set_active_for_testing(k);
    m[k->name] = measure_rows(false);
    fused[k->name] = {cmpex_keys_per_sec(false, /*fused=*/false),
                      cmpex_keys_per_sec(false, /*fused=*/true)};
  }
  kernel::set_active_for_testing(nullptr);
  const std::string dispatched = kernel::active().name;

  // ---- bsort-bench-v1 report (host-independent metric names only) ----
  bench::BenchReport report("kernels");
  const auto add_variant = [&](const std::string& label, const std::string& variant) {
    for (const char* row : kRows) {
      report.add_time(label + "/" + row + "_ns_per_key",
                      1e9 / m.at(variant).at(row), "ns");
    }
  };
  add_variant("baseline", "baseline");
  add_variant("scalar", "scalar");
  add_variant("dispatched", dispatched);
  report.add_time("dispatched/cmpex_column_ns_per_key",
                  1e9 / fused.at(dispatched).first, "ns");
  report.add_time("dispatched/cmpex_fused_ns_per_key",
                  1e9 / fused.at(dispatched).second, "ns");
  // < 1 means the fused multi-step sweep beats column-at-a-time under
  // the SAME variant; the gate fails if fusion regresses past the
  // committed ratio + tolerance.
  report.add_time("dispatched/fused_vs_column_ratio",
                  fused.at(dispatched).first / fused.at(dispatched).second, "ratio");
  if (!report.write_file(out_path)) return 1;

  // ---- human-readable per-variant table (includes every variant) -----
  std::cout << "=== kernel microbenchmarks (keys/sec, higher is better) ===\n";
  for (const auto& [name, vals] : m) {
    std::cout << name << ":";
    for (const char* row : kRows) {
      std::printf("  %s %.2fM", row, vals.at(row) / 1e6);
    }
    std::cout << "\n";
  }
  std::cout << "=== fused multi-step network sweep vs column-at-a-time "
               "(keys/sec over a 17-column stage) ===\n";
  for (const auto& [name, cf] : fused) {
    std::printf("%s:  column %.2fM  fused %.2fM  speedup %.2fx\n", name.c_str(),
                cf.first / 1e6, cf.second / 1e6, cf.second / cf.first);
  }
  std::printf("dispatched variant: %s (baseline->dispatched cmpex speedup %.2fx); wrote %s\n",
              dispatched.c_str(),
              m.at(dispatched).at("compare_exchange") / m.at("baseline").at("compare_exchange"),
              out_path.c_str());
  return 0;
}
