// Metrics registry: per-VP counters and fixed-bucket log-scale
// histograms, aggregated at Machine::run() end into the RunReport's
// phase/metric table (p50/p95/max across VPs).
//
// Every metric is owned by exactly one VP and written only by that VP's
// worker thread, as each span record is written into its ring
// (Proc::record, the one writer of both), so recording needs no locks
// or atomics.  Recording is pure arithmetic on preallocated state: the
// armed metrics layer performs zero steady-state heap allocations
// (audited in bench_machine_overhead), and the disabled layer costs one
// predicted branch per site.
//
// Histograms use 64 power-of-two buckets (bucket b counts samples in
// [2^b, 2^(b+1)); values < 1 land in bucket 0, values beyond 2^63
// saturate into the last bucket).  Quantiles are estimated by linear
// interpolation inside the covering bucket and clamped to the exactly
// tracked maximum; the math is unit-tested in test_obs.cpp (empty,
// single-sample, saturating cases).
//
// Dependency-free so simd/machine.hpp can include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/spans.hpp"

namespace bsort::obs {

inline constexpr int kHistBuckets = 64;

/// Fixed-bucket log2 histogram with an exact max and sum.
class LogHistogram {
 public:
  void clear() {
    for (auto& b : buckets_) b = 0;
    count_ = 0;
    max_ = 0;
    sum_ = 0;
  }

  /// Record one sample (negative samples clamp to 0).  Never allocates.
  void record(double v);

  /// q-quantile estimate in [0, 1]: linear interpolation inside the
  /// covering bucket, clamped to the exact max.  0 on an empty
  /// histogram.
  [[nodiscard]] double quantile(double q) const;

  /// Merge another histogram into this one (cross-VP aggregation).
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }

 private:
  std::uint64_t buckets_[kHistBuckets] = {};
  std::uint64_t count_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Everything one VP records during a run.  Cleared at run() start when
/// profiling is enabled.
struct VpMetrics {
  LogHistogram exchange_bytes;   ///< payload bytes sent per exchange
  LogHistogram slot_bytes;       ///< bytes per non-self send slot
  LogHistogram barrier_skew_us;  ///< clock jump absorbed per barrier
  std::uint64_t barriers = 0;
  std::uint64_t exchanges = 0;
  double span_us[kSpanKindCount] = {};  ///< simulated time per span kind
  std::uint64_t span_count[kSpanKindCount] = {};

  void clear();
};

/// One span kind's time across VPs: per-VP totals reduced to exact
/// percentiles (there are only P values, so no estimation is involved).
struct PhaseSummary {
  const char* name = "?";    ///< span_kind_name of the kind
  std::uint64_t count = 0;   ///< spans recorded, summed over VPs
  double total_us = 0;       ///< simulated time, summed over VPs
  double p50_us = 0;         ///< percentiles of the per-VP totals
  double p95_us = 0;
  double max_us = 0;
};

/// One histogram metric merged across VPs.
struct MetricSummary {
  const char* name = "?";
  std::uint64_t count = 0;
  double p50 = 0;  ///< bucket-estimated quantiles (see LogHistogram)
  double p95 = 0;
  double max = 0;  ///< exact
};

/// The RunReport v2 phase/metric table, built by summarize() after the
/// workers joined.  `enabled` is false (and the tables empty) when the
/// run executed without profiling.
struct ObsReport {
  bool enabled = false;
  std::vector<PhaseSummary> phases;    ///< one row per span kind seen
  std::vector<MetricSummary> metrics;  ///< merged histograms + counters
};

/// Aggregate P VPs' metrics into the report tables.  Allocates (run()
/// teardown, not the hot path).
ObsReport summarize(const VpMetrics* per_vp, int nprocs);

/// Exact q-quantile of a small sample (sorts a copy; aggregation only).
double exact_quantile(std::vector<double> values, double q);

}  // namespace bsort::obs
