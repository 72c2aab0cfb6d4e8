#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace bsort::obs {

namespace {

/// Bucket index of a sample: floor(log2(v)) clamped to [0, 63].
int bucket_of(double v) {
  if (v < 1) return 0;
  const int b = std::ilogb(v);
  return b >= kHistBuckets ? kHistBuckets - 1 : b;
}

/// Inclusive sample range covered by bucket b (bucket 0 starts at 0 so
/// sub-unit samples interpolate sensibly).
double bucket_lo(int b) { return b == 0 ? 0 : std::ldexp(1.0, b); }
double bucket_hi(int b) { return std::ldexp(1.0, b + 1); }

}  // namespace

void LogHistogram::record(double v) {
  if (v < 0) v = 0;
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  ++count_;
  sum_ += v;
  if (v > max_) max_ = v;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based; walk the cumulative counts.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (seen + c >= target) {
      // Interpolate the rank's position inside this bucket's range.
      const double frac =
          (static_cast<double>(target - seen) - 0.5) / static_cast<double>(c);
      const double est = bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
      // The max is exact; never report a quantile beyond it.
      return std::min(est, max_);
    }
    seen += c;
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (int b = 0; b < kHistBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] += other.buckets_[static_cast<std::size_t>(b)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void VpMetrics::clear() {
  exchange_bytes.clear();
  slot_bytes.clear();
  barrier_skew_us.clear();
  barriers = 0;
  exchanges = 0;
  for (auto& u : span_us) u = 0;
  for (auto& c : span_count) c = 0;
}

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[idx == 0 ? 0 : idx - 1];
}

ObsReport summarize(const VpMetrics* per_vp, int nprocs) {
  ObsReport rep;
  rep.enabled = true;
  const auto P = static_cast<std::size_t>(nprocs);

  for (int k = 0; k < kSpanKindCount; ++k) {
    PhaseSummary ph;
    ph.name = span_kind_name(static_cast<SpanKind>(k));
    std::vector<double> totals;
    totals.reserve(P);
    for (std::size_t r = 0; r < P; ++r) {
      ph.count += per_vp[r].span_count[k];
      ph.total_us += per_vp[r].span_us[k];
      totals.push_back(per_vp[r].span_us[k]);
    }
    if (ph.count == 0) continue;
    ph.p50_us = exact_quantile(totals, 0.50);
    ph.p95_us = exact_quantile(totals, 0.95);
    ph.max_us = *std::max_element(totals.begin(), totals.end());
    rep.phases.push_back(ph);
  }

  const auto add_metric = [&](const char* name,
                              LogHistogram VpMetrics::* member) {
    LogHistogram merged;
    merged.clear();
    for (std::size_t r = 0; r < P; ++r) merged.merge(per_vp[r].*member);
    if (merged.count() == 0) return;
    rep.metrics.push_back({name, merged.count(), merged.quantile(0.50),
                           merged.quantile(0.95), merged.max()});
  };
  add_metric("exchange_bytes", &VpMetrics::exchange_bytes);
  add_metric("slot_bytes", &VpMetrics::slot_bytes);
  add_metric("barrier_skew_us", &VpMetrics::barrier_skew_us);
  return rep;
}

}  // namespace bsort::obs
