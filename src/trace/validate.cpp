#include "trace/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace bsort::trace {

MeasuredMetrics measure(const obs::VpSpans& ring) {
  MeasuredMetrics m;
  m.dropped = ring.dropped();
  for_each_exchange(ring, [&m](const obs::SpanRecord& e, const PhaseDelta&) {
    ++m.exchanges;
    if (e.remap >= 0) ++m.remaps;
    m.elements += e.elements;
    m.messages += e.messages;
    m.charged_us += e.sim_us();
  });
  return m;
}

bool ValidationReport::all_ok() const {
  for (const auto& v : vps) {
    if (!v.ok()) return false;
  }
  return !vps.empty();
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << "validate[" << loggp::strategy_name(strategy) << "]: ";
  if (all_ok()) {
    os << "ok (" << vps.size() << " VPs, R=" << vps.front().measured.remaps
       << " V=" << vps.front().measured.elements << " M=" << vps.front().measured.messages
       << ")";
    return os.str();
  }
  os << "FAILED";
  for (const auto& v : vps) {
    if (v.ok()) continue;
    os << "\n  vp " << v.vp << ":";
    if (!v.complete) os << " ring overflow (dropped " << v.measured.dropped << ")";
    if (!v.remaps_ok) {
      os << " R " << v.measured.remaps << "!=" << v.predicted.remaps;
    }
    if (!v.elements_ok) {
      os << " V " << v.measured.elements << "!=" << v.predicted.elements;
    }
    if (!v.messages_ok) {
      os << " M " << v.measured.messages << "!=" << v.predicted.messages;
    }
    if (!v.time_ok) {
      os << " T " << v.measured.charged_us << "us!=" << v.predicted_time_us << "us";
    }
  }
  return os.str();
}

ValidationReport validate_run(const simd::Machine& m, loggp::Strategy strategy,
                              std::uint64_t keys_per_proc, double rel_tol) {
  constexpr int kElemBytes = 4;  // std::uint32_t keys
  const auto P = static_cast<std::uint64_t>(m.nprocs());
  const bool long_mode = m.mode() == simd::MessageMode::kLong;
  const auto pred = loggp::predict(strategy, m.params(), keys_per_proc, P, kElemBytes);
  const double pred_time = long_mode ? pred.time_long_us : pred.time_short_us;

  ValidationReport report;
  report.strategy = strategy;
  report.vps.reserve(static_cast<std::size_t>(m.nprocs()));
  for (int r = 0; r < m.nprocs(); ++r) {
    VpValidation v;
    v.vp = r;
    v.measured = measure(m.vp_spans(r));
    v.predicted = pred.metrics;
    v.predicted_time_us = pred_time;
    v.complete = v.measured.dropped == 0;
    v.remaps_ok = v.measured.remaps == pred.metrics.remaps;
    v.elements_ok = v.measured.elements == pred.metrics.elements;
    // In short mode the machine charges one message per element, so M
    // carries no independent information — the check is vacuous there.
    v.messages_ok = !long_mode || v.measured.messages == pred.metrics.messages;
    const double denom = std::max(std::abs(pred_time), 1e-12);
    v.time_ok = std::abs(v.measured.charged_us - pred_time) <= rel_tol * denom;
    report.vps.push_back(v);
  }
  return report;
}

}  // namespace bsort::trace
