// Benchmark-side spans: one record around every call the benchmark makes
// into a layer of the library (name, start, end, parent span, request
// trace ID).  Spans stay in memory and are written once, at exit, as a
// Chrome/Perfetto trace-event file; nothing is written while timing.
//
// Only the benchmark's own thread records, so no locking is needed.  The
// log is bounded: once `capacity` spans are held, later spans are counted
// as dropped instead of growing memory without limit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name = "";
    double t0_us = 0;  ///< microseconds since the log's epoch
    double t1_us = 0;
    int parent = kNoParent;
    std::uint64_t trace_id = 0;  ///< service request ID, 0 for bulk calls
    bool async = false;          ///< overlaps its siblings (service requests)
  };

  SpanLog(bool enabled, std::size_t capacity)
      : enabled_(enabled), capacity_(capacity), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(capacity_);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Record a finished span; returns its index (kNoParent when disabled
  /// or full, so children of a dropped span become roots).
  int add(const char* name, Clock::time_point t0, Clock::time_point t1,
          int parent = kNoParent, std::uint64_t trace_id = 0, bool async = false) {
    if (!enabled_) return kNoParent;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back({name, us(t0), us(t1), parent, trace_id, async});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Open a span whose end is not known yet (a parent); close() sets it.
  int open(const char* name, int parent = kNoParent) {
    const auto now = Clock::now();
    return add(name, now, now, parent);
  }
  void close(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].t1_us = us(Clock::now());
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Self time per span name, in ms: each span's duration minus the part
  /// of it that its children's intervals cover (their union, so
  /// overlapping async children are not double-counted).
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.t0_us, s.t1_us});
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0, end = spans_[i].t0_us;
      for (const auto& [a, b] : k) {
        const double lo = std::max(a, end);
        const double hi = std::min(b, spans_[i].t1_us);
        if (hi > lo) covered += hi - lo;
        end = std::max(end, b);
      }
      out[spans_[i].name] += (spans_[i].t1_us - spans_[i].t0_us - covered) / 1e3;
    }
    return out;
  }

  /// Chrome trace-event JSON: synchronous spans as complete ("X") events
  /// on the benchmark thread's track; async spans (service requests, which
  /// overlap) as "b"/"e" pairs keyed by their trace ID.
  void write_chrome(std::ostream& os, const std::string& process_name) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":";
    bsort::util::write_json_string(os, process_name);
    os << "}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const auto args = [&] {
        os << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent;
        if (s.trace_id != 0) os << ",\"trace_id\":\"" << bsort::util::hex_id(s.trace_id) << "\"";
        os << "}}";
      };
      if (s.async) {
        const std::string id = bsort::util::hex_id(s.trace_id != 0 ? s.trace_id : i);
        os << ",\n{\"ph\":\"b\",\"cat\":\"request\",\"name\":\"" << s.name << "\",\"id\":\""
           << id << "\",\"pid\":1,\"tid\":0,\"ts\":" << s.t0_us;
        args();
        os << ",\n{\"ph\":\"e\",\"cat\":\"request\",\"name\":\"" << s.name << "\",\"id\":\""
           << id << "\",\"pid\":1,\"tid\":0,\"ts\":" << s.t1_us << "}";
      } else {
        os << ",\n{\"ph\":\"X\",\"cat\":\"bench\",\"name\":\"" << s.name
           << "\",\"pid\":1,\"tid\":0,\"ts\":" << s.t0_us << ",\"dur\":" << s.t1_us - s.t0_us;
        args();
      }
    }
    os << "\n]}\n";
  }

 private:
  bool enabled_;
  std::size_t capacity_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace e2e
