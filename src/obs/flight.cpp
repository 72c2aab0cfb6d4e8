#include "obs/flight.hpp"

#include "fault/retry.hpp"
#include "util/json.hpp"

namespace bsort::obs {

const char* flight_event_name(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kSubmitted: return "submitted";
    case FlightEventKind::kEnqueued: return "enqueued";
    case FlightEventKind::kQueueFull: return "queue-full";
    case FlightEventKind::kDispatched: return "dispatched";
    case FlightEventKind::kBatchDone: return "batch-done";
    case FlightEventKind::kRetryScheduled: return "retry-scheduled";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kDeadlineMiss: return "deadline-miss";
    case FlightEventKind::kCancelled: return "cancelled";
    case FlightEventKind::kCompleted: return "completed";
    case FlightEventKind::kFailed: return "failed";
    case FlightEventKind::kHealthCheck: return "health-check";
    case FlightEventKind::kQuarantined: return "quarantined";
    case FlightEventKind::kReplaced: return "replaced";
    case FlightEventKind::kStopped: return "stopped";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : buf_(capacity), epoch_(Clock::now()) {}

double FlightRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

double FlightRecorder::record(FlightRecord r, const FlightSample& s) {
  r.t_us = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  r.seq = seq_++;
  // The one switch: which histograms each kind feeds.  Every kind
  // counts; counters are numbers of records.
  ++metrics_.events[static_cast<int>(r.kind)];
  switch (r.kind) {
    case FlightEventKind::kEnqueued:
      if (r.a > 1) ++metrics_.sharded;
      metrics_.shard_fanout.record(static_cast<double>(r.a));
      break;
    case FlightEventKind::kBatchDone:
      metrics_.batch_occupancy.record(s.batch_size);
      break;
    case FlightEventKind::kCompleted:
      metrics_.queue_us.record(s.queue_us);
      metrics_.run_us.record(s.run_us);
      metrics_.total_us.record(s.total_us);
      metrics_.class_total_us[s.priority].record(s.total_us);
      break;
    default:
      break;
  }
  if (buf_.empty()) {
    ++dropped_;
  } else if (count_ == buf_.size()) {
    buf_[head_] = r;
    head_ = (head_ + 1) % buf_.size();
    ++dropped_;
  } else {
    buf_[(head_ + count_) % buf_.size()] = r;
    ++count_;
  }
  return r.t_us;
}

ServiceMetrics FlightRecorder::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

void write_flight_record(std::ostream& os, const FlightRecord& r) {
  os << "{\"seq\":" << r.seq << ",\"t_us\":";
  util::write_json_number(os, r.t_us);
  os << ",\"event\":\"" << flight_event_name(r.kind) << "\",\"request\":\""
     << util::hex_id(r.trace_id) << "\"";
  if (r.slot != kNoFlightSlot) os << ",\"slot\":" << r.slot;
  if (r.attempt != 0) os << ",\"attempt\":" << r.attempt;
  if (r.shard != 0) os << ",\"shard\":" << r.shard;
  if (r.error_class != 0) {
    os << ",\"class\":\""
       << fault::failure_class_name(
              static_cast<fault::FailureClass>(r.error_class - 1))
       << "\"";
  }
  os << ",\"a\":" << r.a << ",\"b\":" << r.b << "}";
}

std::size_t FlightRecorder::dump_jsonl(std::ostream& os) const {
  std::vector<FlightRecord> records = snapshot();
  std::uint64_t drops;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drops = dropped_;
  }
  os << "{\"type\":\"meta\",\"schema\":\"bsort-flight-v1\",\"capacity\":"
     << buf_.size() << ",\"recorded\":" << records.size()
     << ",\"dropped\":" << drops << "}\n";
  for (const FlightRecord& r : records) {
    write_flight_record(os, r);
    os << "\n";
  }
  return records.size();
}

}  // namespace bsort::obs
