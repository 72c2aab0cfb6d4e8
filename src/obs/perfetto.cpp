#include "obs/perfetto.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "obs/spans.hpp"
#include "simd/machine.hpp"
#include "util/json.hpp"

namespace bsort::obs {

namespace {

/// Category string for a slice: lets the Perfetto UI filter the
/// Machine-emitted leaves apart from the sorts' structural spans.
const char* span_category(SpanKind k) {
  return span_kind_is_leaf(k) ? "leaf" : "structural";
}

void write_event_prefix(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "  ";
}

void emit_process_name(std::ostream& os, bool& first, int pid,
                       const std::string& name) {
  write_event_prefix(os, first);
  os << R"({"name":"process_name","ph":"M","pid":)" << pid
     << R"(,"args":{"name":)";
  util::write_json_string(os, name);
  os << "}}";
}

void emit_thread_name(std::ostream& os, bool& first, int pid, int tid,
                      const std::string& name) {
  write_event_prefix(os, first);
  os << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
     << tid << R"(,"args":{"name":)";
  util::write_json_string(os, name);
  os << "}}";
}

void emit_machine_thread_names(std::ostream& os, bool& first,
                               const simd::Machine& machine, int pid) {
  for (int r = 0; r < machine.nprocs(); ++r) {
    std::ostringstream name;
    name << "vp " << r;
    emit_thread_name(os, first, pid, r, name.str());
  }
}

/// One VP track's slices + fault instants, in begin-timestamp order
/// with enclosing spans first, shifted by `ts_offset_us`.
void emit_machine_spans(std::ostream& os, bool& first,
                        const simd::Machine& machine, int pid,
                        double ts_offset_us) {
  std::vector<SpanRecord> recs;
  for (int r = 0; r < machine.nprocs(); ++r) {
    const VpSpans& ring = machine.vp_spans(r);
    recs.assign(ring.size(), SpanRecord{});
    for (std::size_t i = 0; i < ring.size(); ++i) recs[i] = ring[i];
    // Rings hold spans in END order; tracks must be in BEGIN order with
    // enclosing spans first so viewers reconstruct the nesting.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                       if (a.sim_begin_us != b.sim_begin_us) {
                         return a.sim_begin_us < b.sim_begin_us;
                       }
                       return a.sim_us() > b.sim_us();
                     });

    for (const SpanRecord& rec : recs) {
      write_event_prefix(os, first);
      if (rec.kind == SpanKind::kFault) {
        os << R"({"name":"fault","cat":"fault","ph":"i","s":"t","ts":)";
        util::write_json_number(os, rec.sim_begin_us + ts_offset_us);
        os << R"(,"pid":)" << pid << R"(,"tid":)" << r
           << R"(,"args":{"mask":)" << static_cast<int>(rec.fault_mask)
           << R"(,"exchange":)" << rec.arg << "}}";
        continue;
      }
      os << "{\"name\":";
      util::write_json_string(os, span_kind_name(rec.kind));
      os << ",\"cat\":\"" << span_category(rec.kind) << R"(","ph":"X","ts":)";
      util::write_json_number(os, rec.sim_begin_us + ts_offset_us);
      os << ",\"dur\":";
      util::write_json_number(os, rec.sim_us());
      os << R"(,"pid":)" << pid << R"(,"tid":)" << r
         << R"(,"args":{"host_us":)";
      util::write_json_number(os, rec.host_us());
      if (rec.arg >= 0) os << ",\"ordinal\":" << rec.arg;
      os << "}}";
    }
  }
}

}  // namespace

void write_perfetto(std::ostream& os, const simd::Machine& machine,
                    const PerfettoMeta& meta) {
  // Timestamps are simulated microseconds; 15 significant digits keep
  // sub-nanosecond resolution over any realistic run length.
  os << std::setprecision(15);
  os << "{\"traceEvents\":[\n";
  bool first = true;

  emit_process_name(os, first, meta.pid, meta.process_name);
  emit_machine_thread_names(os, first, machine, meta.pid);
  emit_machine_spans(os, first, machine, meta.pid, 0.0);

  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

namespace {

/// Queue-track tids: the queue itself is tid 0, pool slot s is 1 + s.
constexpr int kQueueTid = 0;

/// Flight events that end a request's life on the queue track (a
/// request-scoped `stopped` is a submit refused after shutdown).
bool is_terminal(const FlightRecord& e) {
  switch (e.kind) {
    case FlightEventKind::kQueueFull:
    case FlightEventKind::kDeadlineMiss:
    case FlightEventKind::kShed:
    case FlightEventKind::kCancelled:
    case FlightEventKind::kCompleted:
    case FlightEventKind::kFailed:
      return true;
    case FlightEventKind::kStopped:
      return e.trace_id != 0;
    default:
      return false;
  }
}

void emit_queue_depth(std::ostream& os, bool& first, int pid, double ts,
                      std::int64_t depth) {
  write_event_prefix(os, first);
  os << R"({"name":"queue depth","ph":"C","pid":)" << pid << R"(,"ts":)";
  util::write_json_number(os, ts);
  os << R"(,"args":{"fragments":)" << depth << "}}";
}

/// One anchor slice on the queue track: a fixed-width (1us) marker a
/// flow arrow can start from / end at.
void emit_anchor(std::ostream& os, bool& first, int pid,
                 const FlightRecord& e) {
  write_event_prefix(os, first);
  os << "{\"name\":";
  std::ostringstream name;
  name << flight_event_name(e.kind) << " " << util::hex_id(e.trace_id);
  util::write_json_string(os, name.str());
  os << R"(,"cat":"request","ph":"X","ts":)";
  util::write_json_number(os, e.t_us);
  os << R"(,"dur":1,"pid":)" << pid << R"(,"tid":)" << kQueueTid
     << R"(,"args":{"request":")" << util::hex_id(e.trace_id)
     << R"(","a":)" << e.a << R"(,"b":)" << e.b << "}}";
}

/// One flow event ("s"/"t"/"f") for a request's arrow chain.  The id is
/// the request's trace ID as a hex string (64-bit safe in JSON); name
/// and category are constant across the chain, as the format requires.
/// `bp:"e"` binds the arrow to the ENCLOSING slice (the anchor or the
/// batch-run slice the event sits inside) instead of the next to begin.
void emit_flow(std::ostream& os, bool& first, const char* ph, int pid,
               int tid, double ts, std::uint64_t trace_id) {
  write_event_prefix(os, first);
  os << R"({"name":"request","cat":"request","ph":")" << ph
     << R"(","id":")" << util::hex_id(trace_id) << R"(","bp":"e","ts":)";
  util::write_json_number(os, ts);
  os << R"(,"pid":)" << pid << R"(,"tid":)" << tid << "}";
}

/// A batch-run slice being assembled from kDispatched events until its
/// kBatchDone arrives.
struct OpenBatch {
  double start_ts = 0;
  std::uint32_t slot = 0;
  std::vector<std::uint64_t> requests;
};

void emit_batch_slice(std::ostream& os, bool& first, int pid,
                      std::int64_t ordinal, const OpenBatch& b, double end_ts,
                      double run_us, std::uint8_t error_class) {
  write_event_prefix(os, first);
  std::ostringstream name;
  name << "batch " << ordinal;
  os << "{\"name\":";
  util::write_json_string(os, name.str());
  os << R"(,"cat":"batch","ph":"X","ts":)";
  util::write_json_number(os, b.start_ts);
  os << ",\"dur\":";
  util::write_json_number(os, std::max(end_ts - b.start_ts, 1.0));
  os << R"(,"pid":)" << pid << R"(,"tid":)" << 1 + static_cast<int>(b.slot)
     << R"(,"args":{"run_us":)";
  util::write_json_number(os, run_us);
  os << ",\"requests\":[";
  for (std::size_t i = 0; i < b.requests.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << util::hex_id(b.requests[i]) << "\"";
  }
  os << "]";
  if (error_class != 0) os << R"(,"failed":true)";
  os << "}}";
}

}  // namespace

void write_service_perfetto(std::ostream& os,
                            const std::vector<FlightRecord>& events,
                            const std::vector<ServiceMachineTrack>& machines,
                            const ServicePerfettoMeta& meta) {
  os << std::setprecision(15);
  os << "{\"traceEvents\":[\n";
  bool first = true;

  // ---- metadata first, in (pid, tid) order: the layout is stable no
  // matter what the ring happened to retain.
  int slots = meta.pool_size;
  for (const FlightRecord& e : events) {
    if (e.slot != kNoFlightSlot) {
      slots = std::max(slots, static_cast<int>(e.slot) + 1);
    }
  }
  slots = std::max(slots, static_cast<int>(machines.size()));

  emit_process_name(os, first, meta.pid, meta.process_name);
  emit_thread_name(os, first, meta.pid, kQueueTid, "queue");
  for (int s = 0; s < slots; ++s) {
    std::ostringstream name;
    name << "slot " << s;
    emit_thread_name(os, first, meta.pid, 1 + s, name.str());
  }
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const int pid = meta.pid + 1 + static_cast<int>(i);
    emit_process_name(os, first, pid, machines[i].name);
    if (machines[i].machine != nullptr) {
      emit_machine_thread_names(os, first, *machines[i].machine, pid);
    }
  }

  // ---- service-tier events, in flight-recorder (seq) order, which is
  // also timestamp order — flow events of one id must be emitted
  // chronologically.
  std::map<std::int64_t, OpenBatch> open;  // batch ordinal -> slices
  std::vector<std::uint64_t> flowing;      // ids whose "s" was emitted
  const auto flow_started = [&](std::uint64_t id) {
    return std::find(flowing.begin(), flowing.end(), id) != flowing.end();
  };
  double last_ts = 0;
  for (const FlightRecord& e : events) {
    last_ts = std::max(last_ts, e.t_us);
    switch (e.kind) {
      case FlightEventKind::kSubmitted:
        emit_anchor(os, first, meta.pid, e);
        emit_flow(os, first, "s", meta.pid, kQueueTid, e.t_us + 0.25,
                  e.trace_id);
        flowing.push_back(e.trace_id);
        break;
      case FlightEventKind::kEnqueued:
      case FlightEventKind::kRetryScheduled:
        emit_queue_depth(os, first, meta.pid, e.t_us, e.b);
        break;
      case FlightEventKind::kQueueFull:
        emit_queue_depth(os, first, meta.pid, e.t_us, e.a);
        break;
      case FlightEventKind::kDispatched: {
        emit_queue_depth(os, first, meta.pid, e.t_us, e.b);
        OpenBatch& b = open[e.a];
        if (b.requests.empty()) {
          b.start_ts = e.t_us;
          b.slot = e.slot;
        }
        b.requests.push_back(e.trace_id);
        if (flow_started(e.trace_id)) {
          emit_flow(os, first, "t", meta.pid,
                    1 + static_cast<int>(e.slot), e.t_us + 0.25, e.trace_id);
        }
        break;
      }
      case FlightEventKind::kBatchDone: {
        const auto it = open.find(e.a);
        if (it != open.end()) {
          emit_batch_slice(os, first, meta.pid, e.a, it->second, e.t_us,
                           static_cast<double>(e.b), e.error_class);
          open.erase(it);
        }
        break;
      }
      default:
        break;
    }
    if (is_terminal(e)) {
      emit_anchor(os, first, meta.pid, e);
      if (flow_started(e.trace_id)) {
        emit_flow(os, first, "f", meta.pid, kQueueTid, e.t_us + 0.25,
                  e.trace_id);
      }
    }
  }
  // Batches still open when the recorder was dumped (mid-run snapshot).
  for (const auto& [ordinal, b] : open) {
    emit_batch_slice(os, first, meta.pid, ordinal, b, last_ts, 0.0, 0);
  }

  // ---- pool machine processes: the last profiled run of each member,
  // shifted onto the service clock.
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].machine == nullptr) continue;
    const int pid = meta.pid + 1 + static_cast<int>(i);
    emit_machine_spans(os, first, *machines[i].machine, pid,
                       machines[i].ts_offset_us);
  }

  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace bsort::obs
