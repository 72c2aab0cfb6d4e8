#include "trace/jsonl.hpp"

#include <vector>

#include "trace/events.hpp"
#include "trace/validate.hpp"
#include "util/json.hpp"

namespace bsort::trace {

std::size_t write_jsonl(std::ostream& os, const simd::Machine& m, const TraceMeta& meta) {
  // vp_spans() throws on a machine that is not recording: fetch every
  // ring before anything is written.
  std::vector<const obs::VpSpans*> rings;
  for (int r = 0; r < m.nprocs(); ++r) rings.push_back(&m.vp_spans(r));
  const auto& p = m.params();
  os << "{\"type\":\"meta\",\"label\":";
  util::write_json_string(os, meta.label);
  os << ",\"algorithm\":";
  util::write_json_string(os, meta.algorithm);
  os << ",\"keys_per_proc\":" << meta.keys_per_proc << ",\"nprocs\":" << m.nprocs()
     << ",\"mode\":\"" << (m.mode() == simd::MessageMode::kLong ? "long" : "short")
     << "\",\"L\":";
  util::write_json_number(os, p.L);
  os << ",\"o\":";
  util::write_json_number(os, p.o);
  os << ",\"g\":";
  util::write_json_number(os, p.g);
  os << ",\"G\":";
  util::write_json_number(os, p.G);
  os << ",\"dropped\":[";
  for (int r = 0; r < m.nprocs(); ++r) {
    if (r > 0) os << ',';
    os << rings[static_cast<std::size_t>(r)]->dropped();
  }
  os << "]}\n";

  std::size_t written = 0;
  const auto prec = os.precision(9);
  for (int r = 0; r < m.nprocs(); ++r) {
    for_each_exchange(*rings[static_cast<std::size_t>(r)], [&](const obs::SpanRecord& e, const PhaseDelta& d) {
      os << "{\"type\":\"exchange\",\"vp\":" << r << ",\"seq\":" << e.arg
         << ",\"remap\":" << e.remap << ",\"group_log2\":" << e.group_log2
         << ",\"layout_from\":\"" << layout_tag_name(e.layout_from) << "\",\"layout_to\":\""
         << layout_tag_name(e.layout_to) << "\",\"peers\":" << e.peers
         << ",\"elements\":" << e.elements << ",\"messages\":" << e.messages
         << ",\"charged_us\":";
      util::write_json_number(os, e.sim_us());
      os << ",\"compute_us\":";
      util::write_json_number(os, d.compute_us);
      os << ",\"pack_us\":";
      util::write_json_number(os, d.pack_us);
      os << ",\"unpack_us\":";
      util::write_json_number(os, d.unpack_us);
      os << ",\"clock_us\":";
      util::write_json_number(os, e.sim_end_us);
      os << ",\"faults\":" << static_cast<int>(e.fault_mask) << "}\n";
      ++written;
    });
  }
  os.precision(prec);
  return written;
}

}  // namespace bsort::trace
