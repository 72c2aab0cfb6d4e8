// The observability subsystem: log-scale histogram math, the span ring,
// the leaf-span clock-tiling invariant, RunReport v2 aggregation, the Perfetto exporter (parsed
// back with a strict JSON parser) and the watchdog's span diagnosis.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/parallel_sort.hpp"
#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "loggp/params.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "simd/machine.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace bsort {
namespace {

using testing::run_blocked_spmd_on;

// ---- a strict little JSON parser ------------------------------------
// Just enough to round-trip what our exporters write: objects, arrays,
// strings with the standard escapes, numbers, booleans, null.  Throws
// on anything malformed, including trailing garbage — so a test that
// parses an exported document proves the document is valid JSON, not
// merely JSON-shaped.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return literal("true", v);
      }
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        return literal("false", v);
      }
      case 'n': return literal("null", JsonValue{});
      default: return number_value();
    }
  }

  JsonValue literal(const char* lit, JsonValue v) {
    for (const char* c = lit; *c; ++c) expect(*c);
    return v;
  }

  JsonValue number_value() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char in string");
      if (c != '\\') {
        v.string += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("bad escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          if (code > 0xFF) fail("test parser only handles \\u00XX");
          v.string += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- json_escape ----------------------------------------------------

TEST(JsonEscape, HostileStringsStayValidJson) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(util::json_escape(std::string(1, '\x1f')), "\\u001f");

  // Round-trip through the strict parser.
  const std::string hostile = "x\"\\\b\f\n\r\t\x01 end";
  std::ostringstream os;
  os << '"' << util::json_escape(hostile) << '"';
  const std::string text = os.str();
  const JsonValue v = JsonParser(text).parse();
  EXPECT_EQ(v.string, hostile);
}

// ---- LogHistogram ---------------------------------------------------

TEST(LogHistogram, EmptyHistogramIsAllZero) {
  obs::LogHistogram h;
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, SingleSampleEveryQuantileIsTheSample) {
  obs::LogHistogram h;
  h.clear();
  h.record(37.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 37.5);
  EXPECT_DOUBLE_EQ(h.sum(), 37.5);
  // Quantiles are clamped to the exact max, so with one sample they are
  // exact at every q despite the log-bucket estimate.
  EXPECT_LE(h.quantile(0.0), 37.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), h.quantile(0.99));
  EXPECT_LE(h.quantile(1.0), 37.5);
  EXPECT_GE(h.quantile(1.0), 32.0);  // inside [2^5, 2^6)
}

TEST(LogHistogram, SubUnitAndNegativeSamplesLandInBucketZero) {
  obs::LogHistogram h;
  h.clear();
  h.record(0.0);
  h.record(0.25);
  h.record(-5.0);  // clamps to 0
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_LE(h.quantile(0.99), 1.0);
}

TEST(LogHistogram, HugeSamplesSaturateTheLastBucket) {
  obs::LogHistogram h;
  h.clear();
  const double huge = std::ldexp(1.0, 80);  // 2^80 >> 2^63
  h.record(huge);
  h.record(huge * 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(obs::kHistBuckets - 1), 2u);
  EXPECT_DOUBLE_EQ(h.max(), huge * 2);
  // The bucket estimate would explode; the clamp keeps it at the max.
  EXPECT_LE(h.quantile(0.95), huge * 2);
}

TEST(LogHistogram, QuantilesAreMonotoneAndBucketAccurate) {
  obs::LogHistogram h;
  h.clear();
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  double prev = 0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // The p50 of 1..1000 is ~500; a log2 bucket estimate must land within
  // the covering bucket [256, 512].
  EXPECT_GE(h.quantile(0.5), 256.0);
  EXPECT_LE(h.quantile(0.5), 512.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(LogHistogram, ExtremeQuantilesArePinned) {
  // q = 0 and q = 1 are the edges the interpolation math is most
  // likely to get wrong: the rank clamps to 1 at q = 0 (not 0, which
  // would index before the first sample) and q = 1 must always report
  // the exact recorded max, never a bucket upper bound past it.
  obs::LogHistogram h;
  h.clear();
  for (const double v : {3.0, 20.0, 700.0}) h.record(v);
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(0.0), 4.0);  // inside the first sample's bucket [2,4)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 700.0);
  // Out-of-range q clamps instead of reading past the buckets.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(LogHistogram, EmptyHistogramEdgeQuantilesAreZero) {
  obs::LogHistogram h;
  h.clear();
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 0.0);
}

TEST(LogHistogram, SingleSampleEdgeQuantilesClampToMax) {
  obs::LogHistogram h;
  h.clear();
  h.record(5.0);
  // One sample: every q lands on rank 1; the estimate interpolates in
  // [4, 8) but the exact-max clamp pins it to exactly 5.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(LogHistogram, BucketZeroQuantilesInterpolateFromZero) {
  // Bucket 0 spans [0, 2) — including all clamped-negative and
  // sub-unit samples — so quantiles there must interpolate from 0,
  // not from 2^0 = 1.
  obs::LogHistogram h;
  h.clear();
  h.record(0.0);
  h.record(0.5);
  h.record(1.5);
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LT(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);  // clamped to exact max
  double prev = 0;
  for (const double q : {0.0, 0.3, 0.6, 0.9, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(LogHistogram, MergeAddsCountsAndKeepsExactMax) {
  obs::LogHistogram a, b;
  a.clear();
  b.clear();
  a.record(2.0);
  a.record(3.0);
  b.record(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_DOUBLE_EQ(a.sum(), 105.0);
  EXPECT_EQ(b.count(), 1u);  // merge source untouched
}

TEST(ExactQuantile, SmallSampleMath) {
  EXPECT_DOUBLE_EQ(obs::exact_quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::exact_quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(obs::exact_quantile({7.0}, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(obs::exact_quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(obs::exact_quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

// ---- VpSpans ring ---------------------------------------------------

TEST(VpSpans, OverwritesOldestWhenFull) {
  obs::VpSpans ring;
  ring.reset(3);
  for (int i = 0; i < 5; ++i) {
    obs::SpanRecord r;
    r.arg = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].arg, static_cast<std::int32_t>(2 + i));
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
}

TEST(VpSpans, ZeroCapacityDropsEverything) {
  obs::VpSpans ring;
  ring.reset(0);
  ring.push(obs::SpanRecord{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(SpanKinds, LeafClassificationAndNames) {
  EXPECT_TRUE(obs::span_kind_is_leaf(obs::SpanKind::kCompute));
  EXPECT_TRUE(obs::span_kind_is_leaf(obs::SpanKind::kBarrierWait));
  EXPECT_TRUE(obs::span_kind_is_leaf(obs::SpanKind::kStraggler));
  EXPECT_FALSE(obs::span_kind_is_leaf(obs::SpanKind::kRemap));
  EXPECT_FALSE(obs::span_kind_is_leaf(obs::SpanKind::kFault));
  EXPECT_STREQ(obs::span_kind_name(obs::SpanKind::kBarrierWait), "barrier-wait");
  EXPECT_STREQ(obs::span_kind_name(obs::SpanKind::kRemap), "remap");
}

// ---- Machine integration --------------------------------------------

simd::Machine make_machine(int nprocs) {
  return simd::Machine(nprocs, loggp::meiko_cs2(), simd::MessageMode::kLong);
}

// The central invariant of the two-layer span model: leaf spans tile
// every VP's simulated clock exactly, so their durations sum to the
// VP's final clock (= RunReport::proc_us).
TEST(SpanProfiler, LeafSpansTileTheSimulatedClock) {
  const int P = 8;
  const std::size_t n = 1u << 10;
  auto m = make_machine(P);
  m.enable_profiling(1u << 16);
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 3);
  const auto rep = run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  for (int r = 0; r < P; ++r) {
    const auto& ring = m.vp_spans(r);
    ASSERT_EQ(ring.dropped(), 0u) << "ring too small for the invariant check";
    ASSERT_GT(ring.size(), 0u);
    double leaf_sum = 0;
    double prev_leaf_end = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const auto& s = ring[i];
      EXPECT_GE(s.sim_end_us, s.sim_begin_us);
      if (obs::span_kind_is_leaf(s.kind)) {
        // Leaf spans never overlap one another.
        EXPECT_GE(s.sim_begin_us, prev_leaf_end - 1e-9);
        prev_leaf_end = s.sim_end_us;
        leaf_sum += s.sim_us();
      }
    }
    EXPECT_NEAR(leaf_sum, rep.proc_us[static_cast<std::size_t>(r)],
                1e-6 * std::max(1.0, rep.proc_us[static_cast<std::size_t>(r)]))
        << "vp " << r;
  }
}

// Per-VP metric counters must agree with both the span ring and the
// RunReport v2 aggregate built from them.
TEST(SpanProfiler, MetricsAggregateIntoRunReport) {
  const int P = 4;
  const std::size_t n = 1u << 10;
  auto m = make_machine(P);
  m.enable_profiling(1u << 14);
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 11);
  const auto rep = run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::blocked_merge_sort(p, s);
  });
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  ASSERT_TRUE(rep.obs.enabled);

  // Cross-check one VP's counters against its span ring.
  const auto& mx = m.vp_metrics(0);
  EXPECT_GT(mx.exchanges, 0u);
  EXPECT_GT(mx.barriers, 0u);
  EXPECT_EQ(mx.exchange_bytes.count(), mx.exchanges);
  EXPECT_EQ(mx.barrier_skew_us.count(), mx.barriers);
  const auto& ring = m.vp_spans(0);
  double compute_us = 0;
  std::uint64_t compute_count = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].kind == obs::SpanKind::kCompute) {
      compute_us += ring[i].sim_us();
      ++compute_count;
    }
  }
  const auto k = static_cast<std::size_t>(obs::SpanKind::kCompute);
  EXPECT_EQ(mx.span_count[k], compute_count);
  EXPECT_NEAR(mx.span_us[k], compute_us, 1e-6 * std::max(1.0, compute_us));

  // The aggregate carries a row for every span kind seen, and the
  // totals are the cross-VP sums.
  ASSERT_FALSE(rep.obs.phases.empty());
  double exch_total = 0;
  std::uint64_t exch_count = 0;
  const auto ke = static_cast<std::size_t>(obs::SpanKind::kExchange);
  for (int r = 0; r < P; ++r) {
    exch_total += m.vp_metrics(r).span_us[ke];
    exch_count += m.vp_metrics(r).span_count[ke];
  }
  bool found = false;
  for (const auto& ph : rep.obs.phases) {
    if (std::string(ph.name) == "exchange") {
      found = true;
      EXPECT_EQ(ph.count, exch_count);
      EXPECT_NEAR(ph.total_us, exch_total, 1e-6 * std::max(1.0, exch_total));
      EXPECT_LE(ph.p50_us, ph.p95_us);
      EXPECT_LE(ph.p95_us, ph.max_us);
    }
  }
  EXPECT_TRUE(found);
  bool found_hist = false;
  for (const auto& ms : rep.obs.metrics) {
    if (std::string(ms.name) == "exchange_bytes") {
      found_hist = true;
      EXPECT_GT(ms.count, 0u);
      EXPECT_LE(ms.p50, ms.max);
    }
  }
  EXPECT_TRUE(found_hist);

  // Re-running without profiling leaves the report empty again.
  m.disable_profiling();
  auto keys2 = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 12);
  const auto rep2 = run_blocked_spmd_on(m, keys2, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::blocked_merge_sort(p, s);
  });
  EXPECT_FALSE(rep2.obs.enabled);
  EXPECT_TRUE(rep2.obs.phases.empty());
}

TEST(SpanProfiler, ApiConfigEnablesProfiling) {
  api::Config cfg;
  cfg.nprocs = 4;
  cfg.algorithm = api::Algorithm::kSmartBitonic;
  cfg.profile_spans = 4096;
  auto keys = util::generate_keys(4096, util::KeyDistribution::kUniform31, 21);
  const auto outcome = api::parallel_sort(keys, cfg);
  ASSERT_TRUE(outcome.sorted);
  EXPECT_TRUE(outcome.report.obs.enabled);
  EXPECT_FALSE(outcome.report.obs.phases.empty());
}

// ---- Perfetto exporter ----------------------------------------------

TEST(Perfetto, ExportParsesStrictlyAndTracksAreMonotone) {
  const int P = 4;
  const std::size_t n = 1u << 10;
  auto m = make_machine(P);
  m.enable_profiling(1u << 14);
  // A straggler fault makes the export exercise the instant-event path.
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kStraggler;
  rule.rank = 1;
  rule.exchange = 0;
  rule.delay_us = 100.0;
  plan.rules.push_back(rule);
  m.arm_faults(plan);
  auto keys = util::generate_keys(n * P, util::KeyDistribution::kUniform31, 9);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  // A hostile label must not break the JSON.
  obs::PerfettoMeta meta;
  meta.process_name = "smart \"P=4\"\n\\end";
  std::ostringstream os;
  obs::write_perfetto(os, m, meta);
  const std::string text = os.str();
  const JsonValue doc = JsonParser(text).parse();

  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& events = doc.at("traceEvents").array;
  ASSERT_FALSE(events.empty());

  bool saw_process_name = false;
  int thread_names = 0;
  int fault_instants = 0;
  std::map<int, double> last_ts;  // per-track monotonicity
  std::map<int, int> slices;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") {
      if (e.at("name").string == "process_name") {
        saw_process_name = true;
        EXPECT_EQ(e.at("args").at("name").string, meta.process_name);
      }
      if (e.at("name").string == "thread_name") ++thread_names;
      continue;
    }
    const int tid = static_cast<int>(e.at("tid").number);
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, P);
    const double ts = e.at("ts").number;
    if (ph == "i") {
      EXPECT_EQ(e.at("s").string, "t");
      if (e.at("cat").string == "fault") ++fault_instants;
    } else {
      ASSERT_EQ(ph, "X");
      EXPECT_GE(e.at("dur").number, 0.0);
      ++slices[tid];
    }
    // Events are emitted in begin-timestamp order per track.
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second - 1e-9) << "tid " << tid;
    }
    last_ts[tid] = ts;
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_EQ(thread_names, P);
  EXPECT_EQ(fault_instants, 1);  // exactly the injected straggler
  for (int r = 0; r < P; ++r) EXPECT_GT(slices[r], 0) << "vp " << r;
}

// ---- watchdog span diagnosis ----------------------------------------

TEST(WatchdogSpans, TimeoutNamesTheOpenSpan) {
  auto m = make_machine(2);
  m.set_watchdog(0.05);
  try {
    m.run([](simd::Proc& p) {
      if (p.rank() == 0) {
        // Stall inside an open structural span: the snapshot must name
        // it even though profiling (ring recording) is off.
        obs::ScopedSpan span(p, obs::SpanKind::kRemap, 3);
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
      p.barrier();
    });
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    ASSERT_EQ(e.states().size(), 2u);
    EXPECT_STREQ(e.states()[0].span, "remap");
    EXPECT_EQ(e.states()[0].span_arg, 3);
    EXPECT_EQ(e.states()[1].span, nullptr);
    EXPECT_NE(std::string(e.what()).find("in remap 3"), std::string::npos);
  }
  m.set_watchdog(0);
}

TEST(WatchdogSpans, TimeoutNamesTheLeafPhase) {
  auto m = make_machine(2);
  m.set_watchdog(0.05);
  try {
    m.run([](simd::Proc& p) {
      if (p.rank() == 0) {
        obs::ScopedSpan span(p, obs::SpanKind::kMergeStage, 5);
        p.timed(simd::Phase::kUnpack, [] {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        });
      }
      p.barrier();
    });
    FAIL() << "expected BarrierTimeout";
  } catch (const BarrierTimeout& e) {
    EXPECT_STREQ(e.states()[0].span, "merge");
    EXPECT_EQ(e.states()[0].span_arg, 5);
    EXPECT_STREQ(e.states()[0].leaf, "unpack");
    EXPECT_NE(std::string(e.what()).find("in merge 5 / unpack"), std::string::npos);
  }
  m.set_watchdog(0);
}

// ---- hex_id ---------------------------------------------------------

TEST(HexId, CanonicalSixteenDigitSpelling) {
  EXPECT_EQ(util::hex_id(0), "0x0000000000000000");
  EXPECT_EQ(util::hex_id(0x1234), "0x0000000000001234");
  EXPECT_EQ(util::hex_id(0xffffffffffffffffull), "0xffffffffffffffff");
  // IDs travel as strings because JSON numbers lose bits past 2^53.
  EXPECT_EQ(util::hex_id(0x910a2dec89025cc1ull), "0x910a2dec89025cc1");
}

// ---- FlightRecorder -------------------------------------------------

obs::FlightRecord flight_event(obs::FlightEventKind kind, std::uint64_t id,
                               std::int64_t a = 0) {
  obs::FlightRecord r;
  r.kind = kind;
  r.trace_id = id;
  r.a = a;
  return r;
}

TEST(FlightRecorder, WrapAroundKeepsNewestAndCountsDropped) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    auto r = flight_event(obs::FlightEventKind::kSubmitted, 0xabcu, i);
    r.t_us = rec.now_us();
    rec.record(r);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].a, static_cast<std::int64_t>(2 + i));  // oldest gone
    EXPECT_EQ(snap[i].seq, 2 + i);  // seq survives the overwrite
    if (i > 0) {
      EXPECT_GE(snap[i].t_us, snap[i - 1].t_us);
    }
  }
}

TEST(FlightRecorder, ZeroCapacityDropsEverything) {
  obs::FlightRecorder rec(0);
  rec.record(flight_event(obs::FlightEventKind::kSubmitted, 1));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 1u);
  std::ostringstream os;
  EXPECT_EQ(rec.dump_jsonl(os), 0u);  // meta line only, no events
  EXPECT_NE(os.str().find("bsort-flight-v1"), std::string::npos);
}

TEST(FlightRecorder, MetricsCountEveryRecordPastTheRing) {
  obs::FlightRecorder rec(2);
  rec.record(flight_event(obs::FlightEventKind::kEnqueued, 1, /*a=*/1));
  rec.record(flight_event(obs::FlightEventKind::kEnqueued, 2, /*a=*/3));
  obs::FlightSample batch;
  batch.batch_size = 2;
  rec.record(flight_event(obs::FlightEventKind::kBatchDone, 0), batch);
  obs::FlightSample done;
  done.queue_us = 5;
  done.run_us = 20;
  done.total_us = 30;
  done.priority = 1;
  rec.record(flight_event(obs::FlightEventKind::kCompleted, 1), done);
  EXPECT_EQ(rec.dropped(), 2u);

  const obs::ServiceMetrics m = rec.metrics();
  EXPECT_EQ(m.count(obs::FlightEventKind::kEnqueued), 2u);
  EXPECT_EQ(m.count(obs::FlightEventKind::kBatchDone), 1u);
  EXPECT_EQ(m.count(obs::FlightEventKind::kCompleted), 1u);
  EXPECT_EQ(m.count(obs::FlightEventKind::kFailed), 0u);
  EXPECT_EQ(m.sharded, 1u);  // only the 3-fragment admission
  EXPECT_EQ(m.shard_fanout.count(), 2u);
  EXPECT_DOUBLE_EQ(m.shard_fanout.max(), 3.0);
  EXPECT_DOUBLE_EQ(m.batch_occupancy.max(), 2.0);
  EXPECT_DOUBLE_EQ(m.queue_us.sum(), 5.0);
  EXPECT_DOUBLE_EQ(m.run_us.sum(), 20.0);
  EXPECT_DOUBLE_EQ(m.total_us.sum(), 30.0);
  EXPECT_EQ(m.class_total_us[0].count(), 0u);
  EXPECT_DOUBLE_EQ(m.class_total_us[1].sum(), 30.0);
}

TEST(FlightRecorder, DumpJsonlSchemaRoundTrips) {
  obs::FlightRecorder rec(16);
  auto submitted = flight_event(obs::FlightEventKind::kSubmitted,
                                0x910a2dec89025cc1ull, 256);
  submitted.t_us = rec.now_us();
  rec.record(submitted);
  auto failed = flight_event(obs::FlightEventKind::kFailed,
                             0x910a2dec89025cc1ull, 2);
  failed.t_us = rec.now_us();
  failed.slot = 1;
  failed.attempt = 2;
  failed.shard = 3;
  failed.error_class = 1 + static_cast<std::uint8_t>(
      fault::FailureClass::kRetryable);
  rec.record(failed);

  std::ostringstream os;
  EXPECT_EQ(rec.dump_jsonl(os), 2u);
  std::istringstream lines(os.str());
  std::string line;

  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue meta = JsonParser(line).parse();
  EXPECT_EQ(meta.at("type").string, "meta");
  EXPECT_EQ(meta.at("schema").string, "bsort-flight-v1");
  EXPECT_EQ(meta.at("capacity").number, 16.0);
  EXPECT_EQ(meta.at("recorded").number, 2.0);
  EXPECT_EQ(meta.at("dropped").number, 0.0);

  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue e0 = JsonParser(line).parse();
  EXPECT_EQ(e0.at("event").string, "submitted");
  EXPECT_EQ(e0.at("request").string, "0x910a2dec89025cc1");
  EXPECT_EQ(e0.at("a").number, 256.0);
  EXPECT_FALSE(e0.has("slot"));     // no slot at admission
  EXPECT_FALSE(e0.has("attempt"));  // zero fields are omitted
  EXPECT_FALSE(e0.has("class"));

  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue e1 = JsonParser(line).parse();
  EXPECT_EQ(e1.at("event").string, "failed");
  EXPECT_EQ(e1.at("slot").number, 1.0);
  EXPECT_EQ(e1.at("attempt").number, 2.0);
  EXPECT_EQ(e1.at("shard").number, 3.0);
  EXPECT_EQ(e1.at("class").string, "retryable");
  EXPECT_GT(e1.at("seq").number, e0.at("seq").number);
}

TEST(FlightRecorder, EveryEventKindHasAName) {
  for (int k = 0; k < obs::kFlightEventKindCount; ++k) {
    const char* name =
        obs::flight_event_name(static_cast<obs::FlightEventKind>(k));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "kind " << k;
  }
}

// ---- telemetry export -----------------------------------------------

obs::TelemetrySample telemetry_sample(double t_s, double submitted) {
  obs::TelemetrySample s;
  s.t_s = t_s;
  s.values.push_back({"submitted", submitted, /*counter=*/true});
  s.values.push_back({"queue_depth", 3, /*counter=*/false});
  obs::TelemetryHist h;
  h.name = "run_us";
  h.count = 4;
  h.p50 = 10;
  h.p95 = 20;
  h.p99 = 30;
  h.max = 40;
  h.sum = 80;
  s.hists.push_back(h);
  return s;
}

TEST(Telemetry, CounterDeltasAcrossSamplesIncludingReset) {
  std::map<std::string, double> last;
  const auto delta_of = [&last](double total) {
    std::ostringstream os;
    obs::write_telemetry_sample(os, telemetry_sample(0.1, total), last);
    const JsonValue v = JsonParser(os.str()).parse();
    EXPECT_EQ(v.at("type").string, "sample");
    const auto& c = v.at("counters").at("submitted");
    EXPECT_EQ(c.at("total").number, total);
    return c.at("delta").number;
  };
  EXPECT_EQ(delta_of(3), 3.0);   // first sample: delta == total
  EXPECT_EQ(delta_of(5), 2.0);   // 3 -> 5
  EXPECT_EQ(delta_of(5), 0.0);   // idle tick
  EXPECT_EQ(delta_of(1), 1.0);   // total fell: reset, delta restarts
  EXPECT_EQ(delta_of(4), 3.0);   // and resumes normally
}

TEST(Telemetry, SampleJsonCarriesGaugesAndHistograms) {
  std::map<std::string, double> last;
  std::ostringstream os;
  obs::write_telemetry_meta(os);
  obs::write_telemetry_sample(os, telemetry_sample(1.5, 7), last);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue meta = JsonParser(line).parse();
  EXPECT_EQ(meta.at("schema").string, "bsort-telemetry-v1");
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue s = JsonParser(line).parse();
  EXPECT_EQ(s.at("t_s").number, 1.5);
  EXPECT_EQ(s.at("gauges").at("queue_depth").number, 3.0);
  const auto& h = s.at("hists").at("run_us");
  EXPECT_EQ(h.at("count").number, 4.0);
  EXPECT_EQ(h.at("p50").number, 10.0);
  EXPECT_EQ(h.at("p95").number, 20.0);
  EXPECT_EQ(h.at("p99").number, 30.0);
  EXPECT_EQ(h.at("max").number, 40.0);
  EXPECT_EQ(h.at("sum").number, 80.0);
}

TEST(Telemetry, PrometheusExpositionFormat) {
  std::ostringstream os;
  obs::write_prometheus(os, telemetry_sample(1.0, 41));
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE bsort_submitted_total counter\n"
                      "bsort_submitted_total 41"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bsort_queue_depth gauge\n"
                      "bsort_queue_depth 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bsort_run_us summary"), std::string::npos);
  EXPECT_NE(text.find("bsort_run_us{quantile=\"0.5\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("bsort_run_us_sum 80"), std::string::npos);
  EXPECT_NE(text.find("bsort_run_us_count 4"), std::string::npos);
}

// ---- service Perfetto export ----------------------------------------

TEST(ServicePerfetto, SyntheticLifecycleExportsTracksAndFlows) {
  // A hand-built lifecycle: submit -> enqueue -> dispatch on slot 0 ->
  // batch done -> complete, for one request with a known trace ID.
  const std::uint64_t id = 0x910a2dec89025cc1ull;
  std::vector<obs::FlightRecord> events;
  const auto push = [&events](obs::FlightEventKind k, double t,
                              std::uint64_t trace) -> obs::FlightRecord& {
    obs::FlightRecord r;
    r.kind = k;
    r.t_us = t;
    r.trace_id = trace;
    r.seq = events.size();
    events.push_back(r);
    return events.back();
  };
  push(obs::FlightEventKind::kSubmitted, 1.0, id).a = 256;
  push(obs::FlightEventKind::kEnqueued, 2.0, id).b = 1;
  {
    auto& d = push(obs::FlightEventKind::kDispatched, 3.0, id);
    d.slot = 0;
    d.attempt = 1;
    d.a = 0;  // batch ordinal
  }
  {
    auto& d = push(obs::FlightEventKind::kBatchDone, 5.0, 0);
    d.slot = 0;
    d.a = 0;
    d.b = 2;  // run_us
  }
  push(obs::FlightEventKind::kCompleted, 6.0, id).a = 5;

  obs::ServicePerfettoMeta meta;
  meta.pool_size = 2;
  std::ostringstream os;
  obs::write_service_perfetto(os, events, {}, meta);
  const JsonValue doc = JsonParser(os.str()).parse();
  const auto& evs = doc.at("traceEvents").array;
  ASSERT_FALSE(evs.empty());

  // Deterministic layout: every metadata record precedes every event,
  // and thread names cover the queue track plus both pool slots.
  std::vector<std::string> meta_names;
  bool seen_event = false;
  std::string flow_phases;
  int batch_slices = 0;
  bool queue_counter = false;
  for (const auto& e : evs) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") {
      EXPECT_FALSE(seen_event) << "metadata after events";
      meta_names.push_back(e.at("args").at("name").string);
      continue;
    }
    seen_event = true;
    if (ph == "s" || ph == "t" || ph == "f") {
      flow_phases += ph;
      EXPECT_EQ(e.at("id").string, util::hex_id(id));
      EXPECT_EQ(e.at("cat").string, "request");
    }
    if (ph == "C" && e.at("name").string == "queue depth") {
      queue_counter = true;
    }
    if (ph == "X" && e.at("name").string.rfind("batch ", 0) == 0) {
      ++batch_slices;
      EXPECT_EQ(e.at("tid").number, 1.0);  // slot 0 lives on tid 1
      EXPECT_EQ(e.at("args").at("requests").array.size(), 1u);
      EXPECT_EQ(e.at("args").at("requests").array[0].string,
                util::hex_id(id));
    }
  }
  EXPECT_EQ(meta_names, (std::vector<std::string>{
                            "bsort-service", "queue", "slot 0", "slot 1"}));
  // The flow arrow follows admission -> dispatch -> completion.
  EXPECT_EQ(flow_phases, "stf");
  EXPECT_EQ(batch_slices, 1);
  EXPECT_TRUE(queue_counter);
}

TEST(ServicePerfetto, UnfinishedBatchIsFlushedAtTraceEnd) {
  std::vector<obs::FlightRecord> events;
  obs::FlightRecord d;
  d.kind = obs::FlightEventKind::kDispatched;
  d.t_us = 1.0;
  d.trace_id = 0x22u;
  d.seq = 0;
  d.slot = 0;
  d.attempt = 1;
  d.a = 7;  // ordinal with no matching kBatchDone
  events.push_back(d);
  obs::ServicePerfettoMeta meta;
  meta.pool_size = 1;
  std::ostringstream os;
  obs::write_service_perfetto(os, events, {}, meta);
  const JsonValue doc = JsonParser(os.str()).parse();
  bool found = false;
  for (const auto& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "X" &&
        e.at("name").string.rfind("batch ", 0) == 0) {
      found = true;
      EXPECT_GE(e.at("dur").number, 0.0);
    }
  }
  EXPECT_TRUE(found) << "open batch at shutdown must still emit a slice";
}

TEST(Perfetto, MetaPidPlacesEveryEventOnThatProcess) {
  // The service trace merges machine tracks at distinct pids — the
  // exporter must honor meta.pid instead of hard-coding 0.
  auto m = make_machine(2);
  m.enable_profiling(1u << 12);
  auto keys = util::generate_keys(512, util::KeyDistribution::kUniform31, 13);
  run_blocked_spmd_on(m, keys, [](simd::Proc& p, std::span<std::uint32_t> s) {
    bitonic::smart_sort(p, s);
  });
  obs::PerfettoMeta meta;
  meta.process_name = "pool slot 3";
  meta.pid = 5;
  std::ostringstream os;
  obs::write_perfetto(os, m, meta);
  const JsonValue doc = JsonParser(os.str()).parse();
  const auto& evs = doc.at("traceEvents").array;
  ASSERT_FALSE(evs.empty());
  for (const auto& e : evs) {
    EXPECT_EQ(e.at("pid").number, 5.0);
  }
}

}  // namespace
}  // namespace bsort
