// End-to-end wall-clock benchmark of the sort library, keys in to sorted
// keys out, with a per-layer breakdown taken from outside the library.
//
// One process runs one workload (an input family) through the two ways a
// user sorts with this library:
//
//   * bulk    — closed loop, one caller: api::parallel_sort_on on a
//               pre-warmed P=4 native Machine, the five algorithms
//               interleaved round-robin within each round so host drift
//               hits all of them equally; once with 2^19 keys per call
//               (local compute and exchange copies dominate) and once with
//               2^15 (run dispatch, barriers and scatter/gather dominate);
//               every round also times a standard-library sort of the same
//               keys, the base of the reported speedups;
//   * service — open loop: a seeded Poisson schedule submitted to a fresh
//               SortService at a fixed absolute rate, latency timed from
//               each request's scheduled send time.
//
// Every input is generated from --seed before timing starts; each timed
// call sorts an untimed copy of a pre-generated input and its output is
// compared, untimed, with a std::sort of that input.  A wrong output, a
// thrown error or a refused request counts as failed and makes the
// process exit 1.
//
// --trace 0 prints the end-to-end metrics, measured with tracing off; the
// service runs at 2 500 req/s only.
// --trace 1 prints the per-layer metrics instead: the same phases (the
// service at 2 500, 5 000 and 10 000 req/s) with
// span profiling on (Config::profile_spans), benchmark-side spans around
// every call into a layer, reference sorts, and isolated calls into
// localsort, kernel, simd and backend.  It writes TRACE_<workload>.json
// (benchmark spans) and TRACE_<workload>_service.json
// (SortService::export_perfetto) into --out.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "kernel/kernel.hpp"
#include "localsort/bitonic_merge.hpp"
#include "localsort/pway_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/metrics.hpp"
#include "service/sort_service.hpp"
#include "simd/machine.hpp"
#include "span_log.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace bsort;
using e2e::Clock;
using e2e::SpanLog;

// ---- fixed shape of every workload -----------------------------------

constexpr int kP = 4;  // VP threads = nproc of the 4-vCPU reference host
// 2^19 keys keep each VP's keys, arenas and scratch (~1.5 MB) inside its
// 2 MB L2.  At 2^21 they live in the L3 that other tenants share, and
// their traffic moved the large-call speedups by up to 22% between runs.
constexpr std::size_t kLargeN = std::size_t{1} << 19;
constexpr std::size_t kSmallN = std::size_t{1} << 15;
constexpr int kInputs = 4;  // pre-generated inputs per size, used round-robin
constexpr std::size_t kProfileSpans = 4096;
constexpr int kSetupReps = 51;

// Share of --seconds given to each timed phase.
constexpr double kLargeShare = 0.4;
constexpr double kSmallShare = 0.2;
constexpr double kServiceShare = 0.4;

// Open-loop steps.  Rates are absolute, not multiples of a probed
// capacity: a probe would rescale the load along with the code under
// test.  kReferenceRate is the step the end-to-end latencies come from:
// the lowest, because nearer saturation a slower host turns into queueing
// and the latencies swing with the neighbours' load (run-to-run spread of
// p99 0.10 at 2 500 req/s against 0.20 at 5 000).
struct Step {
  double rate;  // req/s
  const char* span;
};
constexpr Step kSteps[] = {{2500, "service.step_2500"},
                           {5000, "service.step_5000"},
                           {10000, "service.step_10000"}};
constexpr double kReferenceRate = 2500;
constexpr double kP99LimitUs = 30000;  // max_rate: p99 at or below this
constexpr double kDrainLimitS = 1.0;   // ... and backlog gone within this

// Zipf family: s = 1.1 over 65 536 distinct 31-bit values.
constexpr double kZipfS = 1.1;
constexpr std::size_t kZipfValues = 65536;

struct Algo {
  const char* name;
  const char* span;
  api::Algorithm algorithm;
};
constexpr Algo kAlgos[] = {
    {"smart", "api.parallel_sort_on:smart", api::Algorithm::kSmartBitonic},
    {"cyclic_blocked", "api.parallel_sort_on:cyclic_blocked",
     api::Algorithm::kCyclicBlockedBitonic},
    {"blocked_merge", "api.parallel_sort_on:blocked_merge",
     api::Algorithm::kBlockedMergeBitonic},
    {"sample", "api.parallel_sort_on:sample", api::Algorithm::kSampleSort},
    {"radix", "api.parallel_sort_on:radix", api::Algorithm::kParallelRadix},
};
constexpr std::size_t kAlgoCount = std::size(kAlgos);

// RunReport::obs rows (max over VPs) reported for one bitonic and one
// splitter-based sort: the thesis' Table 5.1 / 5.4 slicing.  The leaf
// rows compute/pack/exchange/unpack are left out; they repeat the
// critical-VP phase metrics.
constexpr const char* kSmartObsRows[] = {"barrier-wait", "local-sort", "remap"};
constexpr const char* kSampleObsRows[] = {"barrier-wait", "local-sort", "remap", "sample"};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in (0, 1].
double unit(util::SplitMix64& rng) {
  return static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// An empty sample (every call of a kind failed) yields NaN, written as
// null; the run is then reported incorrect anyway.
double quantile(std::vector<double> v, double q) {
  return v.empty() ? std::nan("") : obs::exact_quantile(std::move(v), q);
}

double median(const std::vector<double>& v) { return v.empty() ? std::nan("") : util::median(v); }

// ---- inputs -----------------------------------------------------------

/// One pre-generated input and its std::sort oracle.
struct Input {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> sorted;
};

Input make_input(std::vector<std::uint32_t> keys) {
  Input in{std::move(keys), {}};
  in.sorted = in.keys;
  std::sort(in.sorted.begin(), in.sorted.end());
  return in;
}

/// Key families, deterministic in (seed, salt).
class KeySource {
 public:
  explicit KeySource(std::uint64_t seed) : seed_(seed), cdf_(kZipfValues), values_(kZipfValues) {
    double sum = 0;
    for (std::size_t r = 0; r < kZipfValues; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -kZipfS);
      cdf_[r] = sum;
      values_[r] = static_cast<std::uint32_t>(mix64(seed ^ (0x5a17ull << 32) ^ r) & 0x7FFFFFFFu);
    }
    for (auto& c : cdf_) c /= sum;
  }

  std::vector<std::uint32_t> uniform(std::size_t n, std::uint64_t salt) const {
    return util::generate_keys(n, util::KeyDistribution::kUniform31, mix64(seed_ + salt));
  }

  std::vector<std::uint32_t> zipf(std::size_t n, std::uint64_t salt) const {
    util::SplitMix64 rng(mix64(seed_ + salt) ^ 0x21f);
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) {
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), unit(rng));
      k = values_[std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                        kZipfValues - 1)];
    }
    return keys;
  }

  std::vector<std::uint32_t> keys(bool skewed, std::size_t n, std::uint64_t salt) const {
    return skewed ? zipf(n, salt) : uniform(n, salt);
  }

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> values_;
};

// ---- bookkeeping ------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) std::cerr << "e2e_bench: FAILED " << what << "\n";
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every timed phase opens a span under the workload's root span.
struct Ctx {
  Tally& tally;
  SpanLog& log;
  int root = SpanLog::kNoParent;
};

// ---- bulk: parallel_sort_on -------------------------------------------

/// Everything measured for one algorithm at one size.
struct Series {
  std::vector<double> wall_us, plain_wall_us;  // plain: untraced (trace mode)
  std::vector<double> makespan_us, residual_us, wait_us, imbalance;
  std::vector<double> phase_us[simd::kPhaseCount];
  std::map<std::string, std::vector<double>> obs_max_us;
  std::uint64_t exchanges = 0, elements_sent = 0;  // on input 0
};

struct BulkResult {
  Series series[kAlgoCount];
  std::vector<double> seq_radix_us, std_sort_us;  // full-N references
  std::vector<double> host_ref_us;                // std_parallel_sort, every round
};

api::Config bulk_config(const Algo& a, bool traced) {
  api::Config cfg;
  cfg.nprocs = kP;
  cfg.algorithm = a.algorithm;
  cfg.mode = simd::MessageMode::kLong;
  cfg.profile_spans = traced ? kProfileSpans : 0;
  return cfg;
}

/// One timed call on an untimed copy of `in`, recorded into `s` (when not
/// null) if the output is right.
void bulk_call(simd::Machine& m, const Algo& a, const Input& in, bool traced, Series* s,
               bool count_input, std::vector<std::uint32_t>& work, Ctx& ctx, int parent) {
  work = in.keys;
  api::Outcome out;
  bool threw = false;
  const auto cfg = bulk_config(a, traced);
  const auto t0 = Clock::now();
  try {
    out = api::parallel_sort_on(m, work, cfg);
  } catch (const std::exception& e) {
    threw = true;
    std::cerr << "e2e_bench: " << a.name << " threw: " << e.what() << "\n";
  }
  const auto t1 = Clock::now();
  ctx.log.add(a.span, t0, t1, parent);

  const bool ok = !threw && out.sorted && work == in.sorted;
  ctx.tally.record(ok, std::string("bulk ") + a.name + " n=" + std::to_string(in.keys.size()));
  if (!ok || s == nullptr) return;

  const double wall = us_between(t0, t1);
  if (!traced) {
    s->plain_wall_us.push_back(wall);
    return;
  }
  // Per call, wall = residual + wait + the critical VP's four phases
  // exactly: residual is wall - makespan and wait is makespan - phases.
  const auto& r = out.report;
  const auto& crit = r.critical_phases();
  s->wall_us.push_back(wall);
  s->makespan_us.push_back(r.makespan_us);
  s->residual_us.push_back(wall - r.makespan_us);
  s->wait_us.push_back(r.makespan_us - crit.total());
  for (int ph = 0; ph < simd::kPhaseCount; ++ph) s->phase_us[ph].push_back(crit.us[ph]);
  double mx = 0, sum = 0;
  for (const auto& p : r.proc_phases) {
    mx = std::max(mx, p.total());
    sum += p.total();
  }
  s->imbalance.push_back(sum > 0 ? mx * static_cast<double>(r.proc_phases.size()) / sum : 1.0);
  for (const auto& row : r.obs.phases) s->obs_max_us[row.name].push_back(row.max_us);
  if (count_input) {
    const auto comm = r.total_comm();
    s->exchanges = comm.exchanges;
    s->elements_sent = comm.elements_sent;
  }
}

/// Mean of `v` over the calls whose wall time lies between the 40th and
/// 60th percentile: the breakdown of a median call.  Medians taken phase
/// by phase would not add up to the median wall time; these do, because
/// the phases add up exactly for every call.
double median_call_mean(const Series& s, const std::vector<double>& v) {
  std::vector<std::size_t> idx(s.wall_us.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return s.wall_us[a] < s.wall_us[b]; });
  const std::size_t lo = idx.size() * 2 / 5;
  const std::size_t hi = std::min(idx.size(), std::max(lo + 1, (idx.size() * 3 + 4) / 5));
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[idx[i]];
  return hi > lo ? sum / static_cast<double>(hi - lo) : std::nan("");
}

/// The host-speed reference: the same keys sorted by the standard library
/// alone on P threads (std::sort of each quarter, then two rounds of
/// std::merge).  It is harness code, so no library change can move it;
/// timed in the same rounds as the library calls, it drifts with the host.
void std_parallel_sort(std::vector<std::uint32_t>& keys, std::vector<std::uint32_t>& tmp) {
  static_assert(kP == 4, "the reference merges exactly four quarters");
  const std::size_t q = keys.size() / 4;
  tmp.resize(keys.size());
  const auto b = keys.begin();
  const auto t = tmp.begin();
  const auto at = [q](auto it, std::size_t i) { return it + static_cast<std::ptrdiff_t>(i * q); };
  {
    std::vector<std::jthread> th;
    for (std::size_t i = 0; i < 4; ++i) th.emplace_back([&, i] { std::sort(at(b, i), at(b, i + 1)); });
  }
  {
    std::jthread lo([&] { std::merge(at(b, 0), at(b, 1), at(b, 1), at(b, 2), at(t, 0)); });
    std::merge(at(b, 2), at(b, 3), at(b, 3), keys.end(), at(t, 2));
  }
  std::merge(at(t, 0), at(t, 2), at(t, 2), tmp.end(), b);
}

double host_ref_call(const Input& in, std::vector<std::uint32_t>& work,
                     std::vector<std::uint32_t>& tmp, Ctx& ctx, int parent) {
  work = in.keys;
  const auto t0 = Clock::now();
  std_parallel_sort(work, tmp);
  const auto t1 = Clock::now();
  ctx.log.add("ref.std_parallel", t0, t1, parent);
  ctx.tally.record(work == in.sorted, "ref std_parallel");
  return us_between(t0, t1);
}

/// Closed loop for `budget_s` (at least `min_rounds` rounds).  Each round
/// takes the next input and runs every algorithm and the std_parallel
/// reference on it, the starting position rotating per round.  Untraced
/// calls fill plain_wall_us; in trace mode every algorithm also gets a
/// traced call (order alternating per round), which fills the breakdown,
/// and every 4th round times the single-thread reference sorts when
/// `refs` is set.
BulkResult run_bulk(simd::Machine& m, const std::vector<Input>& inputs, double budget_s,
                    int min_rounds, bool trace, bool refs, const char* phase, Ctx& ctx) {
  BulkResult res;
  std::vector<std::uint32_t> work, scratch;
  const int phase_span = ctx.log.open(phase, ctx.root);

  // Warm-up: arenas reach their high-water mark, pages get touched.
  for (const auto& a : kAlgos) bulk_call(m, a, inputs[0], trace, nullptr, false, work, ctx, phase_span);

  const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
  for (int round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
    const auto& in = inputs[static_cast<std::size_t>(round) % inputs.size()];
    const bool first_input = round == 0;
    const int round_span = ctx.log.open("harness.round", phase_span);
    for (std::size_t k = 0; k <= kAlgoCount; ++k) {
      const std::size_t ai = (k + static_cast<std::size_t>(round)) % (kAlgoCount + 1);
      if (ai == kAlgoCount) {
        res.host_ref_us.push_back(host_ref_call(in, work, scratch, ctx, round_span));
        continue;
      }
      Series* s = &res.series[ai];
      if (!trace) {
        bulk_call(m, kAlgos[ai], in, false, s, false, work, ctx, round_span);
        continue;
      }
      const bool traced_first = round % 2 == 0;
      bulk_call(m, kAlgos[ai], in, traced_first, s, first_input, work, ctx, round_span);
      bulk_call(m, kAlgos[ai], in, !traced_first, s, first_input, work, ctx, round_span);
    }
    if (trace && refs && round % 4 == 0) {
      work = in.keys;
      auto t0 = Clock::now();
      localsort::radix_sort(work, scratch);
      auto t1 = Clock::now();
      ctx.log.add("ref.seq_radix", t0, t1, round_span);
      ctx.tally.record(work == in.sorted, "ref seq_radix");
      res.seq_radix_us.push_back(us_between(t0, t1));

      work = in.keys;
      t0 = Clock::now();
      std::sort(work.begin(), work.end());
      t1 = Clock::now();
      ctx.log.add("ref.std_sort", t0, t1, round_span);
      ctx.tally.record(work == in.sorted, "ref std_sort");
      res.std_sort_us.push_back(us_between(t0, t1));
    }
    ctx.log.close(round_span);
  }
  ctx.log.close(phase_span);
  return res;
}

// ---- service: SortService::submit, open loop --------------------------

enum ReqClass { kSmall = 0, kMedium = 1, kLargeUniform = 2, kLargeDup = 3, kClassCount = 4 };

/// Pre-generated request inputs.  Small and medium requests follow the
/// workload's key family; large requests alternate uniform and Zipf
/// (duplicate-heavy, the case the sharder's splitters handle worst) in
/// every workload.  The *_max pools hold inputs containing UINT32_MAX,
/// which collides with the service's pad key.
struct RequestPool {
  std::vector<Input> small, small_max, medium, medium_max, large_uniform, large_dup;
};
constexpr std::size_t kLargeSizes = 4;  // large inputs per family

void add_max_keys(std::vector<std::uint32_t>& keys, util::SplitMix64& rng) {
  const std::size_t n = std::max<std::size_t>(1, keys.size() / 100);
  for (std::size_t i = 0; i < n; ++i) keys[rng.next() % keys.size()] = UINT32_MAX;
}

RequestPool make_pool(const KeySource& src, bool skewed, std::uint64_t seed) {
  enum class Family { kWorkload, kUniform, kZipf };
  util::SplitMix64 rng(mix64(seed ^ 0x9001));
  std::uint64_t salt = 1u << 20;
  const auto fill = [&](std::vector<Input>& pool, int count, std::size_t lo, std::size_t hi,
                        Family family, bool with_max) {
    for (int i = 0; i < count; ++i) {
      const std::size_t n = lo + static_cast<std::size_t>(rng.next() % (hi - lo + 1));
      auto keys = family == Family::kWorkload ? src.keys(skewed, n, ++salt)
                  : family == Family::kUniform ? src.uniform(n, ++salt)
                                               : src.zipf(n, ++salt);
      if (with_max) add_max_keys(keys, rng);
      pool.push_back(make_input(std::move(keys)));
    }
  };
  RequestPool p;
  fill(p.small, 256, 100, 300, Family::kWorkload, false);
  fill(p.small_max, 4, 100, 300, Family::kWorkload, true);
  fill(p.medium, 32, 10000, 20000, Family::kWorkload, false);
  fill(p.medium_max, 2, 10000, 20000, Family::kWorkload, true);
  // Large sizes are fixed and evenly spaced, not drawn: a 300K request's
  // shards pad to twice the work of a 200K one's, and with a handful of
  // large inputs a drawn mix would let the seed decide the tail latency.
  for (std::size_t i = 0; i < kLargeSizes; ++i) {
    const std::size_t n = 200000 + i * 100000 / (kLargeSizes - 1);
    fill(p.large_uniform, 1, n, n, Family::kUniform, false);
    fill(p.large_dup, 1, n, n, Family::kZipf, false);
  }
  return p;
}

struct Planned {
  double at_s;
  ReqClass cls;
  const Input* input;
};

/// Poisson arrivals at `rate` for `duration_s`.  Requests come in blocks
/// of 100: exactly 90 small and 9 medium in shuffled order, and 1 large
/// at slot 0, so large requests never cluster (uniform in even blocks,
/// duplicate-heavy in odd ones, cycling through the sizes).  One small or
/// medium request per block carries UINT32_MAX keys.
std::vector<Planned> plan_step(const RequestPool& pool, double rate, double duration_s,
                               std::uint64_t seed) {
  util::SplitMix64 rng(mix64(seed));
  const auto pick = [&](const std::vector<Input>& v) { return &v[rng.next() % v.size()]; };
  std::vector<Planned> plan;
  std::vector<ReqClass> block;
  std::size_t max_slot = 0;
  for (double t = -std::log(unit(rng)) / rate; t < duration_s; t += -std::log(unit(rng)) / rate) {
    const std::size_t slot = plan.size() % 100;
    const std::size_t nblock = plan.size() / 100;
    if (slot == 0) {
      block.assign(1, nblock % 2 == 0 ? kLargeUniform : kLargeDup);
      block.insert(block.end(), 90, kSmall);
      block.insert(block.end(), 9, kMedium);
      for (std::size_t i = block.size() - 1; i > 1; --i) {
        std::swap(block[i], block[1 + rng.next() % i]);
      }
      max_slot = 1 + rng.next() % 99;
    }
    const ReqClass cls = block[slot];
    const bool with_max = slot == max_slot;
    const std::size_t large = (nblock / 2) % kLargeSizes;
    const Input* in = nullptr;
    switch (cls) {
      case kSmall: in = pick(with_max ? pool.small_max : pool.small); break;
      case kMedium: in = pick(with_max ? pool.medium_max : pool.medium); break;
      case kLargeUniform: in = &pool.large_uniform[large]; break;
      default: in = &pool.large_dup[large]; break;
    }
    plan.push_back({t, cls, in});
  }
  return plan;
}

service::ServiceConfig service_config(bool trace) {
  service::ServiceConfig c;
  c.base.nprocs = 2;  // 2 machines x 2 VPs = 4 VP threads = nproc
  c.base.backend = backend::Kind::kNative;
  c.base.mode = simd::MessageMode::kLong;
  c.base.algorithm = api::Algorithm::kSmartBitonic;
  c.base.small_item_threshold = 2048;
  c.base.profile_spans = trace ? kProfileSpans : 0;
  c.pool_size = 2;
  c.max_batch = 16;
  c.shard_threshold = 65536;
  c.shards_per_request = 2;
  // A refused request would count as failed; overload must show as
  // latency instead, so admission never refuses in this benchmark.
  c.queue_limit = std::size_t{1} << 20;
  return c;
}

struct StepResult {
  double rate = 0;
  std::vector<double> latency_us, class_latency_us[kClassCount];
  std::vector<double> queue_us, run_us, residual_us, submit_us, lag_us;
  std::vector<double> class_run_us[kClassCount];
  double drain_s = 0;
  service::ServiceStats stats;
};

StepResult run_step(const Step& step, const std::vector<Planned>& plan, double duration_s,
                    bool trace, const std::string& perfetto_path, Ctx& ctx) {
  StepResult res;
  res.rate = step.rate;
  service::SortService svc(service_config(trace));
  const int step_span = ctx.log.open(step.span, ctx.root);

  struct Pending {
    std::future<service::SortResult> fut;
    const Planned* p;
    Clock::time_point due, sent;
  };
  std::deque<Pending> pending;
  Clock::time_point last_done{};

  const auto retire = [&](Pending& q) {
    bool ok = false;
    try {
      const auto r = q.fut.get();
      ok = r.keys == q.p->input->sorted;
      const double lat = us_between(q.due, q.sent) + r.total_us;
      res.latency_us.push_back(lat);
      res.class_latency_us[q.p->cls].push_back(lat);
      res.class_run_us[q.p->cls].push_back(r.run_us);
      res.queue_us.push_back(r.queue_us);
      res.run_us.push_back(r.run_us);
      res.residual_us.push_back(r.total_us - r.queue_us - r.run_us);
      const auto done = q.sent + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::micro>(r.total_us));
      last_done = std::max(last_done, done);
      ctx.log.add("service.request", q.due, done, step_span, r.trace_id, true);
    } catch (const std::exception& e) {
      std::cerr << "e2e_bench: request failed: " << e.what() << "\n";
    }
    ctx.tally.record(ok, "service request n=" + std::to_string(q.p->input->keys.size()));
  };

  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (const auto& p : plan) {
    std::vector<std::uint32_t> keys = p.input->keys;  // untimed, made before its send time
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(p.at_s));
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      if (!pending.empty() &&
          pending.front().fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        retire(pending.front());
        pending.pop_front();
        continue;
      }
      std::this_thread::sleep_for(
          std::min<Clock::duration>(due - now, std::chrono::microseconds(500)));
    }
    const auto sent = Clock::now();
    try {
      auto fut = svc.submit(std::move(keys));
      const auto after = Clock::now();
      res.submit_us.push_back(us_between(sent, after));
      res.lag_us.push_back(us_between(due, sent));
      pending.push_back({std::move(fut), &p, due, sent});
    } catch (const std::exception& e) {
      std::cerr << "e2e_bench: submit refused: " << e.what() << "\n";
      ctx.tally.record(false, "service submit");
    }
  }
  while (!pending.empty()) {
    retire(pending.front());
    pending.pop_front();
  }
  const auto end_of_schedule = t0 + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(duration_s));
  res.drain_s = std::max(0.0, us_between(end_of_schedule, last_done) / 1e6);
  res.stats = svc.stats();
  svc.shutdown();
  ctx.log.close(step_span);
  if (!perfetto_path.empty()) {
    std::ofstream f(perfetto_path);
    svc.export_perfetto(f);
    if (!f) ctx.tally.record(false, "write " + perfetto_path);
  }
  return res;
}

// ---- isolated layer calls ---------------------------------------------

constexpr int kLayerReps = 9;

/// Median over kLayerReps of `call` (timed), each after `prep` (untimed).
template <class Prep, class Call>
double median_us(Prep&& prep, Call&& call) {
  std::vector<double> t;
  for (int i = 0; i < kLayerReps; ++i) {
    prep();
    const auto t0 = Clock::now();
    call();
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(t);
}

/// Single-thread calls on the workload's own N/P keys, plus simd and
/// backend calls on a P=4 native machine.
void layer_calls(simd::Machine& m, const Input& in, std::vector<Metric>& out, Ctx& ctx) {
  const int span = ctx.log.open("harness.layer_calls", ctx.root);
  const std::size_t n = kLargeN / kP;
  const std::vector<std::uint32_t> slice(in.keys.begin(),
                                         in.keys.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint32_t> expect = slice;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint32_t> work, scratch, outbuf(n);
  const double dn = static_cast<double>(n);
  const auto ns_per_key = [&](double us) { return us * 1e3 / dn; };

  double t = median_us([&] { work = slice; }, [&] { localsort::radix_sort(work, scratch); });
  ctx.tally.record(work == expect, "localsort.radix_sort");
  out.push_back({"localsort.radix_sort.ns_per_key", ns_per_key(t), "ns/key"});

  // A bitonic input: ascending first half, descending second half.
  std::vector<std::uint32_t> bitonic = slice;
  std::sort(bitonic.begin(), bitonic.begin() + static_cast<std::ptrdiff_t>(n / 2));
  std::sort(bitonic.begin() + static_cast<std::ptrdiff_t>(n / 2), bitonic.end(),
            std::greater<>());
  t = median_us([] {}, [&] { localsort::bitonic_merge_sort(bitonic, outbuf); });
  ctx.tally.record(outbuf == expect, "localsort.bitonic_merge_sort");
  out.push_back({"localsort.bitonic_merge_sort.ns_per_key", ns_per_key(t), "ns/key"});

  // P sorted runs as a smart remap delivers them: ascending from the first
  // half of the group, descending from the second.
  std::vector<std::uint32_t> runs_buf = slice;
  std::vector<localsort::Run> runs;
  const std::size_t run_len = n / kP;
  for (int r = 0; r < kP; ++r) {
    auto b = runs_buf.begin() + static_cast<std::ptrdiff_t>(r * run_len);
    const bool asc = r < kP / 2;
    if (asc) {
      std::sort(b, b + static_cast<std::ptrdiff_t>(run_len));
    } else {
      std::sort(b, b + static_cast<std::ptrdiff_t>(run_len), std::greater<>());
    }
    runs.push_back({std::span<const std::uint32_t>(&*b, run_len), asc});
  }
  t = median_us([] {}, [&] { localsort::pway_merge(runs, outbuf); });
  ctx.tally.record(outbuf == expect, "localsort.pway_merge");
  out.push_back({"localsort.pway_merge.ns_per_key", ns_per_key(t), "ns/key"});

  // Kernels: the dispatched table against every variant this host runs.
  const int pos[] = {7, 6, 5, 4, 3, 2, 1, 0};  // the last 8 columns of a merge stage
  std::vector<std::uint32_t> idx(n);
  for (std::size_t j = 0; j < n; ++j) idx[j] = static_cast<std::uint32_t>((j % kP) * (n / kP) + j / kP);
  std::size_t hist[4][256];
  struct Op {
    const char* name;
    std::function<void(const kernel::Kernels&)> call;
    std::function<void()> prep;
  };
  const Op ops[] = {
      {"cmpex_multistep",
       [&](const kernel::Kernels& k) { k.cmpex_multistep(work.data(), n, pos, 8, 8, true); },
       [&] { work = slice; }},
      {"hist4x8",
       [&](const kernel::Kernels& k) { k.hist4x8(slice.data(), n, 0, hist); },
       [&] { std::fill(&hist[0][0], &hist[0][0] + 4 * 256, std::size_t{0}); }},
      {"gather_idx",
       [&](const kernel::Kernels& k) { k.gather_idx(outbuf.data(), slice.data(), idx.data(), 0, n); },
       [] {}},
  };
  const auto& active = kernel::active();
  for (const auto& op : ops) {
    const double active_us = median_us(op.prep, [&] { op.call(active); });
    double best = active_us;
    for (const auto* v : kernel::variants()) {
      if (kernel::supported(*v)) best = std::min(best, median_us(op.prep, [&] { op.call(*v); }));
    }
    out.push_back({std::string("kernel.") + op.name + ".ns_per_key", ns_per_key(active_us), "ns/key"});
    out.push_back({std::string("kernel.") + op.name + ".dispatched_over_best", active_us / best,
                   "ratio"});
  }

  // simd: an empty run and a 256-barrier run on the bulk machine.
  std::vector<double> empty_us, barrier_us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    m.run([](simd::Proc&) {});
    empty_us.push_back(us_between(t0, Clock::now()));
  }
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    m.run([](simd::Proc& p) {
      for (int b = 0; b < 256; ++b) p.barrier();
    });
    barrier_us.push_back(us_between(t0, Clock::now()));
  }
  const double empty = median(empty_us);
  out.push_back({"simd.run_empty_us", empty, "us"});
  out.push_back({"simd.barrier_us", (median(barrier_us) - empty) / 256, "us"});

  // backend: one all-to-all exchange of n/P keys per peer.  The bytes are
  // computed from the pattern; the time is the critical VP's measured
  // transfer (the native backend's copies).
  const std::size_t per_peer = n / kP;
  std::vector<double> transfer_us;
  bool exchange_ok = true;
  for (int i = 0; i < kLayerReps; ++i) {
    std::vector<int> bad(kP, 0);
    const auto rep = m.run([&](simd::Proc& p) {
      std::vector<std::uint64_t> peers;
      std::vector<std::size_t> sizes;
      for (int q = 0; q < kP; ++q) {
        if (q == p.rank()) continue;
        peers.push_back(static_cast<std::uint64_t>(q));
        sizes.push_back(per_peer);
      }
      p.open_exchange(peers, sizes, peers);
      for (std::size_t s = 0; s < peers.size(); ++s) {
        auto slot = p.send_slot(s);
        std::fill(slot.begin(), slot.end(), static_cast<std::uint32_t>(p.rank()));
      }
      p.commit_exchange();
      for (std::size_t s = 0; s < peers.size(); ++s) {
        const auto v = p.recv_view(s);
        const bool right = v.size() == per_peer &&
                           std::all_of(v.begin(), v.end(), [&](std::uint32_t x) { return x == peers[s]; });
        if (!right) bad[static_cast<std::size_t>(p.rank())] = 1;  // one slot per VP: no race
      }
    });
    exchange_ok = exchange_ok && std::accumulate(bad.begin(), bad.end(), 0) == 0;
    transfer_us.push_back(rep.critical_phases().transfer());
  }
  ctx.tally.record(exchange_ok, "backend exchange");
  const double bytes = static_cast<double>(kP * (kP - 1) * per_peer * sizeof(std::uint32_t));
  out.push_back({"backend.exchange_gb_per_s", bytes / (median(transfer_us) * 1e3), "GB/s"});
  ctx.log.close(span);
}

// ---- set-up -----------------------------------------------------------

std::unique_ptr<simd::Machine> make_bulk_machine() {
  auto m = std::make_unique<simd::Machine>(kP, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                                           backend::make(backend::Kind::kNative));
  m->run([](simd::Proc&) {});  // prewarm, as SortService does for its pool
  return m;
}

/// Median over kSetupReps of constructing (and prewarming) the bulk
/// machine plus constructing one SortService, which prewarms its pool.
/// Each is torn down, untimed, before the next is built, so no more than
/// P VP threads exist at once.
double measure_setup_s(bool trace) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) {
    auto t0 = Clock::now();
    auto m = make_bulk_machine();
    double us = us_between(t0, Clock::now());
    m.reset();
    t0 = Clock::now();
    auto svc = std::make_unique<service::SortService>(service_config(trace));
    us += us_between(t0, Clock::now());
    svc.reset();
    t.push_back(us / 1e6);
  }
  return median(t);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- main -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

int usage() {
  std::cerr << "usage: e2e_bench --workload uniform|skewed --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n";
  return 2;
}

void write_json(std::ostream& os, bool correct, const Tally& t, const std::vector<Metric>& ms) {
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << t.attempted
     << ", \"failed\": " << t.failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (std::isfinite(ms[i].value)) {
      std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << buf << ", \"unit\": \""
       << ms[i].unit << "\"}";
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if ((args.workload != "uniform" && args.workload != "skewed") || !(args.seconds > 0)) {
    return usage();
  }
  const bool skewed = args.workload == "skewed";
  const bool trace = args.trace;
  const double S = args.seconds;

  if (trace) std::filesystem::create_directories(args.out_dir);
  Tally tally;
  SpanLog log(trace, 400000);
  Ctx ctx{tally, log, SpanLog::kNoParent};
  ctx.root = log.open(skewed ? "workload.skewed" : "workload.uniform");

  // Inputs, all before any timing.
  const KeySource src(args.seed);
  std::vector<Input> large, small;
  for (int i = 0; i < kInputs; ++i) {
    large.push_back(make_input(src.keys(skewed, kLargeN, 100 + static_cast<std::uint64_t>(i))));
    small.push_back(make_input(src.keys(skewed, kSmallN, 200 + static_cast<std::uint64_t>(i))));
  }
  const RequestPool pool = make_pool(src, skewed, args.seed);

  const double setup_s = measure_setup_s(trace);
  auto machine = make_bulk_machine();

  const BulkResult big = run_bulk(*machine, large, kLargeShare * S, 12, trace, true, "bulk.large", ctx);
  const BulkResult little = run_bulk(*machine, small, kSmallShare * S, 100, trace, false, "bulk.small", ctx);
  std::vector<Metric> metrics;
  if (trace) layer_calls(*machine, large[0], metrics, ctx);
  machine.reset();  // the service's 2 x 2 VP threads take over the cores

  // The untraced run spends the whole service share on the reference
  // rate, the one its end-to-end latencies come from; the traced run
  // splits it over every step.
  std::vector<StepResult> steps;
  for (std::size_t i = 0; i < std::size(kSteps); ++i) {
    const Step& step = kSteps[i];
    if (!trace && step.rate != kReferenceRate) continue;
    const double step_s = kServiceShare * S / (trace ? static_cast<double>(std::size(kSteps)) : 1.0);
    const auto plan = plan_step(pool, step.rate, step_s, args.seed * 31 + i);
    std::string perfetto;
    if (trace && step.rate == kReferenceRate) {
      perfetto = args.out_dir + "/TRACE_" + args.workload + "_service.json";
    }
    steps.push_back(run_step(step, plan, step_s, trace, perfetto, ctx));
  }
  const StepResult& ref = *std::find_if(steps.begin(), steps.end(),
                                        [](const StepResult& s) { return s.rate == kReferenceRate; });

  // Bulk throughput is reported as a speedup over the standard library on
  // the same keys, timed in the same rounds: on a shared host absolute
  // times drift with the neighbours' load, and the ratio cancels it.
  const auto speedup = [](const BulkResult& r, const std::vector<double>& calls) {
    return median(r.host_ref_us) / median(calls);
  };
  if (!trace) {
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      metrics.push_back({std::string(kAlgos[a].name) + ".speedup_vs_std_parallel",
                         speedup(big, big.series[a].plain_wall_us), "ratio"});
    }
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      metrics.push_back({std::string(kAlgos[a].name) + ".small.speedup_vs_std_parallel",
                         speedup(little, little.series[a].plain_wall_us), "ratio"});
    }
    metrics.push_back({"smart.p90_speedup_vs_std_parallel",
                       median(big.host_ref_us) / quantile(big.series[0].plain_wall_us, 0.9),
                       "ratio"});
    metrics.push_back({"req_p50_us", quantile(ref.latency_us, 0.5), "us"});
    metrics.push_back({"req_p99_us", quantile(ref.latency_us, 0.99), "us"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    double traced_sum = 0, plain_sum = 0;
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      const std::string name = kAlgos[a].name;
      const Series& s = big.series[a];
      const auto ms = [](const Series& x, const std::vector<double>& v) {
        return median_call_mean(x, v) / 1e3;
      };
      metrics.push_back({name + ".simd.makespan_ms", ms(s, s.makespan_us), "ms"});
      metrics.push_back({name + ".api.residual_ms", ms(s, s.residual_us), "ms"});
      metrics.push_back({name + ".compute_ms", ms(s, s.phase_us[0]), "ms"});
      metrics.push_back({name + ".pack_ms", ms(s, s.phase_us[1]), "ms"});
      metrics.push_back({name + ".transfer_ms", ms(s, s.phase_us[2]), "ms"});
      metrics.push_back({name + ".unpack_ms", ms(s, s.phase_us[3]), "ms"});
      metrics.push_back({name + ".simd.wait_ms", ms(s, s.wait_us), "ms"});
      metrics.push_back({name + ".vp_imbalance", median(s.imbalance), "ratio"});
      metrics.push_back({name + ".exchanges", static_cast<double>(s.exchanges), "count"});
      metrics.push_back({name + ".elements_sent", static_cast<double>(s.elements_sent), "count"});
      const Series& t = little.series[a];
      metrics.push_back({name + ".small.simd.makespan_ms", ms(t, t.makespan_us), "ms"});
      metrics.push_back({name + ".small.api.residual_ms", ms(t, t.residual_us), "ms"});
      metrics.push_back({name + ".small.simd.wait_ms", ms(t, t.wait_us), "ms"});
      traced_sum += median(s.wall_us);
      plain_sum += median(s.plain_wall_us);
      std::span<const char* const> rows;
      if (kAlgos[a].algorithm == api::Algorithm::kSmartBitonic) rows = kSmartObsRows;
      if (kAlgos[a].algorithm == api::Algorithm::kSampleSort) rows = kSampleObsRows;
      for (const char* row : rows) {
        const auto it = s.obs_max_us.find(row);  // absent: the layer did no work
        metrics.push_back({name + ".obs." + row + ".max_ms",
                           it == s.obs_max_us.end() ? 0.0 : median(it->second) / 1e3, "ms"});
      }
    }
    const double seq = median(big.seq_radix_us);
    metrics.push_back({"ref.std_parallel.keys_per_s",
                       static_cast<double>(kLargeN) / (median(big.host_ref_us) / 1e6), "keys/s"});
    metrics.push_back({"ref.std_parallel.small.keys_per_s",
                       static_cast<double>(kSmallN) / (median(little.host_ref_us) / 1e6), "keys/s"});
    metrics.push_back({"ref.seq_radix.keys_per_s", static_cast<double>(kLargeN) / (seq / 1e6), "keys/s"});
    metrics.push_back({"ref.std_sort.keys_per_s",
                       static_cast<double>(kLargeN) / (median(big.std_sort_us) / 1e6), "keys/s"});
    metrics.push_back({"smart.speedup_vs_seq_radix", seq / median(big.series[0].wall_us), "ratio"});
    metrics.push_back({"trace.overhead_frac", traced_sum / plain_sum - 1, "ratio"});

    metrics.push_back({"service.queue_p50_us", quantile(ref.queue_us, 0.5), "us"});
    metrics.push_back({"service.queue_p99_us", quantile(ref.queue_us, 0.99), "us"});
    metrics.push_back({"service.run_p50_us", quantile(ref.run_us, 0.5), "us"});
    metrics.push_back({"service.run_p99_us", quantile(ref.run_us, 0.99), "us"});
    metrics.push_back({"service.residual_p50_us", quantile(ref.residual_us, 0.5), "us"});
    metrics.push_back({"service.submit_p99_us", quantile(ref.submit_us, 0.99), "us"});
    metrics.push_back({"service.batch_occupancy_mean", ref.stats.batch_occupancy_mean, "requests"});
    // Batches depend on arrival timing, so they are not an exact "count".
    metrics.push_back({"service.batches", static_cast<double>(ref.stats.batches), "batches"});
    metrics.push_back({"service.sharded", static_cast<double>(ref.stats.sharded), "count"});
    metrics.push_back({"service.retries", static_cast<double>(ref.stats.retries), "count"});
    metrics.push_back({"service.shed", static_cast<double>(ref.stats.shed), "count"});
    metrics.push_back({"service.small.req_p99_us", quantile(ref.class_latency_us[kSmall], 0.99), "us"});
    metrics.push_back({"service.medium.req_p99_us", quantile(ref.class_latency_us[kMedium], 0.99), "us"});
    std::vector<double> large_lat = ref.class_latency_us[kLargeUniform];
    large_lat.insert(large_lat.end(), ref.class_latency_us[kLargeDup].begin(),
                     ref.class_latency_us[kLargeDup].end());
    metrics.push_back({"service.large.req_p90_us", quantile(large_lat, 0.9), "us"});
    metrics.push_back({"service.large_uniform.run_p50_us", quantile(ref.class_run_us[kLargeUniform], 0.5), "us"});
    metrics.push_back({"service.large_dup.run_p50_us", quantile(ref.class_run_us[kLargeDup], 0.5), "us"});
    double max_rate = 0;
    for (const auto& s : steps) {
      const double p99 = quantile(s.latency_us, 0.99);
      if (s.rate != kReferenceRate) {
        metrics.push_back({"step_" + std::to_string(static_cast<int>(s.rate)) + ".req_p99_us", p99, "us"});
      }
      if (p99 <= kP99LimitUs && s.drain_s <= kDrainLimitS) max_rate = std::max(max_rate, s.rate);
    }
    metrics.push_back({"service.max_rate_req_per_s", max_rate, "req/s"});
    std::vector<double> lag;
    for (const auto& s : steps) lag.insert(lag.end(), s.lag_us.begin(), s.lag_us.end());
    metrics.push_back({"harness.gen_lag_p99_us", quantile(lag, 0.99), "us"});
  }

  // Human-readable report first; the JSON result is the last stdout line.
  std::cout << "workload " << args.workload << "  seed " << args.seed << "  seconds " << S
            << "  trace " << trace << "\n";
  for (const auto& m : metrics) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << "absolute throughput on this host (median call, keys/s; not a metric):\n";
  for (const auto* r : {&big, &little}) {
    const double n = static_cast<double>(r == &big ? kLargeN : kSmallN);
    std::printf("  n=%-8.0f std_parallel %.4g", n, n / median(r->host_ref_us) * 1e6);
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      const auto& calls = trace ? r->series[a].wall_us : r->series[a].plain_wall_us;
      std::printf("  %s %.4g", kAlgos[a].name, n / median(calls) * 1e6);
    }
    std::printf("\n");
  }
  if (trace) {
    log.close(ctx.root);
    std::cout << "breakdown check (residual+wait+compute+pack+transfer+unpack vs median wall):\n";
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      for (const Series* s : {&big.series[a], &little.series[a]}) {
        double sum = median_call_mean(*s, s->residual_us) + median_call_mean(*s, s->wait_us);
        for (const auto& ph : s->phase_us) sum += median_call_mean(*s, ph);
        const double wall = median(s->wall_us);
        const double off = sum / wall - 1;
        std::printf("  %-16s %-6s sum %10.3f ms  wall %10.3f ms  off %+6.2f%% %s\n", kAlgos[a].name,
                    s == &big.series[a] ? "large" : "small", sum / 1e3, wall / 1e3, 100 * off,
                    std::abs(off) <= 0.05 ? "ok" : "OVER 5%");
      }
    }
    std::cout << "self time per layer (benchmark-side spans, ms):\n";
    for (const auto& [name, ms] : log.self_ms()) std::printf("  %-44s %12.3f\n", name.c_str(), ms);
    if (log.dropped() > 0) std::cout << "  (" << log.dropped() << " spans dropped)\n";
    std::ofstream f(args.out_dir + "/TRACE_" + args.workload + ".json");
    log.write_chrome(f, "e2e_bench " + args.workload);
    if (!f) {
      std::cerr << "e2e_bench: cannot write the trace file\n";
      tally.record(false, "trace file");
    }
  }
  const bool correct = tally.failed == 0;
  write_json(std::cout, correct, tally, metrics);
  std::cout.flush();
  return correct ? 0 : 1;
}
