#include "simd/machine.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "backend/backend.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "loggp/cost.hpp"

namespace bsort::simd {

const PhaseBreakdown& RunReport::critical_phases() const {
  static const PhaseBreakdown kEmpty{};
  if (proc_us.empty()) return kEmpty;
  const auto it = std::max_element(proc_us.begin(), proc_us.end());
  return proc_phases[static_cast<std::size_t>(it - proc_us.begin())];
}

CommStats RunReport::total_comm() const {
  CommStats t;
  for (const auto& c : proc_comm) {
    t.exchanges = std::max(t.exchanges, c.exchanges);
    t.elements_sent += c.elements_sent;
    t.messages_sent += c.messages_sent;
  }
  return t;
}

namespace {

/// Thrown into VPs blocked on (or arriving at) a poisoned barrier so they
/// unwind instead of deadlocking when a peer VP died with an exception.
/// Caught by the worker loop; never escapes Machine::run.
struct BarrierPoison {};

double thread_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// True when timed sections should use the per-thread CPU clock and run
/// without serialization: the clock must tick finely enough (<= 1us)
/// AND the host must actually be able to run VPs concurrently.  On a
/// single-hardware-thread host there is no concurrency to unlock, and
/// CLOCK_THREAD_CPUTIME_ID reads are real syscalls (~5x the cost of the
/// vDSO monotonic clock), so the sharded-lock fallback is strictly
/// cheaper there.
bool probe_thread_clock() {
  if (const char* env = std::getenv("BSORT_FORCE_SHARDED_TIMING")) {
    if (env[0] == '1') return false;
  }
  if (const char* env = std::getenv("BSORT_FORCE_THREAD_TIMING")) {
    if (env[0] == '1') return true;
  }
  if (std::thread::hardware_concurrency() < 2) return false;
  timespec res{};
  if (clock_getres(CLOCK_THREAD_CPUTIME_ID, &res) != 0) return false;
  return res.tv_sec == 0 && res.tv_nsec <= 1000;
}

/// The recorder accessors' contract: while recording is off the rings
/// are empty vectors, so indexing them would read out of bounds.
void check_recorded(const char* what, bool enabled, int rank, int nprocs) {
  if (!enabled) {
    throw ConfigError(std::string(what) +
                          ": recording is disabled on this machine (call "
                          "enable_profiling() before the run)",
                      {.rank = rank});
  }
  if (rank < 0 || rank >= nprocs) {
    std::ostringstream os;
    os << what << ": rank " << rank << " outside [0, " << nprocs << ")";
    throw ConfigError(os.str(), {.rank = rank});
  }
}

}  // namespace

/// Sentinel in recv_declared: this view carries no integrity seal (self
/// slot, or integrity was enabled after the exchange committed).
inline constexpr std::size_t kUnsealed = static_cast<std::size_t>(-1);

/// Persistent per-VP exchange buffers, recycled across exchanges and
/// across run() calls.
struct VpState {
  std::vector<std::uint32_t> arena;       ///< staging area for outgoing payloads
  std::vector<std::uint64_t> send_peers;  ///< pattern of the open exchange
  std::vector<std::uint64_t> recv_peers;
  std::vector<std::size_t> slot_off;
  std::vector<std::size_t> slot_len;
  std::vector<std::span<const std::uint32_t>> recv_views;
  std::size_t self_slot = static_cast<std::size_t>(-1);
  bool open = false;

  /// Receive-side heap for the native backend: collect() memcpys every
  /// non-self payload here and re-points recv_views at the copies.
  /// Unused (stays empty) on the simulated backend, whose views are
  /// zero-copy spans into the senders' arenas.
  std::vector<std::uint32_t> recv_arena;

  /// open_exchange duplicate-peer scratch (bit 0 = seen as send peer,
  /// bit 1 = seen as recv peer); sized to nprocs on first use and
  /// recycled, so steady-state validation allocates nothing.
  std::vector<std::uint8_t> peer_seen;

  /// Integrity metadata of the current recv views (parallel to
  /// recv_views): the size and checksum the sender sealed at commit.
  /// recv_declared[i] == kUnsealed marks an unverified view.
  std::vector<std::size_t> recv_declared;
  std::vector<std::uint64_t> recv_sum;

  /// Watchdog state, published by the owning VP at each protocol step
  /// and read by the monitor thread (relaxed atomics: the snapshot is a
  /// diagnostic, not a synchronization point).
  std::atomic<const char*> st_where{"idle"};
  std::atomic<std::uint64_t> st_exchanges{0};
  std::atomic<double> st_clock{0};

  /// Innermost open structural span (kind + arg) and leaf span, also for
  /// the watchdog diagnosis ("stuck in remap 3 / unpack").  255 = none.
  std::atomic<std::uint8_t> st_span_kind{255};
  std::atomic<std::int32_t> st_span_arg{-1};
  std::atomic<std::uint8_t> st_leaf_kind{255};
};

/// Clock-synchronizing sense barrier, a host-only drain barrier, the
/// span mailbox and the persistent worker pool.
struct Machine::Impl {
  /// One mailbox cell: a view into the sending VP's arena.  Written by
  /// src at open_exchange (after the drain barrier), read and reset by
  /// dst at commit_exchange (after the sync barrier); the barriers make
  /// every access race-free.  With integrity checking on, the sender
  /// also seals `declared`/`checksum` at commit (before the sync
  /// barrier) — a fault that later tampers with `size` or the payload
  /// can no longer alter the seal.
  struct Cell {
    const std::uint32_t* data = nullptr;
    std::size_t size = 0;
    std::size_t declared = kUnsealed;  ///< sealed size (kUnsealed = no seal)
    std::uint64_t checksum = 0;        ///< sealed FNV-1a of the payload
  };

  /// An armed fault plan plus its per-run firing state.  `fired` is
  /// written only by the rule's victim VP; `fires` is the cross-VP
  /// total exposed through Machine::faults_fired().
  struct ActiveFaults {
    fault::FaultPlan plan;
    std::vector<std::uint8_t> fired;
    std::atomic<std::uint64_t> fires{0};
  };

  explicit Impl(int nprocs, int timing_shards)
      : nprocs(nprocs),
        cells(static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs)),
        vps(static_cast<std::size_t>(nprocs)),
        timed_shards(static_cast<std::size_t>(timing_shards)),
        errors(static_cast<std::size_t>(nprocs)) {}

  int nprocs;

  // ---- barrier state (guarded by mu) --------------------------------
  std::mutex mu;
  std::condition_variable cv;
  int waiting = 0;                 ///< clock barrier participants so far
  std::uint64_t generation = 0;
  double max_clock = 0;
  double barrier_result = 0;
  int h_waiting = 0;               ///< host (drain) barrier participants
  std::uint64_t h_generation = 0;
  bool poisoned = false;           ///< a VP died; all barriers throw

  std::vector<Cell> cells;  ///< cells[dst * P + src]
  std::vector<VpState> vps;

  // ---- recording: span rings & metrics (src/obs/) -------------------
  // Rings are per-VP and single-writer (each VP appends only to its
  // own), so recording needs no locks; enable/disable happen between
  // runs only.  obs_armed is the per-run fast-path flag: the span stack
  // is maintained whenever recording OR a watchdog is on (the watchdog
  // diagnosis reads it), but rings, host-clock reads and metrics cost
  // nothing unless obs_enabled.
  bool obs_enabled = false;
  bool obs_armed = false;  ///< obs_enabled || watchdog_s > 0, set by run()
  std::vector<obs::VpSpans> spans;
  std::vector<obs::VpMetrics> metrics;

  // ---- hardening (src/fault/) ---------------------------------------
  bool integrity = false;             ///< per-slot checksum verification
  double watchdog_s = 0;              ///< real-time run deadline (0 = off)
  std::unique_ptr<ActiveFaults> faults;  ///< armed fault plan (null = off)
  bool timed_out = false;             ///< watchdog fired (guarded by mu)
  std::vector<BarrierTimeout::VpSnapshot> timeout_states;

  bool thread_clock = false;
  std::vector<std::mutex> timed_shards;  ///< fallback timing locks

  /// Execution backend pricing (simulated) or measuring (native) every
  /// exchange.  Stateless and shared: collect() is called concurrently
  /// from every VP's worker thread.  Set once at construction.
  std::unique_ptr<bsort::backend::Backend> backend;

  // ---- worker pool (guarded by run_mu) ------------------------------
  std::mutex run_mu;
  std::condition_variable run_cv;   ///< workers wait for a new run
  std::condition_variable done_cv;  ///< run() waits for completion
  std::uint64_t run_id = 0;
  bool stopping = false;
  const std::function<void(Proc&)>* program = nullptr;
  Proc* procs = nullptr;
  int done = 0;
  std::vector<std::exception_ptr> errors;
  std::vector<std::thread> workers;

  Cell& cell(int dst, int src) {
    return cells[static_cast<std::size_t>(dst) * static_cast<std::size_t>(nprocs) +
                 static_cast<std::size_t>(src)];
  }

  /// Wait for all VPs; returns the max clock over participants.
  double barrier_sync(double my_clock) {
    std::unique_lock<std::mutex> lk(mu);
    if (poisoned) throw BarrierPoison{};
    max_clock = std::max(max_clock, my_clock);
    if (++waiting == nprocs) {
      waiting = 0;
      const double result = max_clock;
      max_clock = 0;
      ++generation;
      barrier_result = result;
      cv.notify_all();
      return result;
    }
    const std::uint64_t gen = generation;
    cv.wait(lk, [&] { return generation != gen || poisoned; });
    if (generation == gen) throw BarrierPoison{};  // woken by poison only
    return barrier_result;
  }

  /// Host-synchronization barrier with no effect on simulated clocks.
  /// Used as the drain point before arenas are rewritten.
  void host_barrier() {
    std::unique_lock<std::mutex> lk(mu);
    if (poisoned) throw BarrierPoison{};
    if (++h_waiting == nprocs) {
      h_waiting = 0;
      ++h_generation;
      cv.notify_all();
      return;
    }
    const std::uint64_t gen = h_generation;
    cv.wait(lk, [&] { return h_generation != gen || poisoned; });
    if (h_generation == gen) throw BarrierPoison{};
  }

  void poison() {
    {
      std::lock_guard<std::mutex> lk(mu);
      poisoned = true;
    }
    cv.notify_all();
  }

  void reset_barriers() {
    std::lock_guard<std::mutex> lk(mu);
    waiting = 0;
    h_waiting = 0;
    max_clock = 0;
    poisoned = false;
  }

  void worker_loop(int rank) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(Proc&)>* prog;
      Proc* proc;
      {
        std::unique_lock<std::mutex> lk(run_mu);
        run_cv.wait(lk, [&] { return stopping || run_id != seen; });
        if (stopping) return;
        seen = run_id;
        prog = program;
        proc = &procs[rank];
      }
      try {
        (*prog)(*proc);
        vps[static_cast<std::size_t>(rank)].st_where.store("done",
                                                           std::memory_order_relaxed);
      } catch (const BarrierPoison&) {
        // A peer died; this VP unwound cleanly through the poisoned
        // barrier and carries no error of its own.
        vps[static_cast<std::size_t>(rank)].st_where.store("unwound",
                                                           std::memory_order_relaxed);
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
        vps[static_cast<std::size_t>(rank)].st_where.store("failed",
                                                           std::memory_order_relaxed);
        poison();
      }
      {
        std::lock_guard<std::mutex> lk(run_mu);
        if (++done == nprocs) done_cv.notify_all();
      }
    }
  }
};

Machine::Machine(int nprocs, loggp::Params params, MessageMode mode, double cpu_scale)
    : Machine(nprocs, params, mode, cpu_scale, nullptr) {}

Machine::Machine(int nprocs, loggp::Params params, MessageMode mode, double cpu_scale,
                 std::unique_ptr<bsort::backend::Backend> exec)
    : nprocs_(nprocs), params_(params), mode_(mode), cpu_scale_(cpu_scale) {
  // Structured validation instead of the old asserts: in Release a
  // non-positive cpu_scale sailed through and corrupted every charge.
  if (nprocs < 1) {
    std::ostringstream os;
    os << "Machine: nprocs must be >= 1 (got " << nprocs << ")";
    throw ConfigError(os.str());
  }
  if (!(cpu_scale > 0)) {  // !(x > 0) also rejects NaN
    std::ostringstream os;
    os << "Machine: cpu_scale must be > 0 (got " << cpu_scale
       << "); it multiplies every measured compute time";
    throw ConfigError(os.str());
  }
  if (!exec) exec = bsort::backend::make(bsort::backend::kind_from_env(
                        bsort::backend::Kind::kSimulated));
  // Fallback shard count: no more concurrent timed sections than the
  // host can run without cross-VP interference (at least one shard).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int shards = std::max(1, std::min(nprocs, hw / 2));
  impl_ = new Impl(nprocs, shards);
  impl_->backend = std::move(exec);
  impl_->thread_clock = probe_thread_clock();
  impl_->workers.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    impl_->workers.emplace_back([this, r] { impl_->worker_loop(r); });
  }
}

const bsort::backend::Backend& Machine::backend() const { return *impl_->backend; }

void Machine::set_cpu_scale(double cpu_scale) {
  if (!(cpu_scale > 0)) {  // !(x > 0) also rejects NaN
    std::ostringstream os;
    os << "set_cpu_scale: cpu_scale must be > 0 (got " << cpu_scale
       << "); it multiplies every measured compute time";
    throw ConfigError(os.str());
  }
  cpu_scale_ = cpu_scale;
}

Machine::~Machine() {
  {
    std::lock_guard<std::mutex> lk(impl_->run_mu);
    impl_->stopping = true;
  }
  impl_->run_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

bool Machine::concurrent_timing() const { return impl_->thread_clock; }

void Machine::enable_profiling(std::size_t spans_per_vp) {
  impl_->spans.resize(static_cast<std::size_t>(nprocs_));
  for (auto& s : impl_->spans) s.reset(spans_per_vp);
  impl_->metrics.resize(static_cast<std::size_t>(nprocs_));
  for (auto& m : impl_->metrics) m.clear();
  impl_->obs_enabled = true;
}

void Machine::disable_profiling() {
  impl_->obs_enabled = false;
  impl_->spans.clear();
  impl_->spans.shrink_to_fit();
  impl_->metrics.clear();
  impl_->metrics.shrink_to_fit();
}

bool Machine::profiling() const { return impl_->obs_enabled; }

const obs::VpSpans& Machine::vp_spans(int rank) const {
  check_recorded("vp_spans", impl_->obs_enabled, rank, nprocs_);
  return impl_->spans[static_cast<std::size_t>(rank)];
}

const obs::VpMetrics& Machine::vp_metrics(int rank) const {
  check_recorded("vp_metrics", impl_->obs_enabled, rank, nprocs_);
  return impl_->metrics[static_cast<std::size_t>(rank)];
}

void Machine::enable_integrity() { impl_->integrity = true; }
void Machine::disable_integrity() { impl_->integrity = false; }
bool Machine::integrity() const { return impl_->integrity; }

void Machine::set_watchdog(double seconds) {
  if (seconds < 0) {
    throw ConfigError("set_watchdog: deadline must be >= 0 seconds");
  }
  impl_->watchdog_s = seconds;
}
double Machine::watchdog_seconds() const { return impl_->watchdog_s; }

void Machine::arm_faults(const fault::FaultPlan& plan) {
  for (const auto& r : plan.rules) {
    if (r.rank < 0 || r.rank >= nprocs_) {
      throw ConfigError("arm_faults: rule victim rank out of range",
                        {.rank = r.rank});
    }
  }
  auto af = std::make_unique<Impl::ActiveFaults>();
  af->plan = plan;
  af->fired.assign(plan.rules.size(), 0);
  impl_->faults = std::move(af);
}

void Machine::disarm_faults() { impl_->faults.reset(); }
bool Machine::faults_armed() const { return impl_->faults != nullptr; }

std::uint64_t Machine::faults_fired() const {
  return impl_->faults ? impl_->faults->fires.load(std::memory_order_relaxed) : 0;
}

double Proc::cpu_scale() const { return machine_.cpu_scale_; }

MessageMode Proc::mode() const { return machine_.mode(); }
const loggp::Params& Proc::params() const { return machine_.params(); }

double Proc::now_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

Proc::TimedToken Proc::timed_begin() {
  if (in_timed_) {
    throw ConfigError("nested Proc::timed sections are not allowed",
                      {rank_, static_cast<std::int64_t>(comm_.exchanges), -1});
  }
  publish_state("timed");
  auto& impl = *machine_.impl_;
  if (impl.thread_clock) {
    in_timed_ = true;
    return {thread_now_us(), -1};
  }
  const int shard = rank_ % static_cast<int>(impl.timed_shards.size());
  impl.timed_shards[static_cast<std::size_t>(shard)].lock();
  in_timed_ = true;
  return {now_us(), shard};
}

double Proc::timed_end(const TimedToken& tok) {
  in_timed_ = false;
  if (tok.shard < 0) return thread_now_us() - tok.t0;
  const double dt = now_us() - tok.t0;
  machine_.impl_->timed_shards[static_cast<std::size_t>(tok.shard)].unlock();
  return dt;
}

void Proc::timed_abort(const TimedToken& tok) {
  in_timed_ = false;
  if (tok.shard >= 0) {
    machine_.impl_->timed_shards[static_cast<std::size_t>(tok.shard)].unlock();
  }
}

void Proc::check_outside_timed(const char* what) const {
  if (!in_timed_) return;
  throw ConfigError(std::string(what) +
                        " called inside a Proc::timed section (the contract forbids "
                        "barrier/exchange/open_exchange/commit_exchange in timed f(); "
                        "it would deadlock the sharded-timing fallback)",
                    {rank_, static_cast<std::int64_t>(comm_.exchanges), -1});
}

void Proc::publish_state(const char* where) {
  auto& vp = *vp_;
  if (machine_.impl_->watchdog_s <= 0) return;  // one predicted branch when off
  vp.st_where.store(where, std::memory_order_relaxed);
  vp.st_exchanges.store(comm_.exchanges, std::memory_order_relaxed);
  vp.st_clock.store(clock_us_, std::memory_order_relaxed);
}

void Proc::charge(Phase phase, double us) {
  clock_us_ += us;
  phases_.us[static_cast<int>(phase)] += us;
}

void Proc::publish_span_state() {
  if (machine_.impl_->watchdog_s <= 0) return;
  // Innermost leaf sits above the innermost structural span, so one
  // walk from the top of the stack finds both.
  std::uint8_t leaf = 255;
  std::uint8_t structural = 255;
  std::int32_t arg = -1;
  for (int i = span_depth_ - 1; i >= 0; --i) {
    const OpenSpan& s = span_stack_[i];
    if (obs::span_kind_is_leaf(s.kind)) {
      if (leaf == 255) leaf = static_cast<std::uint8_t>(s.kind);
    } else {
      structural = static_cast<std::uint8_t>(s.kind);
      arg = s.arg;
      break;
    }
  }
  auto& vp = *vp_;
  vp.st_span_kind.store(structural, std::memory_order_relaxed);
  vp.st_span_arg.store(arg, std::memory_order_relaxed);
  vp.st_leaf_kind.store(leaf, std::memory_order_relaxed);
}

int Proc::span_begin(obs::SpanKind kind, std::int32_t arg) {
  auto& impl = *machine_.impl_;
  if (!impl.obs_armed) return -1;  // one predicted branch when off
  if (span_depth_ >= kMaxSpanDepth) return -1;  // drop; nesting this deep is a bug
  OpenSpan& s = span_stack_[span_depth_];
  s.kind = kind;
  s.arg = arg;
  s.sim0 = clock_us_;
  s.host0 = impl.obs_enabled ? thread_now_us() : 0;
  const int tok = span_depth_++;
  publish_span_state();
  return tok;
}

bool Proc::pop_span(int token, obs::SpanRecord& r) {
  if (token < 0) return false;
  if (token >= span_depth_) return false;  // stack already unwound past this span
  const OpenSpan s = span_stack_[token];
  span_depth_ = token;  // closes this span and anything left open inside it
  publish_span_state();
  if (!machine_.impl_->obs_enabled) return false;
  r.sim_begin_us = s.sim0;
  r.sim_end_us = clock_us_;
  r.host_begin_us = s.host0;
  r.host_end_us = thread_now_us();
  r.arg = s.arg;
  r.kind = s.kind;
  r.depth = static_cast<std::uint8_t>(token);
  return true;
}

void Proc::record(const obs::SpanRecord& r) {
  auto& impl = *machine_.impl_;
  const auto rank = static_cast<std::size_t>(rank_);
  impl.spans[rank].push(r);
  auto& m = impl.metrics[rank];
  const auto k = static_cast<std::size_t>(r.kind);
  m.span_us[k] += r.sim_us();
  m.span_count[k] += 1;
  constexpr double kKeyBytes = sizeof(std::uint32_t);
  if (r.kind == obs::SpanKind::kBarrierWait) {
    // The clock jump absorbed at the barrier is BSP skew.
    m.barriers += 1;
    m.barrier_skew_us.record(r.sim_us());
  } else if (r.kind == obs::SpanKind::kExchange) {
    m.exchanges += 1;
    m.exchange_bytes.record(static_cast<double>(r.elements) * kKeyBytes);
    // Slot sizes come from the exchange being committed.
    const auto& vp = *vp_;
    for (std::size_t i = 0; i < vp.send_peers.size(); ++i) {
      if (static_cast<int>(vp.send_peers[i]) == rank_ || vp.slot_len[i] == 0) continue;
      m.slot_bytes.record(static_cast<double>(vp.slot_len[i]) * kKeyBytes);
    }
  }
}

void Proc::span_end(int token) {
  if (token < 0) return;  // one predicted branch when nothing is armed
  obs::SpanRecord r;
  if (pop_span(token, r)) record(r);
}

void Proc::span_instant(obs::SpanKind kind, std::int32_t arg,
                        std::uint8_t fault_mask) {
  if (!machine_.impl_->obs_enabled) return;
  obs::SpanRecord r;
  const double host = thread_now_us();
  r.sim_begin_us = clock_us_;
  r.sim_end_us = clock_us_;
  r.host_begin_us = host;
  r.host_end_us = host;
  r.arg = arg;
  r.kind = kind;
  r.depth = static_cast<std::uint8_t>(span_depth_);
  r.fault_mask = fault_mask;
  record(r);
}

int Proc::span_begin_phase(Phase phase) {
  if (!machine_.impl_->obs_armed) return -1;
  static constexpr obs::SpanKind kPhaseSpan[kPhaseCount] = {
      obs::SpanKind::kCompute, obs::SpanKind::kPack, obs::SpanKind::kExchange,
      obs::SpanKind::kUnpack};
  return span_begin(kPhaseSpan[static_cast<int>(phase)],
                    static_cast<std::int32_t>(comm_.exchanges));
}

void Proc::barrier() {
  check_outside_timed("barrier");
  publish_state("barrier");
  // The clock jump absorbed here is BSP skew: a leaf span whose
  // duration record() also files under barrier_skew_us.
  const int sp = span_begin(obs::SpanKind::kBarrierWait);
  clock_us_ = machine_.impl_->barrier_sync(clock_us_);
  span_end(sp);
  publish_state("running");
}

void Proc::trace_remap(int group_log2, trace::LayoutTag from, trace::LayoutTag to) {
  if (!machine_.impl_->obs_enabled) return;
  trace_ann_.group_log2 = static_cast<std::int16_t>(group_log2);
  trace_ann_.from = from;
  trace_ann_.to = to;
  trace_ann_.armed = true;
}

void Proc::open_exchange(std::span<const std::uint64_t> send_peers,
                         std::span<const std::size_t> send_sizes,
                         std::span<const std::uint64_t> recv_peers) {
  check_outside_timed("open_exchange");
  auto& impl = *machine_.impl_;
  auto& vp = *vp_;

  // ---- argument validation (always on) ------------------------------
  // Every rejection happens BEFORE the drain barrier and before any
  // shared state is touched: a malformed exchange poisons the run with
  // a structured error instead of silently cross-wiring the mailbox.
  const ErrorContext ctx{rank_, static_cast<std::int64_t>(comm_.exchanges), -1};
  if (vp.open) {
    throw ExchangeError("open_exchange while an exchange is already open", ctx);
  }
  if (send_peers.size() != send_sizes.size()) {
    std::ostringstream os;
    os << "open_exchange: send_peers/send_sizes length mismatch ("
       << send_peers.size() << " vs " << send_sizes.size() << ")";
    throw ExchangeError(os.str(), ctx);
  }
  // Duplicate detection: bit 0 marks a send peer, bit 1 a recv peer.
  // peer_seen is a persistent per-VP buffer, so steady-state validation
  // performs no heap allocation.
  vp.peer_seen.assign(static_cast<std::size_t>(nprocs_), 0);
  const auto check_peer = [&](std::uint64_t peer, std::size_t i, std::uint8_t mark,
                              const char* list) {
    if (peer >= static_cast<std::uint64_t>(nprocs_)) {
      std::ostringstream os;
      os << "open_exchange: " << list << '[' << i << "] = " << peer
         << " out of range (nprocs " << nprocs_ << ")";
      throw ExchangeError(os.str(), ctx, static_cast<std::int64_t>(peer),
                          static_cast<std::int64_t>(i));
    }
    auto& seen = vp.peer_seen[static_cast<std::size_t>(peer)];
    if (seen & mark) {
      std::ostringstream os;
      os << "open_exchange: duplicate " << list << " entry " << peer
         << " (each peer may appear at most once per list; a self entry is "
            "allowed but also only once)";
      throw ExchangeError(os.str(), ctx, static_cast<std::int64_t>(peer),
                          static_cast<std::int64_t>(i));
    }
    seen |= mark;
  };
  for (std::size_t i = 0; i < send_peers.size(); ++i) check_peer(send_peers[i], i, 1, "send_peers");
  for (std::size_t i = 0; i < recv_peers.size(); ++i) check_peer(recv_peers[i], i, 2, "recv_peers");

  publish_state("open_exchange");

  // Drain point: after this barrier every VP has finished reading the
  // views of the previous exchange, so arenas may be rewritten.  Host
  // synchronization only — simulated clocks are untouched.
  impl.host_barrier();

  vp.send_peers.assign(send_peers.begin(), send_peers.end());
  vp.recv_peers.assign(recv_peers.begin(), recv_peers.end());
  vp.slot_off.resize(send_peers.size());
  vp.slot_len.resize(send_peers.size());
  vp.self_slot = static_cast<std::size_t>(-1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < send_peers.size(); ++i) {
    vp.slot_off[i] = total;
    vp.slot_len[i] = send_sizes[i];
    total += send_sizes[i];
    if (static_cast<int>(send_peers[i]) == rank_) vp.self_slot = i;
  }
  // With faults armed, leave kMaxSizeDelta slack so a kOversize rule's
  // inflated published size still reads inside this VP's allocation.
  vp.arena.resize(total + (impl.faults ? fault::kMaxSizeDelta : 0));

  // Publish the cells now (sizes are known); receivers dereference them
  // only after the sync barrier in commit_exchange, by which time the
  // slots are filled.
  for (std::size_t i = 0; i < send_peers.size(); ++i) {
    const auto dst = static_cast<int>(send_peers[i]);
    if (dst == rank_) continue;
    impl.cell(dst, rank_) = {vp.arena.data() + vp.slot_off[i], vp.slot_len[i]};
  }
  vp.open = true;
}

std::span<std::uint32_t> Proc::send_slot(std::size_t i) {
  auto& vp = *vp_;
  const ErrorContext ctx{rank_, static_cast<std::int64_t>(comm_.exchanges), -1};
  if (!vp.open) {
    throw ExchangeError("send_slot outside an open exchange", ctx, -1,
                        static_cast<std::int64_t>(i));
  }
  if (i >= vp.slot_off.size()) {
    std::ostringstream os;
    os << "send_slot index " << i << " out of range (exchange has "
       << vp.slot_off.size() << " send slots)";
    throw ExchangeError(os.str(), ctx, -1, static_cast<std::int64_t>(i));
  }
  return {vp.arena.data() + vp.slot_off[i], vp.slot_len[i]};
}

void Proc::commit_exchange() {
  check_outside_timed("commit_exchange");
  auto& impl = *machine_.impl_;
  auto& vp = *vp_;
  if (!vp.open) {
    throw ExchangeError("commit_exchange without an open exchange",
                        {rank_, static_cast<std::int64_t>(comm_.exchanges), -1});
  }
  publish_state("commit_exchange");

  // Seal every transmitted slot: checksum + size as packed, BEFORE any
  // fault can tamper with the payload or the published size.
  if (impl.integrity) {
    for (std::size_t i = 0; i < vp.send_peers.size(); ++i) {
      const auto dst = static_cast<int>(vp.send_peers[i]);
      if (dst == rank_) continue;
      auto& c = impl.cell(dst, rank_);
      c.declared = vp.slot_len[i];
      c.checksum = fault::checksum(
          {vp.arena.data() + vp.slot_off[i], vp.slot_len[i]});
    }
  }

  // Injected faults land between the seal and the sync barrier — the
  // point where real hardware corrupts payloads and lies about sizes.
  const std::uint8_t fault_mask = impl.faults ? apply_commit_faults() : 0;

  // Clock-synchronizing barrier: all slots are filled and globally
  // visible afterwards.  Equivalent to the legacy double barrier (no
  // time is charged between the two, so the second sync was a no-op).
  barrier();

  std::uint64_t elements = 0;
  std::uint64_t messages = 0;
  for (std::size_t i = 0; i < vp.send_peers.size(); ++i) {
    // A self peer or an empty slot transmits nothing: neither is a
    // message (counting empty slots could make M exceed V, violating
    // remap_time_long's precondition that every message carries at
    // least one element).
    if (static_cast<int>(vp.send_peers[i]) == rank_ || vp.slot_len[i] == 0) continue;
    elements += vp.slot_len[i];
    messages += 1;
  }

  vp.recv_views.resize(vp.recv_peers.size());
  if (impl.integrity) {
    vp.recv_declared.resize(vp.recv_peers.size());
    vp.recv_sum.resize(vp.recv_peers.size());
  }
  std::size_t self_view = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < vp.recv_peers.size(); ++i) {
    const auto src = static_cast<int>(vp.recv_peers[i]);
    if (src == rank_) {
      self_view = i;
      // Kept portion: the VP's own staged slot (empty if none staged).
      // Never transmitted, so it carries no integrity seal.
      if (vp.self_slot != static_cast<std::size_t>(-1)) {
        vp.recv_views[i] = {vp.arena.data() + vp.slot_off[vp.self_slot],
                            vp.slot_len[vp.self_slot]};
      } else {
        vp.recv_views[i] = {};
      }
      if (impl.integrity) vp.recv_declared[i] = kUnsealed;
      continue;
    }
    auto& c = impl.cell(rank_, src);
    vp.recv_views[i] = {c.data, c.size};
    if (impl.integrity) {
      vp.recv_declared[i] = c.declared;
      vp.recv_sum[i] = c.checksum;
    }
    c = {};  // a peer that never deposits again reads back empty
  }

  // Price (simulated) or execute-and-measure (native) the transfer.
  // Short messages: each key is its own message in the CommStats, on
  // either backend — the counters describe the schedule, not the cost.
  const std::uint64_t peers = messages;  // payload-bearing non-self peers
  bsort::backend::ExchangeDesc xd;
  xd.params = &machine_.params_;
  xd.elements = elements;
  xd.messages = messages;
  xd.long_messages = machine_.mode_ == MessageMode::kLong;
  xd.elem_bytes = static_cast<int>(sizeof(std::uint32_t));
  if (machine_.mode_ == MessageMode::kShort) messages = elements;
  // Leaf span covering the backend's collect plus the transfer charge
  // (the barrier wait above already has its own leaf span — no double
  // counting).  On the native backend the span's host time therefore
  // brackets the real memcpys.  Its record carries the exchange payload.
  const auto seq = static_cast<std::int32_t>(comm_.exchanges);
  const int xsp = span_begin(obs::SpanKind::kExchange, seq);
  const double t = impl.backend->collect(
      xd, {vp.recv_views.data(), vp.recv_views.size()}, self_view,
      vp.recv_arena);
  charge(Phase::kTransfer, t);
  obs::SpanRecord r;
  if (pop_span(xsp, r)) {
    r.elements = elements;
    r.messages = messages;
    r.peers = static_cast<std::uint32_t>(peers);
    r.fault_mask = fault_mask;
    if (trace_ann_.armed) {
      r.remap = trace_remaps_++;
      r.group_log2 = trace_ann_.group_log2;
      r.layout_from = trace_ann_.from;
      r.layout_to = trace_ann_.to;
      trace_ann_ = TraceAnnotation{};
    }
    record(r);
    if (fault_mask != 0) span_instant(obs::SpanKind::kFault, seq, fault_mask);
  }
  comm_.exchanges += 1;
  comm_.elements_sent += elements;
  comm_.messages_sent += messages;
  vp.open = false;
  publish_state("running");
}

std::span<const std::uint32_t> Proc::recv_view(std::size_t i) const {
  const auto& vp = *vp_;
  if (i >= vp.recv_views.size()) {
    std::ostringstream os;
    os << "recv_view index " << i << " out of range (exchange has "
       << vp.recv_views.size() << " recv views)";
    throw ExchangeError(os.str(),
                        {rank_, static_cast<std::int64_t>(comm_.exchanges) - 1, -1},
                        -1, static_cast<std::int64_t>(i));
  }
  const auto view = vp.recv_views[i];
  if (machine_.impl_->integrity && i < vp.recv_declared.size() &&
      vp.recv_declared[i] != kUnsealed) {
    // The context names the exchange just committed (and, when
    // recording is on, its remap ordinal) so a mismatch is attributable
    // to one schedule step.
    const ErrorContext ctx{rank_, static_cast<std::int64_t>(comm_.exchanges) - 1,
                           machine_.impl_->obs_enabled
                               ? static_cast<std::int64_t>(trace_remaps_) - 1
                               : -1};
    const auto sender = static_cast<std::int64_t>(vp.recv_peers[i]);
    if (view.size() != vp.recv_declared[i]) {
      std::ostringstream os;
      os << "exchange integrity: slot size mismatch — sender " << sender
         << " sealed " << vp.recv_declared[i] << " elements, receiver " << rank_
         << " got " << view.size();
      throw IntegrityError(os.str(), ctx, sender, static_cast<std::int64_t>(i));
    }
    if (fault::checksum(view) != vp.recv_sum[i]) {
      std::ostringstream os;
      os << "exchange integrity: checksum mismatch — payload of " << view.size()
         << " elements from sender " << sender << " to receiver " << rank_
         << " was altered after packing";
      throw IntegrityError(os.str(), ctx, sender, static_cast<std::int64_t>(i));
    }
  }
  return view;
}

std::size_t Proc::recv_view_count() const { return vp_->recv_views.size(); }

std::uint8_t Proc::apply_commit_faults() {
  auto& impl = *machine_.impl_;
  auto& af = *impl.faults;
  auto& vp = *vp_;
  std::uint8_t mask = 0;

  // First non-self slot satisfying `min_len`, or npos — the injection
  // target for payload/size rules.
  const auto pick_slot = [&](std::size_t min_len) {
    for (std::size_t i = 0; i < vp.send_peers.size(); ++i) {
      if (static_cast<int>(vp.send_peers[i]) == rank_) continue;
      if (vp.slot_len[i] >= min_len) return i;
    }
    return static_cast<std::size_t>(-1);
  };

  for (std::size_t ri = 0; ri < af.plan.rules.size(); ++ri) {
    const auto& rule = af.plan.rules[ri];
    // Rank check FIRST: `fired[ri]` is written by the victim VP's
    // thread, so every other VP reading it here (as the old order did)
    // is a data race.  With the rank filter in front, each fired slot
    // is touched by exactly one thread for the whole run; the pre-run
    // resets in arm_faults()/run() happen-before worker dispatch.
    if (rule.rank != rank_ || af.fired[ri]) continue;
    // `comm_.exchanges` is the 0-based ordinal of the exchange being
    // committed; a rule waits for the first ELIGIBLE exchange at or
    // after its trigger ordinal.
    if (comm_.exchanges < rule.exchange) continue;
    const ErrorContext ctx{rank_, static_cast<std::int64_t>(comm_.exchanges), -1};

    switch (rule.kind) {
      case fault::FaultKind::kStraggler: {
        af.fired[ri] = 1;
        af.fires.fetch_add(1, std::memory_order_relaxed);
        // Simulated skew on the victim's clock (charged as compute so
        // transfer-time model validation stays exact); its own leaf
        // span kind so the timeline shows the injected delay by name...
        const int sp = span_begin(obs::SpanKind::kStraggler,
                                  static_cast<std::int32_t>(comm_.exchanges));
        charge(Phase::kCompute, rule.delay_us);
        span_end(sp);
        // ...plus BOUNDED real stall, so peers actually park in the
        // commit barrier and the watchdog has something to observe.
        const double ms = std::clamp(rule.real_ms, 0.0, fault::kMaxRealStallMs);
        if (ms > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
        }
        mask |= trace::kFaultStraggler;
        break;
      }
      case fault::FaultKind::kCrash: {
        af.fired[ri] = 1;
        af.fires.fetch_add(1, std::memory_order_relaxed);
        std::ostringstream os;
        os << "injected fault: crash of vp " << rank_ << " at exchange "
           << comm_.exchanges << " (rule " << ri << ", plan seed " << af.plan.seed
           << ")";
        throw ExchangeError(os.str(), ctx);
      }
      case fault::FaultKind::kCorrupt: {
        const std::size_t slot = pick_slot(1);
        if (slot == static_cast<std::size_t>(-1)) break;  // retry next exchange
        af.fired[ri] = 1;
        af.fires.fetch_add(1, std::memory_order_relaxed);
        const std::size_t word = (rule.bit / 32) % vp.slot_len[slot];
        vp.arena[vp.slot_off[slot] + word] ^= (1u << (rule.bit % 32));
        mask |= trace::kFaultCorrupt;
        break;
      }
      case fault::FaultKind::kTruncate: {
        const std::size_t slot = pick_slot(1);
        if (slot == static_cast<std::size_t>(-1)) break;
        af.fired[ri] = 1;
        af.fires.fetch_add(1, std::memory_order_relaxed);
        auto& c = impl.cell(static_cast<int>(vp.send_peers[slot]), rank_);
        c.size = vp.slot_len[slot] - std::min(rule.delta, vp.slot_len[slot]);
        mask |= trace::kFaultTruncate;
        break;
      }
      case fault::FaultKind::kOversize: {
        const std::size_t slot = pick_slot(0);
        if (slot == static_cast<std::size_t>(-1)) break;
        af.fired[ri] = 1;
        af.fires.fetch_add(1, std::memory_order_relaxed);
        auto& c = impl.cell(static_cast<int>(vp.send_peers[slot]), rank_);
        // Stays inside the arena: open_exchange reserved kMaxSizeDelta
        // slack while faults are armed.
        c.size = vp.slot_len[slot] + std::min(rule.delta, fault::kMaxSizeDelta);
        mask |= trace::kFaultOversize;
        break;
      }
    }
  }
  return mask;
}

std::vector<std::vector<std::uint32_t>> Proc::exchange(
    std::span<const std::uint64_t> send_peers,
    std::vector<std::vector<std::uint32_t>> payloads,
    std::span<const std::uint64_t> recv_peers) {
  assert(send_peers.size() == payloads.size());
  std::vector<std::size_t> sizes(send_peers.size());
  for (std::size_t i = 0; i < send_peers.size(); ++i) {
    // Self payload is dropped by contract (kept portion is the caller's).
    sizes[i] = static_cast<int>(send_peers[i]) == rank_ ? 0 : payloads[i].size();
  }
  open_exchange(send_peers, sizes, recv_peers);
  for (std::size_t i = 0; i < send_peers.size(); ++i) {
    if (sizes[i] == 0) continue;
    std::copy(payloads[i].begin(), payloads[i].end(), send_slot(i).begin());
  }
  commit_exchange();

  std::vector<std::vector<std::uint32_t>> received(recv_peers.size());
  for (std::size_t i = 0; i < recv_peers.size(); ++i) {
    if (static_cast<int>(recv_peers[i]) == rank_) continue;  // empty by contract
    const auto view = recv_view(i);
    received[i].assign(view.begin(), view.end());
  }
  return received;
}

std::vector<std::uint32_t> Proc::exchange_with(std::uint64_t partner,
                                               std::vector<std::uint32_t> payload) {
  const std::uint64_t peers_arr[1] = {partner};
  const std::size_t sizes_arr[1] = {
      static_cast<int>(partner) == rank_ ? std::size_t{0} : payload.size()};
  open_exchange(std::span<const std::uint64_t>(peers_arr, 1),
                std::span<const std::size_t>(sizes_arr, 1),
                std::span<const std::uint64_t>(peers_arr, 1));
  if (sizes_arr[0] != 0) {
    std::copy(payload.begin(), payload.end(), send_slot(0).begin());
  }
  commit_exchange();
  const auto view = recv_view(0);
  return {view.begin(), view.end()};
}

RunReport Machine::run(const std::function<void(Proc&)>& program) {
  const auto wall0 = std::chrono::steady_clock::now();
  // Span stacks are also the watchdog's stuck-phase diagnosis, so they
  // are maintained whenever either consumer is on.
  impl_->obs_armed = impl_->obs_enabled || impl_->watchdog_s > 0;
  // Rings describe the most recent run only (capacity is retained).
  if (impl_->obs_enabled) {
    for (auto& s : impl_->spans) s.clear();
    for (auto& m : impl_->metrics) m.clear();
  }
  // Per-run hardening state: watchdog diagnosis and fault bookkeeping
  // describe the most recent run only.  No workers are active here, so
  // plain writes are safe.
  impl_->timed_out = false;
  impl_->timeout_states.clear();
  if (impl_->faults) {
    std::fill(impl_->faults->fired.begin(), impl_->faults->fired.end(),
              std::uint8_t{0});
    impl_->faults->fires.store(0, std::memory_order_relaxed);
  }
  // Sweep the exchange state a previous run may have left mid-flight.
  // A poisoned/faulted/timed-out run can die between open_exchange and
  // the receivers' reads, leaving published cells (pointers into VP
  // arenas that the next run's open_exchange may reallocate, plus
  // integrity seals from a config that may no longer be in force) and
  // stale recv views.  Without this sweep a pooled machine could hand
  // run N+1 a dangling view or fail it against run N's checksum.
  for (auto& c : impl_->cells) c = {};
  for (auto& vp : impl_->vps) {
    vp.open = false;
    vp.self_slot = static_cast<std::size_t>(-1);
    vp.recv_views.clear();
    vp.recv_declared.clear();
    vp.recv_sum.clear();
    vp.st_where.store("running", std::memory_order_relaxed);
    vp.st_exchanges.store(0, std::memory_order_relaxed);
    vp.st_clock.store(0, std::memory_order_relaxed);
    vp.st_span_kind.store(255, std::memory_order_relaxed);
    vp.st_span_arg.store(-1, std::memory_order_relaxed);
    vp.st_leaf_kind.store(255, std::memory_order_relaxed);
  }
  std::vector<Proc> procs;
  procs.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    Proc p(*this, r, nprocs_);
    p.vp_ = &impl_->vps[static_cast<std::size_t>(r)];
    procs.push_back(p);
  }

  {
    std::lock_guard<std::mutex> lk(impl_->run_mu);
    impl_->program = &program;
    impl_->procs = procs.data();
    impl_->done = 0;
    std::fill(impl_->errors.begin(), impl_->errors.end(), nullptr);
    ++impl_->run_id;
  }
  impl_->run_cv.notify_all();

  // Barrier watchdog: a monitor thread that shares the completion
  // condition.  If the run overruns the real-time deadline it captures
  // every VP's published state (where it is, exchanges committed,
  // simulated clock) and poisons the barriers so blocked VPs unwind;
  // run() then reports the diagnosis as a BarrierTimeout.  A VP spinning
  // forever in user code (never touching a barrier) cannot be unwound —
  // the watchdog can only diagnose it; the test harness timeout is the
  // backstop for that case.
  std::thread watchdog;
  if (impl_->watchdog_s > 0) {
    watchdog = std::thread([this] {
      std::unique_lock<std::mutex> lk(impl_->run_mu);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(impl_->watchdog_s));
      if (impl_->done_cv.wait_until(lk, deadline,
                                    [&] { return impl_->done == nprocs_; })) {
        return;  // run completed within the deadline
      }
      // Deadline overrun decided while holding run_mu: the run is
      // genuinely incomplete.  Diagnose first, then poison.
      impl_->timeout_states.reserve(impl_->vps.size());
      for (std::size_t r = 0; r < impl_->vps.size(); ++r) {
        const auto& vp = impl_->vps[r];
        BarrierTimeout::VpSnapshot s;
        s.rank = static_cast<int>(r);
        s.where = vp.st_where.load(std::memory_order_relaxed);
        s.exchanges = vp.st_exchanges.load(std::memory_order_relaxed);
        s.clock_us = vp.st_clock.load(std::memory_order_relaxed);
        // The open-span stack names WHAT the VP is stuck in, not just
        // which protocol step: "in remap 3 / unpack".
        const auto sk = vp.st_span_kind.load(std::memory_order_relaxed);
        if (sk != 255) {
          s.span = obs::span_kind_name(static_cast<obs::SpanKind>(sk));
          s.span_arg = vp.st_span_arg.load(std::memory_order_relaxed);
        }
        const auto lk2 = vp.st_leaf_kind.load(std::memory_order_relaxed);
        if (lk2 != 255) {
          s.leaf = obs::span_kind_name(static_cast<obs::SpanKind>(lk2));
        }
        impl_->timeout_states.push_back(s);
      }
      impl_->timed_out = true;
      lk.unlock();
      impl_->poison();
    });
  }

  {
    std::unique_lock<std::mutex> lk(impl_->run_mu);
    impl_->done_cv.wait(lk, [&] { return impl_->done == nprocs_; });
  }
  if (watchdog.joinable()) watchdog.join();

  // Leave the machine reusable whether or not the run failed.
  impl_->reset_barriers();
  for (auto& vp : impl_->vps) vp.open = false;
  // A watchdog timeout outranks individual VP errors: the diagnosis
  // covers the whole machine, and unwound VPs carry no error anyway.
  if (impl_->timed_out) {
    throw BarrierTimeout(impl_->watchdog_s, std::move(impl_->timeout_states));
  }
  for (auto& e : impl_->errors) {
    if (e) std::rethrow_exception(e);
  }

  RunReport rep;
  rep.proc_us.reserve(procs.size());
  for (const auto& p : procs) {
    rep.proc_us.push_back(p.clock_us_);
    rep.proc_phases.push_back(p.phases_);
    rep.proc_comm.push_back(p.comm_);
    rep.makespan_us = std::max(rep.makespan_us, p.clock_us_);
  }
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  if (impl_->obs_enabled) {
    rep.obs = obs::summarize(impl_->metrics.data(), nprocs_);
  }
  return rep;
}

}  // namespace bsort::simd
