// A simulated distributed-memory SPMD machine — the substrate standing in
// for the thesis' 64-node Meiko CS-2 running Split-C.
//
// Each virtual processor (VP) runs the SPMD program on its own thread
// with a private simulated clock (microseconds):
//   * local computation is charged with measured execution time of the
//     timed section (see "Timing calibration" below);
//   * communication is priced by the machine's execution backend
//     (src/backend/): the default SIMULATED backend charges analytically
//     with the LogP (short messages) or LogGP (long messages) formulas
//     of Section 3.4 using the machine's parameter set; the NATIVE
//     backend executes each exchange as real memcpys between VP heaps
//     and charges the MEASURED copy time instead;
//   * barriers synchronize clocks to the maximum, BSP style.
// Phase-tagged accounting (compute / pack / transfer / unpack) feeds the
// breakdown experiments (Figures 5.4 and 5.6, Table 5.4).
//
// Timing calibration
// ------------------
// Every Proc::timed section is measured with the calling thread's own
// CPU clock (CLOCK_THREAD_CPUTIME_ID, read by util/clock.hpp) and runs
// with no machine-wide serialization: local phases of different VPs
// execute concurrently on the host, and each VP is still charged exactly
// its own CPU cost (thread-CPU time is immune to oversubscription of the
// physical cores).  The constructor throws ConfigError when that clock
// ticks coarser than 1us; there is no second timing path.
//
// Execution and buffer pooling
// ----------------------------
// A Machine owns one persistent worker thread per VP, created at
// construction and reused by every run() — repeated runs pay no
// thread-spawn cost.  A program that never barriers or exchanges (one
// superstep with no h-relation, so it needs no synchronization) can
// instead run_inline(): every rank's program runs in rank order on the
// calling thread, with the same Procs, buffers, rings and report, and
// no worker is woken.  Whether that pays is the caller's call; the
// Machine measures what a hand-off to the workers costs (handoff_us).
// Each VP also owns a persistent exchange arena: the pooled exchange
// API (open_exchange / send_slot / commit_exchange / recv_view) stages
// outgoing payloads in that arena and hands receivers spans pointing
// directly into the senders' arenas, so a steady-state
// remap performs zero heap allocations; it is the Machine's only
// exchange protocol.  Each VP likewise owns one n-key scratch buffer
// (Proc::scratch) for its local sorts and remap double-buffering.
//
// Recording: spans, exchanges and metrics (src/obs/, src/trace/)
// --------------------------------------------------------------
// enable_profiling() arms one preallocated record ring per VP plus its
// metrics.  The Machine itself emits LEAF spans that tile the simulated
// clock exactly (every timed section, the transfer charge of each
// exchange, the clock jump of each barrier, injected straggler delays),
// and the sorts open STRUCTURAL spans around them (local sort, merge
// stage, remap — see obs/profile.hpp), each recorded on both the
// simulated clock and the host thread-CPU clock.  Every exchange leaf
// record also carries the exchange's V/M counters, its peers, injected
// fault bits and — when the sort called Proc::trace_remap() first — the
// remap annotation (ordinal, group size 2^r, layout transition); its
// duration is the transfer time the backend charged (analytic
// LogP/LogGP on the simulated backend, measured copy time on the
// native one).  Each record is folded into the VP's metrics as it is
// written (span time per kind, bytes/exchange, slot sizes, barrier
// skew); run() aggregates those into RunReport::obs (p50/p95/max
// across VPs).  Readers: obs/perfetto.hpp exports the rings as a Chrome
// trace-event file (one track per VP); the trace/ subsystem exports the
// exchange records as JSONL, validates them against the Section 3.4
// closed forms and fits (L, o, g, G) back out of them.  Disabled
// recording costs one predicted branch per site; enabled recording
// allocates nothing in steady state (audited in bench_machine_overhead).
// The open-span stack also feeds the barrier watchdog: a BarrierTimeout
// diagnosis names each VP's innermost open structural span and leaf
// phase ("stuck in remap 3 / unpack").
//
// Hardening (src/fault/)
// ----------------------
// Malformed protocol use fails loudly with structured bsort::Error
// subtypes instead of UB: open_exchange validates its peer/size lists
// (ExchangeError), barrier/exchange calls inside Proc::timed throw
// ConfigError instead of charging the wait as local work, and three
// opt-in defenses catch runtime faults: enable_integrity() seals every
// transmitted slot with a checksum at commit_exchange and verifies it at
// recv_view (IntegrityError on mismatch, one predicted branch when off);
// set_watchdog(seconds) arms a real-time monitor that poisons a stalled
// barrier and fails the run with a BarrierTimeout carrying every VP's
// last published state; arm_faults(plan) injects deterministic seeded
// faults (stragglers, crashes, payload corruption, size lies) so tests
// can prove the defenses work — see fault/plan.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "loggp/params.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "trace/events.hpp"

namespace bsort::fault {
struct FaultPlan;
}  // namespace bsort::fault

namespace bsort::backend {
class Backend;
}  // namespace bsort::backend

namespace bsort::simd {

enum class MessageMode {
  kShort,  ///< one key per message; LogP charging (g per element)
  kLong    ///< one bulk message per peer; LogGP charging (G per byte)
};

enum class Phase { kCompute = 0, kPack = 1, kTransfer = 2, kUnpack = 3 };
inline constexpr int kPhaseCount = 4;

struct PhaseBreakdown {
  double us[kPhaseCount] = {0, 0, 0, 0};
  [[nodiscard]] double total() const { return us[0] + us[1] + us[2] + us[3]; }
  [[nodiscard]] double compute() const { return us[0]; }
  [[nodiscard]] double pack() const { return us[1]; }
  [[nodiscard]] double transfer() const { return us[2]; }
  [[nodiscard]] double unpack() const { return us[3]; }
};

/// Communication counters for one VP.
struct CommStats {
  std::uint64_t exchanges = 0;      ///< communication steps (remaps)
  std::uint64_t elements_sent = 0;  ///< keys sent to other processors
  std::uint64_t messages_sent = 0;  ///< messages sent (== elements for short mode)
};

struct RunReport {
  double makespan_us = 0;            ///< max over VPs of the final clock
  std::vector<double> proc_us;       ///< final clock per VP
  std::vector<PhaseBreakdown> proc_phases;
  std::vector<CommStats> proc_comm;
  double wall_seconds = 0;           ///< host wall time (diagnostic only)
  /// v2 phase/metric table (p50/p95/max across VPs); populated only
  /// when the machine ran with profiling enabled (obs.enabled).
  obs::ObsReport obs;

  /// Breakdown of the critical-path VP (the one defining the makespan).
  /// On an empty (default-constructed) report this returns a reference to
  /// an all-zero breakdown instead of dereferencing past-the-end.
  [[nodiscard]] const PhaseBreakdown& critical_phases() const;
  /// Totals over all VPs; all-zero on an empty report.
  [[nodiscard]] CommStats total_comm() const;
};

class Machine;
struct VpState;

/// Per-VP handle passed to the SPMD program.
class Proc {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] MessageMode mode() const;
  [[nodiscard]] const loggp::Params& params() const;

  /// BSP barrier; clocks of all VPs are advanced to the maximum.
  void barrier();

  /// Run f() and charge its execution time to `phase`, scaled by the
  /// machine's cpu_scale (used to model a slower processor than the
  /// host's, e.g. the 40 MHz SuperSparc of the Meiko CS-2).
  ///
  /// Measured with the calling thread's CPU clock, concurrently across
  /// VPs — see the "Timing calibration" note at the top of this header.
  /// f() must not call barrier()/open_exchange()/commit_exchange() (local
  /// phases never do): the section would charge the wait as local work,
  /// so doing so throws ConfigError, as does nesting timed() itself.
  template <class F>
  void timed(Phase phase, F&& f) {
    // The section is also a leaf profiling span (obs/spans.hpp): its
    // simulated interval closes AFTER the charge so the span's sim
    // duration equals exactly what was charged.
    const int sp = span_begin_phase(phase);
    const double t0 = timed_begin();
    try {
      f();
    } catch (...) {
      in_timed_ = false;
      span_end(sp);
      throw;
    }
    charge(phase, timed_end(t0) * cpu_scale());
    span_end(sp);
  }

  [[nodiscard]] double cpu_scale() const;

  /// Add `us` microseconds to this VP's clock under `phase`.
  void charge(Phase phase, double us);

  // ---- Span profiling (src/obs/) -------------------------------------
  //
  // Structural spans for the timeline profiler; sorts normally use the
  // RAII obs::ScopedSpan (obs/profile.hpp) instead of calling these
  // directly.  Every call is a no-op costing one predicted branch
  // unless profiling (or the barrier watchdog, which reuses the
  // open-span stack for its diagnosis) is armed.  Spans must strictly
  // nest; `arg` carries the remap ordinal / stage number (-1 = none).

  /// Open a span; returns a token for span_end (-1 when disarmed).
  int span_begin(obs::SpanKind kind, std::int32_t arg = -1);
  /// Close the span `token` (innermost open one); -1 tokens are ignored.
  void span_end(int token);
  /// Record a zero-duration instant event at the current clock.
  void span_instant(obs::SpanKind kind, std::int32_t arg, std::uint8_t fault_mask);

  /// Annotate the NEXT committed exchange as a data remap: `group_log2`
  /// is r (the exchange group has 2^r members, Lemma 4), `from`/`to`
  /// classify the layout transition.  No-op unless recording is enabled
  /// on the machine (one predicted branch), so sorts call it
  /// unconditionally before commit_exchange().  Each annotated exchange
  /// is numbered by a per-VP remap ordinal — the trace's measured R.
  void trace_remap(int group_log2, trace::LayoutTag from, trace::LayoutTag to);

  // ---- Pooled exchange (zero steady-state heap allocation) -----------
  //
  // Protocol: open_exchange() declares the peers and per-peer payload
  // sizes and reserves slots in this VP's persistent arena (drain
  // barrier inside — must be called collectively, like barrier());
  // the caller then fills each send_slot(i) (typically inside a
  // timed(kPack) section), and commit_exchange() publishes the slots,
  // charges transfer time per the machine's message mode, and makes
  // recv_view(i) valid.
  //
  // A send peer equal to rank() is staged in the arena but neither
  // transmitted nor charged; the matching recv_view() returns that
  // slot's contents (callers that skip packing the kept portion pass a
  // zero size for the self slot).  Received views point into the sending
  // VP's arena and remain valid until the next collective exchange; the
  // drain barrier in open_exchange() guarantees no VP overwrites its
  // arena while a peer may still be reading the previous views.

  /// Declare the communication pattern of one exchange.  `send_sizes[i]`
  /// is the element count destined to `send_peers[i]`.  The lists are
  /// validated (equal lengths, peers in [0, P), no duplicate send or
  /// recv peers, at most one self entry falls out of that); a malformed
  /// pattern throws ExchangeError with rank/exchange/peer context
  /// instead of silently corrupting the mailbox.
  void open_exchange(std::span<const std::uint64_t> send_peers,
                     std::span<const std::size_t> send_sizes,
                     std::span<const std::uint64_t> recv_peers);

  /// Writable slot for the i-th send peer (valid after open_exchange).
  [[nodiscard]] std::span<std::uint32_t> send_slot(std::size_t i);

  /// Publish the slots behind one clock-synchronizing barrier, charge
  /// the transfer per the machine's message mode and update CommStats;
  /// afterwards recv_view(i) is valid.
  void commit_exchange();

  /// Payload received from recv_peers[i] (valid after commit_exchange,
  /// until the next collective exchange or barrier-separated write).
  /// When integrity checking is enabled the view is verified against
  /// the checksum and size the sender sealed at commit_exchange;
  /// a mismatch throws IntegrityError naming sender, receiver, slot
  /// and exchange/remap ordinal.
  [[nodiscard]] std::span<const std::uint32_t> recv_view(std::size_t i) const;
  [[nodiscard]] std::size_t recv_view_count() const;
  /// recv_view(i) for a receiver that knows the message's size: a view
  /// of any other length (resized in flight) throws ExchangeError naming
  /// this rank, the exchange ordinal, the sender and the slot, before
  /// the caller can read or write past the message.
  [[nodiscard]] std::span<const std::uint32_t> recv_exact(std::size_t i,
                                                          std::size_t expected) const;

  /// This VP's n-key working buffer (local-sort scratch, remap double
  /// buffer), kept by the Machine across runs like the exchange arena.
  /// Callers resize it as they need; contents do not survive a use.
  [[nodiscard]] std::vector<std::uint32_t>& scratch();

  [[nodiscard]] double clock_us() const { return clock_us_; }
  [[nodiscard]] const CommStats& comm() const { return comm_; }
  [[nodiscard]] const PhaseBreakdown& phases() const { return phases_; }

  /// Monotonic clock in microseconds.
  static double now_us();

 private:
  /// Enter a timed section; returns its start on the thread-CPU clock.
  double timed_begin();
  /// Leave it; returns the thread-CPU time elapsed since `t0`.
  double timed_end(double t0);

  /// Leaf span for a timed section: kind derived from the phase, the
  /// upcoming exchange ordinal as the arg.
  int span_begin_phase(Phase phase);
  /// Pop span `token` (and anything left open inside it) off the stack.
  /// Returns true, with the span fields of `r` filled, when recording
  /// is on; the caller then completes `r` and writes it with record().
  bool pop_span(int token, obs::SpanRecord& r);
  /// Write one record into this VP's ring and fold it into its metrics
  /// (the only writer of either).
  void record(const obs::SpanRecord& r);

  /// One open (not yet closed) span on this VP's span stack.
  struct OpenSpan {
    obs::SpanKind kind = obs::SpanKind::kCompute;
    std::int32_t arg = -1;
    double sim0 = 0;
    double host0 = 0;
  };
  static constexpr int kMaxSpanDepth = 32;
  /// Publish the innermost open structural span + leaf phase for the
  /// barrier watchdog diagnosis (no-op unless a watchdog is armed).
  void publish_span_state();

  /// Pending trace_remap() annotation, consumed by the next recorded
  /// exchange (only set while recording is enabled).
  struct TraceAnnotation {
    std::int16_t group_log2 = -1;
    trace::LayoutTag from = trace::LayoutTag::kUnknown;
    trace::LayoutTag to = trace::LayoutTag::kUnknown;
    bool armed = false;
  };

  /// Throws ConfigError when a collective step (barrier, exchange) is
  /// called from inside a Proc::timed section (the documented contract;
  /// violating it used to deadlock) or inside Machine::run_inline (no
  /// peer runs concurrently to meet it).
  void check_collective(const char* what) const;
  /// Publish (where, exchanges, clock) for the barrier watchdog; no-op
  /// (one predicted branch) when no watchdog is armed.
  void publish_state(const char* where);
  /// Apply armed FaultPlan rules due at this commit; returns the
  /// exchange record's trace::kFault* mask (may throw an injected crash).
  std::uint8_t apply_commit_faults();

  friend class Machine;
  Proc(Machine& m, int rank, int nprocs) : machine_(m), rank_(rank), nprocs_(nprocs) {}

  Machine& machine_;
  int rank_;
  int nprocs_;
  VpState* vp_ = nullptr;  ///< persistent per-rank buffers (owned by Machine)
  double clock_us_ = 0;
  bool in_timed_ = false;  ///< a Proc::timed section is executing
  PhaseBreakdown phases_;
  CommStats comm_;
  TraceAnnotation trace_ann_;
  std::int32_t trace_remaps_ = 0;  ///< annotated exchanges so far (measured R)
  OpenSpan span_stack_[kMaxSpanDepth];  ///< open spans, innermost last
  int span_depth_ = 0;                  ///< only maintained while armed
};

/// The machine: P virtual processors, a LogGP parameter set and a message
/// mode.  run() executes an SPMD program on all VPs and reports simulated
/// times.  Worker threads and exchange arenas are created once per
/// Machine and recycled across run() calls.
class Machine {
 public:
  /// `cpu_scale` multiplies every measured compute time before charging
  /// it to the simulated clock: 1.0 models "this host's cores", larger
  /// values model proportionally slower processors.  Transfer charges
  /// are never scaled (the simulated backend prices them analytically;
  /// the native backend reports raw measured copy time).
  ///
  /// A non-positive (or NaN) cpu_scale and an nprocs < 1 throw
  /// ConfigError — in Release they used to sail through an assert and
  /// corrupt every subsequent charge.  So does a thread CPU clock that
  /// ticks coarser than 1us (see "Timing calibration").
  ///
  /// The exchange path runs on `exec`; passing null (and the
  /// four-argument form) resolves the backend from the BSORT_BACKEND
  /// environment variable ("simulated" | "native") and defaults to the
  /// simulated LogGP backend.  Tests and benches that assert analytic
  /// charges pin backend::make_simulated() explicitly so a
  /// BSORT_BACKEND=native run cannot flip their model.
  Machine(int nprocs, loggp::Params params, MessageMode mode, double cpu_scale = 1.0);
  Machine(int nprocs, loggp::Params params, MessageMode mode, double cpu_scale,
          std::unique_ptr<bsort::backend::Backend> exec);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] MessageMode mode() const { return mode_; }
  [[nodiscard]] const loggp::Params& params() const { return params_; }

  // ---- Between-run reconfiguration (machine pooling) ----------------
  //
  // A pooled Machine serves heterogeneous configs: everything but the
  // processor count and the execution backend can be changed between
  // runs (api::parallel_sort_on applies the caller's Config through
  // these setters, so a pool member is indistinguishable from a fresh
  // machine — see the pool-reuse contract in api/parallel_sort.hpp).
  // Like enable_profiling(), call only between runs.

  /// Switch LogP (short) / LogGP (long) charging for subsequent runs.
  void set_mode(MessageMode mode) { mode_ = mode; }
  /// Replace the LogGP parameter set used to price subsequent runs.
  void set_params(const loggp::Params& params) { params_ = params; }
  /// Replace the compute-time multiplier; throws ConfigError on a
  /// non-positive or NaN scale (same validation as the constructor).
  void set_cpu_scale(double cpu_scale);
  /// The execution backend pricing (or measuring) every exchange.
  [[nodiscard]] const bsort::backend::Backend& backend() const;

  // ---- Recording (src/obs/, src/trace/) -----------------------------
  //
  // When enabled, the Machine writes leaf spans (timed sections,
  // exchanges with their payload, barrier waits, straggler delays) and
  // the sorts' structural spans into per-VP preallocated rings
  // (`spans_per_vp` capacity, oldest records overwritten on overflow)
  // and folds each record into the VP's metrics.  run() then fills
  // RunReport::obs.  Recording is allocation-free and costs one
  // predicted branch per site when disabled.  Rings are cleared at the
  // start of each run(), so they always describe the most recent run.
  // Call enable/disable only between runs.

  void enable_profiling(std::size_t spans_per_vp = 4096);
  void disable_profiling();
  [[nodiscard]] bool profiling() const;
  /// The (post-run) record ring of one VP, in span-END order.  Throws
  /// ConfigError when recording is disabled or `rank` is outside [0, P).
  [[nodiscard]] const obs::VpSpans& vp_spans(int rank) const;
  /// The (post-run) metrics of one VP; same contract as vp_spans().
  [[nodiscard]] const obs::VpMetrics& vp_metrics(int rank) const;

  // ---- Hardening defenses (src/fault/) ------------------------------
  //
  // All three default to OFF and cost one predicted branch per exchange
  // (integrity), per protocol step (watchdog state publishing), or
  // nothing at all (faults) when disabled — the same audit discipline
  // as recording (bench_machine_overhead checks it).  Flip them only
  // between runs.

  /// Per-slot exchange integrity: commit_exchange seals every
  /// transmitted slot with a checksum + declared size; recv_view
  /// verifies and throws IntegrityError (sender, receiver, slot,
  /// exchange/remap ordinal) on mismatch.
  void enable_integrity();
  void disable_integrity();
  [[nodiscard]] bool integrity() const;

  /// Barrier watchdog: a monitor thread fails the run with
  /// BarrierTimeout when it does not finish within `seconds` of real
  /// time, poisoning the barrier so blocked VPs unwind and capturing
  /// every VP's last published state (rank, protocol step, exchange
  /// ordinal, simulated clock) as the diagnosis.  0 disables.  The
  /// watchdog unsticks VPs parked in (or eventually reaching) a
  /// barrier; a VP spinning forever in user code can only be diagnosed,
  /// not unwound — pair with a test-runner timeout for that.
  /// run_inline() starts no monitor: it checks the elapsed wall time
  /// after the last rank and throws the same BarrierTimeout.
  void set_watchdog(double seconds);
  [[nodiscard]] double watchdog_seconds() const;

  /// Install (a copy of) a fault plan; every subsequent run() injects
  /// its rules deterministically.  See fault/plan.hpp.
  void arm_faults(const fault::FaultPlan& plan);
  void disarm_faults();
  [[nodiscard]] bool faults_armed() const;
  /// Rules that actually fired during the most recent run().
  [[nodiscard]] std::uint64_t faults_fired() const;

  /// Execute `program` on every VP (SPMD).  Blocks until all finish.
  /// If a VP throws, the barrier is poisoned so every other VP unwinds
  /// (no deadlock) and the first exception is rethrown here; the Machine
  /// remains usable for subsequent runs.  Every run starts from a clean
  /// exchange state: the mailbox cells and each VP's received views are
  /// swept at dispatch, so nothing a failed (poisoned, faulted, or
  /// timed-out) run left mid-exchange — published cells, integrity
  /// seals, views into since-reallocated arenas — can leak into the
  /// next run's exchanges.
  RunReport run(const std::function<void(Proc&)>& program);

  /// Execute a program that never barriers or exchanges: each rank's
  /// program runs in rank order on the calling thread, on the same
  /// Procs, scratch buffers and (when recording) each rank's own ring,
  /// and the report has run()'s shape.  Proc::barrier and
  /// open_exchange/commit_exchange throw ConfigError here.  Errors
  /// behave as in run(): every rank runs, the lowest rank's exception
  /// is rethrown, and the Machine stays usable.
  RunReport run_inline(const std::function<void(Proc&)>& program);

  /// Host microseconds one run() spends handing the program to the VP
  /// threads and joining them: wall time from release to join minus the
  /// critical VP's charge (in host time), smoothed over this machine's
  /// barrier-free runs.  0 until one has completed.
  [[nodiscard]] double handoff_us() const;

  /// Record `host_us` of local-sort work over `keys` keys run on this
  /// machine; local_sort_us_per_key() smooths the per-key rate (0 until
  /// recorded).  api::parallel_sort_batch_on records every all-local
  /// batch and weighs the rate against handoff_us().
  void note_local_sort(std::uint64_t keys, double host_us);
  [[nodiscard]] double local_sort_us_per_key() const;

 private:
  friend class Proc;
  struct Impl;
  /// Per-run prologue shared by run() and run_inline(): clear rings and
  /// fault bookkeeping, sweep leftover exchange state, one Proc per rank.
  std::vector<Proc> begin_run();
  /// Shared epilogue: leave the machine reusable, then throw the
  /// watchdog's BarrierTimeout or the lowest rank's error, or assemble
  /// the report (`wall_seconds` covers the whole call).
  RunReport end_run(const std::vector<Proc>& procs, double wall_seconds);
  int nprocs_;
  loggp::Params params_;
  MessageMode mode_;
  double cpu_scale_;
  Impl* impl_;
};

}  // namespace bsort::simd
