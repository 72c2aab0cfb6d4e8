// Simulator overhead: host wall-seconds vs simulated makespan for smart
// bitonic sort across machine sizes, plus a steady-state allocation
// audit of the pooled exchange path (a warmed-up remap must perform
// ZERO heap allocations — arenas, workspaces and worker threads are all
// recycled).  The same audit covers the recording (span ring +
// metrics) and hardening layers when armed, and the heap allocations of one warm
// pooled parallel_sort_on call are counted.  Emits JSON on stdout for machine
// consumption; with an output path argument it also writes a
// bsort-bench-v1 report (BENCH_machine.json) for the CI gate.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "bench_report.hpp"
#include "bitonic/remap_exec.hpp"
#include "layout/bit_layout.hpp"
#include "loggp/params.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "simd/machine.hpp"
#include "util/random.hpp"

// ---- global allocation counter --------------------------------------
// Replaces the global allocation functions so every operator new in the
// process (any thread) bumps the counter.  Deliberately minimal: count,
// then defer to malloc/free.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace bsort;

  bench::BenchReport report("machine");
  std::cout << "{\n  \"bench\": \"machine_overhead\",\n";

  // ---- wall vs simulated time across machine sizes ------------------
  // wall_seconds is what the HOST pays to simulate; makespan_us is what
  // the simulated Meiko machine reports.  The ratio is the simulator's
  // overhead factor and the number the pooled-buffer work drives down.
  std::cout << "  \"sweep\": [\n";
  const std::size_t keys_per_proc = 1u << 12;
  bool first = true;
  for (const int P : {4, 8, 16, 32, 64}) {
    api::Config cfg;
    cfg.nprocs = P;
    cfg.algorithm = api::Algorithm::kSmartBitonic;
    const std::size_t total = keys_per_proc * static_cast<std::size_t>(P);
    auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31, 42);

    const std::uint64_t a0 = g_allocs.load();
    // Best of three: timed sections run under a host scheduler, so one
    // preempted rep occasionally inflates the wall clock.
    double wall = 0, makespan = 0;
    bool sorted = true;
    for (int rep = 0; rep < 3; ++rep) {
      auto work = keys;
      const auto outcome = api::parallel_sort(work, cfg);
      sorted = sorted && outcome.sorted;
      if (rep == 0 || outcome.report.wall_seconds < wall) {
        wall = outcome.report.wall_seconds;
        makespan = outcome.report.makespan_us;
      }
    }
    const std::uint64_t allocs = g_allocs.load() - a0;

    if (!sorted) {
      std::cerr << "ERROR: unsorted output at P=" << P << "\n";
      return 1;
    }
    std::cout << (first ? "" : ",\n") << "    {\"nprocs\": " << P
              << ", \"total_keys\": " << total << ", \"wall_seconds\": " << wall
              << ", \"makespan_us\": " << makespan
              << ", \"wall_us_per_simulated_us\": " << (wall * 1e6 / makespan)
              << ", \"allocs_three_reps\": " << allocs << "}";
    first = false;
    // Simulated makespan is deterministic for a fixed seed and machine
    // model, but classified as a time so the CI gate compares it with
    // tolerance rather than bit-exactly.
    report.add_time("sweep/P" + std::to_string(P) + "/makespan_us", makespan);
  }
  std::cout << "\n  ],\n";

  // ---- run-dispatch overhead ----------------------------------------
  // Cost of Machine::run itself on a warm Machine (persistent worker
  // pool; previously every run spawned and joined P fresh threads).
  {
    const int P = 16;
    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    m.run([](simd::Proc&) {});  // warm the pool
    const int reps = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) m.run([](simd::Proc&) {});
    const double per_run_us =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() *
        1e6 / reps;
    std::cout << "  \"dispatch\": {\"nprocs\": " << P
              << ", \"empty_run_us\": " << per_run_us << "},\n";
    report.add_time("dispatch/empty_run_us", per_run_us);
  }

  // ---- steady-state allocation audit --------------------------------
  // One Machine, cached remap workspaces, repeated blocked<->cyclic
  // remaps.  After warmup every buffer has reached its high-water mark,
  // so the measured window must allocate exactly nothing.
  {
    const int P = 16;
    const int log_p = 4;
    const int log_n = 10;  // 1K keys/proc
    const std::size_t n = std::size_t{1} << log_n;
    const int kWarmup = 3;
    const int kMeasured = 20;

    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    std::atomic<std::uint64_t> window_allocs{0};
    const auto rep = m.run([&](simd::Proc& p) {
      const auto blocked = layout::BitLayout::blocked(log_n, log_p);
      const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
      std::vector<std::uint32_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint32_t>((i * 2654435761u) ^
                                          static_cast<std::uint32_t>(p.rank()));
      }
      bitonic::RemapWorkspace ws_bc, ws_cb;
      for (int r = 0; r < kWarmup; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      // Bracket the measured window with barriers so the snapshot on
      // rank 0 covers exactly the remaps of ALL ranks.
      p.barrier();
      std::uint64_t t0 = 0;
      if (p.rank() == 0) t0 = g_allocs.load();
      for (int r = 0; r < kMeasured; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      if (p.rank() == 0) window_allocs.store(g_allocs.load() - t0);
    });

    const int remaps = 2 * kMeasured * P;
    std::cout << "  \"steady_state\": {\"nprocs\": " << P
              << ", \"keys_per_proc\": " << n << ", \"remaps_measured\": " << remaps
              << ", \"heap_allocations\": " << window_allocs.load()
              << ", \"allocs_per_remap\": "
              << (static_cast<double>(window_allocs.load()) / remaps)
              << ", \"wall_seconds\": " << rep.wall_seconds << "},\n";
    std::cout << "  \"concurrent_timing\": " << (m.concurrent_timing() ? "true" : "false")
              << ",\n";
    report.add_count("steady_state/heap_allocations",
                     static_cast<double>(window_allocs.load()));
    if (window_allocs.load() != 0) {
      std::cerr << "WARNING: steady-state remap performed "
                << window_allocs.load() << " heap allocations (expected 0)\n";
      return 2;
    }
  }

  // ---- native-backend steady-state allocation audit -----------------
  // The same warmed-up remap loop on the NATIVE backend: every exchange
  // now memcpys its payloads into the receiver's recv arena.  The arena
  // reaches its high-water mark during warmup (the remap sizes are
  // fixed), so the measured window must STILL allocate exactly nothing
  // — real data movement does not break the pooled-exchange discipline.
  {
    const int P = 16;
    const int log_p = 4;
    const int log_n = 10;
    const std::size_t n = std::size_t{1} << log_n;
    const int kWarmup = 3;
    const int kMeasured = 20;

    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong, 1.0,
                    backend::make(backend::Kind::kNative));
    std::atomic<std::uint64_t> window_allocs{0};
    const auto rep = m.run([&](simd::Proc& p) {
      const auto blocked = layout::BitLayout::blocked(log_n, log_p);
      const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
      std::vector<std::uint32_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint32_t>((i * 2654435761u) ^
                                          static_cast<std::uint32_t>(p.rank()));
      }
      bitonic::RemapWorkspace ws_bc, ws_cb;
      for (int r = 0; r < kWarmup; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      std::uint64_t t0 = 0;
      if (p.rank() == 0) t0 = g_allocs.load();
      for (int r = 0; r < kMeasured; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      if (p.rank() == 0) window_allocs.store(g_allocs.load() - t0);
    });

    const int remaps = 2 * kMeasured * P;
    std::cout << "  \"steady_state_native\": {\"nprocs\": " << P
              << ", \"keys_per_proc\": " << n << ", \"remaps_measured\": " << remaps
              << ", \"heap_allocations\": " << window_allocs.load()
              << ", \"wall_seconds\": " << rep.wall_seconds << "},\n";
    report.add_count("steady_state_native/heap_allocations",
                     static_cast<double>(window_allocs.load()));
    if (window_allocs.load() != 0) {
      std::cerr << "WARNING: native steady-state remap performed "
                << window_allocs.load() << " heap allocations (expected 0)\n";
      return 2;
    }
  }

  // ---- recording overhead + recorded allocation audit -----------------
  // Same warmed-up remap loop with recording armed: every remap opens a
  // structural kRemap span, every timed section a leaf span, every
  // barrier a kBarrierWait span, and every exchange writes one exchange
  // record (its V/M payload and remap annotation) that also feeds the
  // byte/skew histograms.  The per-VP rings and histograms are
  // preallocated at enable_profiling(), so the recorded measured window
  // must allocate exactly nothing, and exchanges_metered counts every
  // exchange exactly; the wall ratio is the recording cost (disabled
  // recording is one predicted branch per site).
  {
    const int P = 16;
    const int log_p = 4;
    const int log_n = 10;
    const std::size_t n = std::size_t{1} << log_n;
    const int kWarmup = 3;
    const int kMeasured = 20;

    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    std::atomic<std::uint64_t> window_allocs{0};
    const auto program = [&](simd::Proc& p) {
      const auto blocked = layout::BitLayout::blocked(log_n, log_p);
      const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
      std::vector<std::uint32_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint32_t>((i * 2654435761u) ^
                                          static_cast<std::uint32_t>(p.rank()));
      }
      bitonic::RemapWorkspace ws_bc, ws_cb;
      for (int r = 0; r < kWarmup; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      std::uint64_t t0 = 0;
      if (p.rank() == 0) t0 = g_allocs.load();
      for (int r = 0; r < kMeasured; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      if (p.rank() == 0) window_allocs.store(g_allocs.load() - t0);
    };

    const auto rep_off = m.run(program);  // profiling disabled
    const std::uint64_t allocs_off = window_allocs.load();
    m.enable_profiling(4096);
    m.run(program);  // warm; rings are cleared again at the next run()
    const auto rep_on = m.run(program);
    const std::uint64_t allocs_on = window_allocs.load();
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
    std::uint64_t exchanges = 0;
    for (int r = 0; r < P; ++r) {
      spans += m.vp_spans(r).size();
      dropped += m.vp_spans(r).dropped();
      exchanges += m.vp_metrics(r).exchanges;
    }

    std::cout << "  \"profiling\": {\"nprocs\": " << P << ", \"keys_per_proc\": " << n
              << ", \"spans_recorded\": " << spans << ", \"spans_dropped\": " << dropped
              << ", \"exchanges_metered\": " << exchanges
              << ", \"heap_allocations_unprofiled\": " << allocs_off
              << ", \"heap_allocations_profiled\": " << allocs_on
              << ", \"wall_seconds_unprofiled\": " << rep_off.wall_seconds
              << ", \"wall_seconds_profiled\": " << rep_on.wall_seconds
              << ", \"wall_ratio\": " << (rep_on.wall_seconds / rep_off.wall_seconds)
              << "},\n";
    report.add_count("profiling/heap_allocations_profiled",
                     static_cast<double>(allocs_on));
    report.add_count("profiling/spans_recorded", static_cast<double>(spans));
    report.add_count("profiling/spans_dropped", static_cast<double>(dropped));
    report.add_count("profiling/exchanges_metered", static_cast<double>(exchanges));
    if (allocs_on != 0) {
      std::cerr << "WARNING: profiled steady-state remap performed " << allocs_on
                << " heap allocations (expected 0)\n";
      return 5;
    }
  }

  // ---- hardening-defenses overhead + allocation audit -----------------
  // The same warmed-up remap loop with integrity checking enabled and
  // the barrier watchdog armed: per-slot checksums are computed at every
  // commit and verified at every recv_view, and every protocol step
  // publishes watchdog state — yet the measured window must still
  // allocate exactly nothing (checksums are pure arithmetic; the
  // watchdog snapshot buffers belong to the Machine).  With both
  // defenses OFF the cost is one predicted branch per protocol step,
  // so wall_ratio_off must sit inside run-to-run noise of 1.0.
  {
    const int P = 16;
    const int log_p = 4;
    const int log_n = 10;
    const std::size_t n = std::size_t{1} << log_n;
    const int kWarmup = 3;
    const int kMeasured = 20;

    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    std::atomic<std::uint64_t> window_allocs{0};
    const auto program = [&](simd::Proc& p) {
      const auto blocked = layout::BitLayout::blocked(log_n, log_p);
      const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
      std::vector<std::uint32_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint32_t>((i * 2654435761u) ^
                                          static_cast<std::uint32_t>(p.rank()));
      }
      bitonic::RemapWorkspace ws_bc, ws_cb;
      for (int r = 0; r < kWarmup; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      std::uint64_t t0 = 0;
      if (p.rank() == 0) t0 = g_allocs.load();
      for (int r = 0; r < kMeasured; ++r) {
        bitonic::remap_data_into(p, blocked, cyclic, a, b, ws_bc);
        bitonic::remap_data_into(p, cyclic, blocked, b, a, ws_cb);
      }
      p.barrier();
      if (p.rank() == 0) window_allocs.store(g_allocs.load() - t0);
    };

    const auto rep_off = m.run(program);  // defenses off (baseline)
    const std::uint64_t allocs_off = window_allocs.load();
    const auto rep_off2 = m.run(program);  // second baseline rep: noise floor
    m.enable_integrity();
    m.set_watchdog(300.0);
    m.run(program);  // warm the integrity-path buffers before measuring
    const auto rep_on = m.run(program);
    const std::uint64_t allocs_on = window_allocs.load();

    std::cout << "  \"defenses\": {\"nprocs\": " << P << ", \"keys_per_proc\": " << n
              << ", \"heap_allocations_off\": " << allocs_off
              << ", \"heap_allocations_armed\": " << allocs_on
              << ", \"wall_seconds_off\": " << rep_off.wall_seconds
              << ", \"wall_seconds_off_rep2\": " << rep_off2.wall_seconds
              << ", \"wall_seconds_armed\": " << rep_on.wall_seconds
              << ", \"wall_ratio_off\": " << (rep_off2.wall_seconds / rep_off.wall_seconds)
              << ", \"wall_ratio_armed\": " << (rep_on.wall_seconds / rep_off.wall_seconds)
              << "},\n";
    report.add_count("defenses/heap_allocations_armed",
                     static_cast<double>(allocs_on));
    if (allocs_on != 0) {
      std::cerr << "WARNING: defenses-armed steady-state remap performed " << allocs_on
                << " heap allocations (expected 0)\n";
      return 4;
    }
  }

  // ---- warm pooled sort call: heap allocations ------------------------
  // One smart parallel_sort_on call on a warm pooled Machine (P=4, 2^12
  // keys per VP).  Not zero: every call allocates its own data buffers
  // and workspaces.  The mask plans come from the process-wide memo, so
  // a warm call builds none of their tables.  Minimum over five calls
  // after a warm-up call, so a stray allocation cannot move the count.
  {
    const int P = 4;
    simd::Machine m(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    api::Config cfg;
    cfg.nprocs = P;
    cfg.algorithm = api::Algorithm::kSmartBitonic;
    const auto keys = util::generate_keys(std::size_t{1} << 14,
                                          util::KeyDistribution::kUniform31, 42);
    std::uint64_t best = 0;
    bool sorted = true;
    for (int rep = 0; rep < 6; ++rep) {
      auto work = keys;
      const std::uint64_t a0 = g_allocs.load();
      sorted = api::parallel_sort_on(m, work, cfg).sorted && sorted;
      const std::uint64_t allocs = g_allocs.load() - a0;
      if (rep == 1 || (rep > 1 && allocs < best)) best = allocs;
    }
    if (!sorted) {
      std::cerr << "ERROR: unsorted output in the pooled-call audit\n";
      return 1;
    }
    std::cout << "  \"pooled_call\": {\"nprocs\": " << P << ", \"keys_per_proc\": " << (1 << 12)
              << ", \"heap_allocations\": " << best << "},\n";
    report.add_count("pooled_call/heap_allocations", static_cast<double>(best));
  }

  // ---- flight-recorder + service-metrics allocation audit -------------
  // The service tier's always-on observability hot path: one
  // FlightRecorder::record() plus the ServiceMetrics histogram/counter
  // bumps every dispatched batch pays.  The ring is preallocated at
  // construction and overwrite-oldest, so after one full wrap (the warm
  // loop spins past capacity) the measured window must allocate exactly
  // nothing — the recorder can stay on in production.  ns_per_event is
  // the absolute price of a fully-loaded record.
  {
    obs::FlightRecorder rec(1024);
    obs::ServiceMetrics sm;
    sm.clear();
    const auto event = [&rec](int i) {
      obs::FlightRecord r;
      r.kind = obs::FlightEventKind::kDispatched;
      r.trace_id = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i);
      r.t_us = rec.now_us();
      r.slot = static_cast<std::uint32_t>(i & 1);
      r.attempt = 1;
      r.shard = static_cast<std::uint32_t>(i & 3);
      r.a = i;
      r.b = 2;
      rec.record(r);
    };
    for (int i = 0; i < 2048; ++i) event(i);  // wrap the ring: steady state

    const int kEvents = 200000;
    const std::uint64_t a0 = g_allocs.load();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kEvents; ++i) {
      event(i);
      sm.run_us.record(static_cast<double>(i & 1023));
      sm.batch_occupancy.record(static_cast<double>(1 + (i & 3)));
      ++sm.batches;
    }
    const double ns_per_event =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() * 1e9 / kEvents;
    const std::uint64_t allocs = g_allocs.load() - a0;

    std::cout << "  \"flight\": {\"capacity\": " << rec.capacity()
              << ", \"events_recorded\": " << kEvents
              << ", \"events_retained\": " << rec.size()
              << ", \"events_dropped\": " << rec.dropped()
              << ", \"heap_allocations\": " << allocs
              << ", \"ns_per_event\": " << ns_per_event << "}\n}\n";
    report.add_count("flight/heap_allocations", static_cast<double>(allocs));
    report.add_time("flight/ns_per_event", ns_per_event, "ns");
    if (allocs != 0) {
      std::cerr << "WARNING: flight-recorder steady state performed " << allocs
                << " heap allocations (expected 0)\n";
      return 6;
    }
  }
  if (argc > 1 && !report.write_file(argv[1])) return 1;
  return 0;
}
