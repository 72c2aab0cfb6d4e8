// One-call facade over the whole library: construct the simulated
// machine, scatter the keys, run the chosen parallel sorting algorithm,
// gather, and report simulated times.  This is the entry point a
// downstream user starts from (see examples/quickstart.cpp for the
// lower-level SPMD interface).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backend/backend.hpp"
#include "loggp/params.hpp"
#include "simd/machine.hpp"

namespace bsort::fault {
struct FaultPlan;
}

namespace bsort::api {

enum class Algorithm {
  kSmartBitonic,          ///< the paper's contribution (Algorithm 1)
  kCyclicBlockedBitonic,  ///< [CDMS94] baseline
  kBlockedMergeBitonic,   ///< [BLM+91] baseline
  kNaiveBitonic,          ///< Chapter 2.2 butterfly simulation
  kParallelRadix,         ///< comparator sort (Chapter 5.5)
  kSampleSort,            ///< comparator sort (Chapter 5.5)
  kColumnSort,            ///< Leighton 1985 (Chapter 6 related work)
};

std::string_view algorithm_name(Algorithm a);

struct Config {
  int nprocs = 16;
  simd::MessageMode mode = simd::MessageMode::kLong;
  loggp::Params params = loggp::meiko_cs2();
  double cpu_scale = 1.0;
  Algorithm algorithm = Algorithm::kSmartBitonic;

  /// Execution backend for the machine parallel_sort constructs:
  /// kSimulated charges analytic LogP/LogGP time (the historical
  /// behavior); kNative executes exchanges as real memcpys and charges
  /// measured time.  The BSORT_BACKEND environment variable, when set,
  /// overrides this field (backend::kind_from_env).  parallel_sort_on
  /// runs on the caller's machine and therefore ignores it — pass the
  /// backend to the Machine constructor instead.
  backend::Kind backend = backend::Kind::kSimulated;

  // ---- observability (src/obs/) -------------------------------------
  /// Per-VP record ring capacity; 0 disables recording.  When set, the
  /// run records span timelines, one record per exchange and metrics
  /// (Outcome.report.obs carries the phase/metric table), and
  /// Machine::vp_spans() feeds the Perfetto exporter (obs/perfetto.hpp)
  /// and the exchange-trace readers (trace/jsonl.hpp, trace/validate.hpp,
  /// trace/fit.hpp).
  std::size_t profile_spans = 0;

  // ---- hardening knobs (src/fault/) ---------------------------------
  /// Real-time run deadline; 0 disables the barrier watchdog.  On
  /// expiry the run fails with BarrierTimeout carrying a per-VP
  /// diagnosis instead of hanging.
  double watchdog_seconds = 0;
  /// Per-slot exchange checksums, verified on every recv_view.
  bool integrity = false;
  /// Post-sort validation: output must be sorted AND a permutation of
  /// the input (multiset fingerprint).  Failure throws IntegrityError
  /// naming the first diverging VP / VP boundary.
  bool self_check = false;
  /// Fault plan to arm for this run (testing; not owned, may be null).
  const fault::FaultPlan* faults = nullptr;

  // ---- batch scheduling (parallel_sort_batch_on) --------------------
  /// Batch items with at most this many keys are placed WHOLE on a
  /// single owner VP (round-robin) and local-sorted there, instead of
  /// being scattered across all P VPs.  Consecutive small items share
  /// one superstep, so up to P of them sort CONCURRENTLY with zero
  /// exchanges and zero intervening barriers — for requests too small
  /// to amortize a P-way exchange schedule, this is the difference
  /// between paying the full barrier ladder per item and paying one
  /// barrier per P items.  0 (default) disables local placement; the
  /// selected `algorithm` then runs for every item.  Note that locally
  /// placed items perform no exchanges, so exchange-targeted defenses
  /// and fault rules cannot fire on them.
  std::size_t small_item_threshold = 0;

  /// Optional per-item request trace IDs, parallel to a batch's items
  /// (not owned; must stay alive through the call; ignored by the
  /// single-sort entry points).  When set, a BarrierTimeout's per-VP
  /// diagnosis is annotated with the ID of the request each stuck VP
  /// was serving — exactly when that is unambiguous: the VP's items
  /// (its locally-placed ones plus every scattered item) all carry one
  /// distinct ID.  This is how the service ties a watchdog diagnosis
  /// back to a request in the flight recorder.
  const std::uint64_t* batch_item_ids = nullptr;
};

struct Outcome {
  simd::RunReport report;
  bool sorted = false;  ///< output verified in non-decreasing order
  std::uint64_t faults_fired = 0;  ///< injected fault rules that landed
};

/// True iff `config` can sort `total_keys` keys (power-of-two and shape
/// constraints of the selected algorithm).
bool config_valid(const Config& config, std::size_t total_keys);

/// Why config_valid() is false, as an actionable sentence naming the
/// violated constraint with the requested numbers ("cyclic-blocked
/// needs n >= P, i.e. at least 256 total keys on P=16; got 64", ...).
/// Empty when the config is valid.  This is what the service layer's
/// shard planner surfaces when a shard shape cannot be scheduled.
std::string config_invalid_reason(const Config& config, std::size_t total_keys);

/// Sort `keys` in place on the simulated machine.  Throws ConfigError
/// if !config_valid(config, keys.size()); propagates the structured
/// bsort::Error of a failed run (keys are then unspecified but valid).
Outcome parallel_sort(std::vector<std::uint32_t>& keys, const Config& config);

/// Same, but on a caller-owned Machine (pooling: repeated sorts reuse
/// the VP threads and exchange arenas; also how tests prove a Machine
/// survives a faulted run).  config.nprocs must match machine.nprocs()
/// or ConfigError is thrown (naming both counts).
///
/// Pool-reuse contract: the run behaves exactly as it would on a fresh
/// machine constructed from `config`.  The machine's message mode,
/// LogGP parameters and cpu_scale are SET from `config` (and stay in
/// force afterwards); integrity, watchdog and profiling are enabled or
/// disabled symmetrically from `config` on every call, so defenses a
/// previous caller armed never leak into this run; any armed fault
/// plan is disarmed when the call returns or throws; and the Machine
/// itself sweeps mid-flight exchange state of a failed previous run at
/// dispatch.  The only construction-time properties are nprocs and the
/// execution backend (config.backend is ignored here — pass it to the
/// Machine constructor instead).
Outcome parallel_sort_on(simd::Machine& machine, std::vector<std::uint32_t>& keys,
                         const Config& config);

/// Outcome of a batched run: one shared machine.run() that sorted
/// every item, BSP superstep style (barrier-separated), amortizing the
/// per-run fixed costs (worker dispatch, watchdog spawn, ring clears,
/// report aggregation) that dominate small sorts.
struct BatchOutcome {
  simd::RunReport report;    ///< the single shared run
  std::vector<bool> sorted;  ///< per item, parallel to `items`
  std::uint64_t faults_fired = 0;
};

/// Sort every vector in `items` in place, all inside ONE run on the
/// caller-owned machine — the batching primitive under
/// service::SortService.  Each item must independently satisfy
/// config_valid(config, item->size()) or ConfigError names the item
/// and the violated constraint; the pool-reuse contract of
/// parallel_sort_on applies unchanged.  config.self_check verifies
/// each item separately (IntegrityError names the failing item).
/// Items may have heterogeneous sizes; empty items are no-ops.
BatchOutcome parallel_sort_batch_on(simd::Machine& machine,
                                    std::span<std::vector<std::uint32_t>* const> items,
                                    const Config& config);

}  // namespace bsort::api
