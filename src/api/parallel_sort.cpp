#include "api/parallel_sort.hpp"

#include <algorithm>
#include <sstream>

#include "bitonic/sorts.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "localsort/radix_sort.hpp"
#include "psort/column_sort.hpp"
#include "psort/psort.hpp"
#include "util/bits.hpp"

namespace bsort::api {

namespace {

/// splitmix64 finalizer: spreads each key over 64 bits so the
/// order-independent permutation fingerprint (sum + xor of hashes)
/// cannot be fooled by compensating key edits.
std::uint64_t mix_key(std::uint32_t k) {
  std::uint64_t x = k + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Fingerprint {
  std::size_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const std::vector<std::uint32_t>& keys) {
  Fingerprint f;
  f.count = keys.size();
  for (const std::uint32_t k : keys) {
    const std::uint64_t h = mix_key(k);
    f.sum += h;
    f.xr ^= h;
  }
  return f;
}

inline constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

/// Sortedness + permutation check; reports the first diverging VP (or
/// VP boundary) so a failure localizes the broken exchange.  `item`
/// names the batch item in a batched run (kNoItem for a single sort).
/// An item scattered over the VPs has blocks of `keys_per_proc` keys
/// starting at vp 0; a locally placed item is one block, `first_vp`'s.
void self_check_output(const std::vector<std::uint32_t>& keys,
                       const Fingerprint& before, std::size_t keys_per_proc,
                       std::size_t item = kNoItem, std::size_t first_vp = 0) {
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    if (keys[i] <= keys[i + 1]) continue;
    const std::size_t vp = first_vp + (keys_per_proc == 0 ? 0 : i / keys_per_proc);
    const bool boundary = keys_per_proc != 0 && (i + 1) % keys_per_proc == 0;
    std::ostringstream os;
    os << "self-check: output not sorted at index " << i << " (" << keys[i] << " > "
       << keys[i + 1] << "), "
       << (boundary ? "at the boundary between vp " : "inside the block of vp ");
    if (boundary) {
      os << vp << " and vp " << vp + 1;
    } else {
      os << vp;
    }
    if (item != kNoItem) os << " (batch item " << item << ")";
    throw IntegrityError(os.str(), {static_cast<int>(vp), -1, -1});
  }
  if (fingerprint(keys) == before) return;
  const bool whole = keys_per_proc == keys.size();
  std::ostringstream os;
  os << "self-check: output is not a permutation of the input (" << keys.size()
     << " keys; multiset fingerprint mismatch";
  if (whole) os << "; sorted whole by vp " << first_vp;
  if (item != kNoItem) os << "; batch item " << item;
  os << ")";
  throw IntegrityError(os.str(), {whole ? static_cast<int>(first_vp) : -1, -1, -1});
}

}  // namespace

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kSmartBitonic:
      return "bitonic/smart";
    case Algorithm::kCyclicBlockedBitonic:
      return "bitonic/cyclic-blocked";
    case Algorithm::kBlockedMergeBitonic:
      return "bitonic/blocked-merge";
    case Algorithm::kNaiveBitonic:
      return "bitonic/naive";
    case Algorithm::kParallelRadix:
      return "radix";
    case Algorithm::kSampleSort:
      return "sample";
    case Algorithm::kColumnSort:
      return "column";
  }
  return "?";
}

std::string config_invalid_reason(const Config& config, std::size_t total_keys) {
  const auto P = static_cast<std::uint64_t>(config.nprocs);
  std::ostringstream os;
  if (config.nprocs < 1 || !util::is_pow2(P)) {
    os << "nprocs must be a positive power of two (got " << config.nprocs << ")";
    return os.str();
  }
  // Zero keys are trivially sortable by every algorithm (parallel_sort
  // runs a no-op program), so only the machine shape matters.
  if (total_keys == 0) return {};
  if (!util::is_pow2(total_keys)) {
    os << "total key count must be a power of two (got " << total_keys
       << " keys; the bitonic network is defined on 2^k inputs)";
    return os.str();
  }
  if (total_keys % P != 0) {
    os << "total key count " << total_keys << " is smaller than P=" << config.nprocs
       << " (keys are scattered n = N/P per VP; need N >= P)";
    return os.str();
  }
  const std::uint64_t n = total_keys / P;
  switch (config.algorithm) {
    case Algorithm::kSmartBitonic:
      // With P > 1 the schedule needs lg n >= 1; a single processor
      // degenerates to one local sort, which handles any n.
      if (n >= 2 || config.nprocs == 1) return {};
      os << "smart bitonic needs n >= 2 keys per VP when P > 1 (the schedule "
            "requires lg n >= 1); got n=" << n << " with " << total_keys
         << " keys on P=" << config.nprocs << " — need at least " << 2 * P
         << " total keys";
      return os.str();
    case Algorithm::kCyclicBlockedBitonic:
      if (n >= P) return {};  // N >= P^2
      os << "cyclic-blocked bitonic needs n >= P, i.e. N >= P^2 (got n=" << n
         << " keys per VP with " << total_keys << " keys on P=" << config.nprocs
         << " — need at least " << P * P << " total keys)";
      return os.str();
    case Algorithm::kBlockedMergeBitonic:
    case Algorithm::kNaiveBitonic:
    case Algorithm::kParallelRadix:
    case Algorithm::kSampleSort:
      return {};  // n >= 1 holds: total_keys is a positive multiple of P
    case Algorithm::kColumnSort:
      if (psort::column_sort_shape_ok(n, P)) return {};
      os << "column sort shape constraint failed: needs P | n and n >= 2(P-1)^2 "
            "(got n=" << n << " keys per VP with " << total_keys << " keys on P="
         << config.nprocs << ")";
      return os.str();
  }
  os << "unknown algorithm";
  return os.str();
}

bool config_valid(const Config& config, std::size_t total_keys) {
  return config_invalid_reason(config, total_keys).empty();
}

namespace {

/// Disarms the machine's fault plan on scope exit, so a throwing run
/// never leaks injection state into the caller's next sort.
struct FaultGuard {
  simd::Machine& machine;
  ~FaultGuard() { machine.disarm_faults(); }
};

/// Throws the ConfigError for an invalid (entry, config, keys) triple,
/// embedding the violated constraint from config_invalid_reason so a
/// service shard planner's mistake is debuggable from the message.
[[noreturn]] void throw_invalid_config(const char* entry, const Config& config,
                                       std::size_t total_keys,
                                       std::size_t item = kNoItem) {
  std::ostringstream os;
  os << entry << ": invalid config for " << total_keys << " keys ("
     << algorithm_name(config.algorithm) << ", P=" << config.nprocs << ")";
  if (item != kNoItem) os << " at batch item " << item;
  os << ": " << config_invalid_reason(config, total_keys);
  throw ConfigError(os.str());
}

/// Apply the per-run parts of `config` to a (possibly pooled) machine:
/// charging model and every defense, each set symmetrically so nothing
/// a previous run enabled survives a config that turns it off.
void apply_config(simd::Machine& machine, const Config& config) {
  machine.set_mode(config.mode);
  machine.set_params(config.params);
  machine.set_cpu_scale(config.cpu_scale);
  if (config.integrity) {
    machine.enable_integrity();
  } else {
    machine.disable_integrity();
  }
  machine.set_watchdog(config.watchdog_seconds);
  if (config.profile_spans > 0) {
    machine.enable_profiling(config.profile_spans);
  } else {
    machine.disable_profiling();
  }
}

/// The shared engine: sort every item inside one machine run, items
/// separated by a barrier (a BSP superstep boundary — clocks of all
/// VPs synchronize between items, and no VP touches item k+1's buffers
/// before every VP is done with item k's).  A batch of local items only
/// is one superstep with no exchange, so it needs no VP threads: it runs
/// on the calling thread when the serial extra work costs no more than
/// the machine's measured hand-off (see below).
BatchOutcome run_batch_on(simd::Machine& machine,
                          std::span<std::vector<std::uint32_t>* const> items,
                          const Config& config) {
  apply_config(machine, config);
  machine.disarm_faults();
  FaultGuard guard{machine};
  if (config.faults != nullptr) machine.arm_faults(*config.faults);

  const auto P = static_cast<std::size_t>(config.nprocs);
  std::vector<Fingerprint> before;
  if (config.self_check) {
    before.reserve(items.size());
    for (const auto* keys : items) before.push_back(fingerprint(*keys));
  }

  // Small-item local placement: an item at or under the threshold is
  // owned by one VP (round-robin over the small items) and local-sorted
  // whole — no exchanges, no per-item barrier ladder.  Consecutive
  // small items share a superstep, so up to P of them run concurrently;
  // a parallel item always gets its own superstep.  An empty item is a
  // no-op and joins its neighbours' superstep like a small one.
  // `superstep[it]` changes exactly where a barrier is required.
  std::vector<bool> local(items.size(), false);
  std::vector<std::size_t> owner(items.size(), 0);
  std::vector<std::size_t> superstep(items.size(), 0);
  std::size_t nlocal = 0;
  std::uint64_t local_keys = 0;
  bool all_local = true;
  for (std::size_t it = 0; it < items.size(); ++it) {
    local[it] = config.small_item_threshold > 0 && !items[it]->empty() &&
                items[it]->size() <= config.small_item_threshold;
    if (local[it]) {
      owner[it] = nlocal++ % P;
      local_keys += items[it]->size();
    } else if (!items[it]->empty()) {
      all_local = false;
    }
    if (it > 0) {
      const auto joins = [&](std::size_t i) { return local[i] || items[i]->empty(); };
      superstep[it] = superstep[it - 1] + ((joins(it) && joins(it - 1)) ? 0 : 1);
    }
  }

  // On the calling thread the owners' sorts run one after another, so
  // the batch costs every local key instead of the busiest owner's; on
  // the VPs it costs that plus one hand-off.  Both rates are this
  // machine's own measurements (handoff_us from its barrier-free runs,
  // the per-key rate from the all-local batches it sorted); until both
  // exist the batch goes to the VPs, which measure them.
  bool run_inline = false;
  if (all_local && machine.handoff_us() > 0 && machine.local_sort_us_per_key() > 0) {
    std::uint64_t busiest = 0;
    for (std::size_t r = 0; r < P; ++r) {
      std::uint64_t mine = 0;
      for (std::size_t it = 0; it < items.size(); ++it) {
        if (local[it] && owner[it] == r) mine += items[it]->size();
      }
      busiest = std::max(busiest, mine);
    }
    run_inline = static_cast<double>(local_keys - busiest) * machine.local_sort_us_per_key() <=
                 machine.handoff_us();
  }

  // Sample sort's parts vary in size: part_sizes[it * P + r] is the size
  // of the part VP r leaves in item `it`, published by the VPs.
  std::vector<std::size_t> part_sizes;
  if (config.algorithm == Algorithm::kSampleSort) part_sizes.assign(items.size() * P, 0);

  // Which request was a stuck VP serving?  Rank r runs its own local
  // items plus every scattered item; when those carry exactly one
  // distinct trace ID (the common case: a batch of one request's
  // shards, or one local item per VP), a BarrierTimeout's snapshot for
  // that rank is annotated with it.
  const auto annotate_owners = [&](const BarrierTimeout& e) -> BarrierTimeout {
    std::vector<BarrierTimeout::VpSnapshot> states = e.states();
    for (auto& s : states) {
      std::uint64_t found = 0;
      bool unique = true;
      for (std::size_t it = 0; it < items.size(); ++it) {
        if (items[it]->empty() || config.batch_item_ids[it] == 0) continue;
        if (local[it] && owner[it] != static_cast<std::size_t>(s.rank)) continue;
        if (found == 0) {
          found = config.batch_item_ids[it];
        } else if (found != config.batch_item_ids[it]) {
          unique = false;
        }
      }
      if (unique) s.owner = found;
    }
    return {e.deadline_seconds(), std::move(states)};
  };

  // Without self_check, sortedness is checked by the VPs while their keys
  // are still in cache: part_sorted[it * P + r] says whether the part VP r
  // produced for item `it` is sorted (untimed, so simulated clocks are
  // unchanged).  The caller then only compares neighbouring parts.
  std::vector<unsigned char> part_sorted;
  if (!config.self_check) part_sorted.assign(items.size() * P, 1);
  const auto check_part = [&](std::size_t it, const simd::Proc& p,
                              std::span<const std::uint32_t> part) {
    if (part_sorted.empty()) return;
    part_sorted[it * P + static_cast<std::size_t>(p.rank())] =
        std::is_sorted(part.begin(), part.end()) ? 1 : 0;
  };

  BatchOutcome out;
  const auto run_program = [&](simd::Proc& p) {
    for (std::size_t it = 0; it < items.size(); ++it) {
      if (it > 0 && superstep[it] != superstep[it - 1]) {
        p.barrier();  // superstep boundary
      }
      auto& keys = *items[it];
      if (keys.empty()) continue;
      if (local[it]) {
        if (owner[it] == static_cast<std::size_t>(p.rank())) {
          p.timed(simd::Phase::kCompute,
                  [&] { localsort::radix_sort(keys, p.scratch()); });
          check_part(it, p, keys);
        }
        continue;
      }
      const std::size_t n = keys.size() / P;
      std::span<std::uint32_t> part(keys.data() + static_cast<std::size_t>(p.rank()) * n, n);
      switch (config.algorithm) {
        case Algorithm::kSmartBitonic:
          bitonic::smart_sort(p, part);
          break;
        case Algorithm::kCyclicBlockedBitonic:
          bitonic::cyclic_blocked_sort(p, part);
          break;
        case Algorithm::kBlockedMergeBitonic:
          bitonic::blocked_merge_sort(p, part);
          break;
        case Algorithm::kNaiveBitonic:
          bitonic::naive_blocked_sort(p, part);
          break;
        case Algorithm::kColumnSort:
          psort::column_sort(p, part);
          break;
        case Algorithm::kParallelRadix:
          psort::parallel_radix_sort(p, part);
          break;
        case Algorithm::kSampleSort:
          // Parts vary in size: VP r's part is not its input block.
          part = psort::parallel_sample_sort(
              p, keys, std::span<std::size_t>(part_sizes).subspan(it * P, P));
          break;
      }
      check_part(it, p, part);
    }
  };
  const auto run = [&] {
    return run_inline ? machine.run_inline(run_program) : machine.run(run_program);
  };
  if (config.batch_item_ids == nullptr) {
    out.report = run();
  } else {
    try {
      out.report = run();
    } catch (const BarrierTimeout& e) {
      throw annotate_owners(e);
    }
  }
  if (all_local) {
    // Only the owners' local sorts were charged, in host time x cpu_scale.
    double charged = 0;
    for (const auto& ph : out.report.proc_phases) charged += ph.compute();
    machine.note_local_sort(local_keys, charged / config.cpu_scale);
  }
  out.faults_fired = machine.faults_fired();
  out.sorted.assign(items.size(), false);
  const bool single = items.size() == 1;
  for (std::size_t it = 0; it < items.size(); ++it) {
    const auto& keys = *items[it];
    if (config.self_check) {
      // Throws IntegrityError (naming the item on batched runs, and a
      // local item's owner VP).
      self_check_output(keys, before[it], local[it] ? keys.size() : keys.size() / P,
                        single ? kNoItem : it, local[it] ? owner[it] : 0);
      out.sorted[it] = true;
    } else if (keys.empty()) {
      out.sorted[it] = true;
    } else if (local[it]) {
      out.sorted[it] = part_sorted[it * P + owner[it]] != 0;
    } else {
      // Every part sorted, and each non-empty part starts no lower than
      // the last non-empty part before it (sample sort's parts vary in
      // length and may be empty).
      bool ok = true;
      std::span<const std::uint32_t> prev;
      std::size_t at = 0;
      for (std::size_t r = 0; r < P && ok; ++r) {
        const std::size_t len = part_sizes.empty() ? keys.size() / P : part_sizes[it * P + r];
        const auto part = std::span<const std::uint32_t>(keys).subspan(at, len);
        at += len;
        ok = part_sorted[it * P + r] != 0 &&
             (part.empty() || prev.empty() || prev.back() <= part.front());
        if (!part.empty()) prev = part;
      }
      out.sorted[it] = ok;
    }
  }
  return out;
}

}  // namespace

Outcome parallel_sort(std::vector<std::uint32_t>& keys, const Config& config) {
  if (!config_valid(config, keys.size())) {
    throw_invalid_config("parallel_sort", config, keys.size());
  }
  simd::Machine machine(
      config.nprocs, config.params, config.mode, config.cpu_scale,
      backend::make(backend::kind_from_env(config.backend)));
  std::vector<std::uint32_t>* const one[1] = {&keys};
  auto batch = run_batch_on(machine, one, config);
  return {std::move(batch.report), batch.sorted[0], batch.faults_fired};
}

namespace {

/// The nprocs mismatch every pool misconfiguration hits first; names
/// both counts and what IS reconfigurable so the fix is obvious.
void check_machine_shape(const char* entry, const simd::Machine& machine,
                         const Config& config) {
  if (machine.nprocs() == config.nprocs) return;
  std::ostringstream os;
  os << entry << ": machine/config nprocs mismatch — the pooled machine has "
     << machine.nprocs() << " VPs but config.nprocs requests " << config.nprocs
     << "; mode/params/cpu_scale are re-applied per run, but the VP count is "
        "fixed when the Machine is constructed";
  throw ConfigError(os.str());
}

}  // namespace

Outcome parallel_sort_on(simd::Machine& machine, std::vector<std::uint32_t>& keys,
                         const Config& config) {
  check_machine_shape("parallel_sort_on", machine, config);
  if (!config_valid(config, keys.size())) {
    throw_invalid_config("parallel_sort_on", config, keys.size());
  }
  std::vector<std::uint32_t>* const one[1] = {&keys};
  auto batch = run_batch_on(machine, one, config);
  return {std::move(batch.report), batch.sorted[0], batch.faults_fired};
}

BatchOutcome parallel_sort_batch_on(simd::Machine& machine,
                                    std::span<std::vector<std::uint32_t>* const> items,
                                    const Config& config) {
  check_machine_shape("parallel_sort_batch_on", machine, config);
  for (std::size_t it = 0; it < items.size(); ++it) {
    if (items[it] == nullptr) {
      std::ostringstream os;
      os << "parallel_sort_batch_on: batch item " << it << " is null";
      throw ConfigError(os.str());
    }
    if (!config_valid(config, items[it]->size())) {
      throw_invalid_config("parallel_sort_batch_on", config, items[it]->size(), it);
    }
  }
  return run_batch_on(machine, items, config);
}

}  // namespace bsort::api
