// Shared helpers for the parallel-sort tests: run an SPMD sort over a
// whole key array split into P blocked slices and return the result.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/spans.hpp"
#include "simd/machine.hpp"

namespace bsort::testing {

/// Split `keys` into P equal blocked slices, run `body(proc, slice)` as
/// an SPMD program, and return the concatenated result (the slices are
/// modified in place).
simd::RunReport run_blocked_spmd(
    std::vector<std::uint32_t>& keys, int nprocs, simd::MessageMode mode,
    const std::function<void(simd::Proc&, std::span<std::uint32_t>)>& body);

/// As run_blocked_spmd but on a caller-owned machine (so tests can
/// enable recording and inspect vp_spans() afterwards).
simd::RunReport run_blocked_spmd_on(
    simd::Machine& machine, std::vector<std::uint32_t>& keys,
    const std::function<void(simd::Proc&, std::span<std::uint32_t>)>& body);

/// As run_blocked_spmd but each processor owns a growable vector (sample
/// sort changes per-processor counts); returns the concatenation.
std::vector<std::uint32_t> run_vector_spmd(
    const std::vector<std::uint32_t>& keys, int nprocs, simd::MessageMode mode,
    const std::function<void(simd::Proc&, std::vector<std::uint32_t>&)>& body);

/// As run_vector_spmd but on a caller-owned machine; the RunReport comes
/// back through `report` (the sorted concatenation is the return value).
std::vector<std::uint32_t> run_vector_spmd_on(
    simd::Machine& machine, const std::vector<std::uint32_t>& keys, simd::RunReport& report,
    const std::function<void(simd::Proc&, std::vector<std::uint32_t>&)>& body);

/// The kExchange records of one VP's ring, oldest first.
std::vector<obs::SpanRecord> exchange_records(const obs::VpSpans& ring);

}  // namespace bsort::testing
