// Comparator parallel sorts for the Chapter 5.5 experiments: long-message
// parallel radix sort and sample sort in the style of the optimized
// Split-C implementations of [AISS95].
//
// Both move data in runs, never key by key.  Radix sort's pack copies
// each (bucket, destination) piece of the locally partitioned keys into
// its send slot with one copy, and its unpack copies each (bucket,
// source) segment that lands in this VP's range with one copy, straight
// into the caller's keys; the slot pointers and received views are
// fetched once per pass.  Sample sort sends each splitter-delimited
// segment of its sorted keys with one copy and merges the P received
// runs with the branch-free merge tree of localsort::pway_merge.
//
// Each received message is fetched once per exchange (Proc::recv_view
// checks integrity seals when they are on).  Radix sort also checks every
// message against the keys its histograms assign to it, so one resized in
// flight throws ExchangeError naming the sender instead of being read
// past its end; the shared-array sample sort checks that the parts tile
// the caller's keys before writing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simd/machine.hpp"

namespace bsort::psort {

/// LSD parallel radix sort (8-bit digits).  Each processor contributes
/// `keys` (same count everywhere); on return `keys` holds this
/// processor's blocked portion of the globally sorted data (same count).
/// Each pass: local histogram -> allgather of histograms -> all-to-all
/// key redistribution to the globally stable digit order.  The n-key
/// workspace is the VP's Proc::scratch.
void parallel_radix_sort(simd::Proc& p, std::span<std::uint32_t> keys);

/// Sample sort with oversampling: local radix sort, splitter selection
/// from an allgathered sample (64 keys per processor), one all-to-all,
/// local p-way merge.  On return `keys` holds this processor's
/// partition (sizes vary with the key distribution; concatenating over
/// ranks yields the sorted data).
void parallel_sample_sort(simd::Proc& p, std::vector<std::uint32_t>& keys);

/// Same, on an array every VP shares: VP r's input is the r-th of P
/// equal blocks of `all`, and on return `all` holds the sorted data with
/// each VP's partition at its rank-order offset.  `part_sizes` (P
/// entries, shared) receives the partition sizes; the returned span is
/// this VP's partition.  Costs one barrier more than the vector form,
/// after which each VP merges its runs straight into its place in `all`.
/// Both forms use the VP's Proc::scratch as their workspace.
std::span<std::uint32_t> parallel_sample_sort(simd::Proc& p, std::span<std::uint32_t> all,
                                              std::span<std::size_t> part_sizes);

}  // namespace bsort::psort
