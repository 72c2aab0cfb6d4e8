// Remap analysis and exchange-plan construction between two BitLayouts.
//
// A remap moves every key from its (proc, local) position under layout
// `from` to its position under layout `to`; the key's absolute address is
// invariant.  This module computes
//   * the communication structure of Lemma 4 (group of peers, keep/send
//     counts),
//   * the pack/unpack masks of Section 3.3, and
//   * a concrete ExchangePlan: for each peer, the ordered list of local
//     indices to pack into the (long) message and where arriving elements
//     land.  Message ordering convention: each message is ordered by
//     increasing destination local address, so sender and receiver agree
//     without any header data.
//
// The plan keeps separate send- and receive-peer lists: for the smart
// layout family the two sets coincide (Lemma 4's symmetric groups, which
// the tests assert), but the machinery stays correct for arbitrary layout
// pairs where they may differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "layout/bit_layout.hpp"

namespace bsort::layout {

/// Pack/unpack masks of Section 3.3, expressed over local-address bit
/// positions.  `pack_shaded` marks the bits of a `from`-local address
/// that become processor bits under `to` (the "shaded" fields of
/// Figure 3.18); `unpack_shaded` marks the bits of a `to`-local address
/// that were processor bits under `from` (Figure 3.19).
struct Masks {
  std::uint64_t pack_shaded;
  std::uint64_t unpack_shaded;
};

Masks remap_masks(const BitLayout& from, const BitLayout& to);

/// Static communication facts about a remap (same for every processor).
struct RemapStats {
  int bits_changed;             ///< r = N_BitsChanged (Lemma 3)
  std::uint64_t group_size;     ///< 2^r processors communicate (Lemma 4)
  std::uint64_t keep_count;     ///< n / 2^r elements stay on each processor
  std::uint64_t send_per_peer;  ///< n / 2^r elements to each other group member
};

RemapStats analyze_remap(const BitLayout& from, const BitLayout& to);

/// Concrete exchange plan for one processor.
struct ExchangePlan {
  /// Processors this rank sends to (ascending; includes rank itself —
  /// the self "message" is the kept portion and is not transmitted).
  std::vector<std::uint64_t> send_peers;
  /// send_local[i]: local indices (under `from`) of the keys destined to
  /// send_peers[i], in message order (ascending destination local
  /// address).
  std::vector<std::vector<std::uint32_t>> send_local;
  /// Processors this rank receives from (ascending; includes rank).
  std::vector<std::uint64_t> recv_peers;
  /// recv_local[i]: local indices (under `to`) where the elements of the
  /// message from recv_peers[i] land, in arrival order.
  std::vector<std::vector<std::uint32_t>> recv_local;
};

ExchangePlan build_exchange_plan(const BitLayout& from, const BitLayout& to,
                                 std::uint64_t rank);

/// Mask-based remap plan (the efficient Section 3.3 implementation).
///
/// The r = N_BitsChanged "shaded" bits of a `from`-local address select
/// the destination peer; the remaining lg n - r kept bits enumerate the
/// elements of one message.  The plan stores
///   * kept_order[j]: the j-th `from`-local offset of every message, in
///     ascending destination-local-address order (so sender and receiver
///     agree on message ordering without headers), and
///   * dest_pattern[o]: the shaded-bit pattern of destination offset o;
/// plus the receiver-side mirror (recv_order / src_pattern over the
/// `to`-local address).  All four tables are RANK-INDEPENDENT; only the
/// peer numbers (dest_proc/src_proc) depend on the rank.  Packing then
/// costs one table lookup + OR per key — no per-key address arithmetic
/// and no sorting.
struct MaskPlan {
  int bits_changed;                         ///< r
  std::vector<std::uint32_t> kept_order;    ///< n / 2^r entries
  std::vector<std::uint32_t> dest_pattern;  ///< 2^r entries (from-local bits)
  std::vector<std::uint32_t> recv_order;    ///< n / 2^r entries
  std::vector<std::uint32_t> src_pattern;   ///< 2^r entries (to-local bits)

  /// Run coalescing: when the lowest c kept bits of the relevant local
  /// address are the identity mapping (bit i of the message offset lands
  /// at local bit i), consecutive message offsets touch consecutive
  /// local addresses and `order[j] | pat` index streams are unions of
  /// contiguous runs of length 2^c — pack/unpack can then move whole
  /// runs with memcpy instead of per-key gathers.  A remap between
  /// cyclic and blocked layouts coalesces to run length == message size
  /// on one of its two sides (single memcpy per message).
  int pack_run_log2 = 0;    ///< lg run length of kept_order | dest_pattern
  int unpack_run_log2 = 0;  ///< lg run length of recv_order | src_pattern

  [[nodiscard]] std::uint64_t group_size() const { return dest_pattern.size(); }
  [[nodiscard]] std::uint64_t message_size() const { return kept_order.size(); }
  [[nodiscard]] std::uint64_t pack_run() const { return std::uint64_t{1} << pack_run_log2; }
  [[nodiscard]] std::uint64_t unpack_run() const {
    return std::uint64_t{1} << unpack_run_log2;
  }
  /// Heap bytes held by the four index tables.
  [[nodiscard]] std::size_t table_bytes() const;
};

MaskPlan build_mask_plan(const BitLayout& from, const BitLayout& to);

/// Byte budget of the process-wide shape memo behind mask_plan and
/// bitonic::remap_program: every entry's tables plus its bookkeeping.
/// The programs the end-to-end benchmark touches (P=4 bulk sorts of
/// 2^17 and 2^13 keys per VP, P=2 service shapes of 2^13..2^17) fit it.
inline constexpr std::size_t kMaskPlanMemoBudget = std::size_t{8} << 20;

/// The process-wide shape memo: immutable values keyed by a list of
/// ints whose first entry is a tag unique to the value type, least
/// recently used entries evicted once the retained bytes would exceed
/// kMaskPlanMemoBudget.  A hit takes one lock and allocates nothing.
/// Values are built outside the lock: look up with shape_memo_find,
/// build on a miss, then hand the value to shape_memo_keep, which
/// returns the copy everybody shares (the first one inserted when
/// threads miss on the same key at once).  `bytes` is what the value
/// keeps alive; a value larger than the whole budget is returned but not
/// kept.
std::shared_ptr<const void> shape_memo_find(std::span<const int> key);
std::shared_ptr<const void> shape_memo_keep(std::span<const int> key,
                                            std::shared_ptr<const void> value,
                                            std::size_t bytes);

/// The plan of build_mask_plan(from, to), shared by every caller through
/// the shape memo, keyed by the layout pair.
std::shared_ptr<const MaskPlan> mask_plan(const BitLayout& from, const BitLayout& to);

/// What the shape memo holds right now (plans and programs alike).
struct MaskPlanMemoStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< retained, as charged against kMaskPlanMemoBudget
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
MaskPlanMemoStats mask_plan_memo_stats();

/// Destination processor of the message with shaded pattern
/// plan.dest_pattern[o], for a given sender rank.
std::uint64_t mask_plan_dest(const BitLayout& from, const BitLayout& to,
                             const MaskPlan& plan, std::uint64_t rank, std::size_t o);

/// Source processor of the message landing at plan.src_pattern[o], for a
/// given receiver rank.
std::uint64_t mask_plan_src(const BitLayout& from, const BitLayout& to,
                            const MaskPlan& plan, std::uint64_t rank, std::size_t o);

}  // namespace bsort::layout
