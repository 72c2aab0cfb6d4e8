// Execution of a data remap (layout change) on the simulated machine
// using the mask-based pack/unpack of Section 3.3: fetch the (rank-
// independent) mask plan, gather per-peer messages with one table lookup
// per key straight into the VP's pooled exchange arena, transfer, scatter
// on arrival from the received views.  Pack and unpack are charged to
// their own phases so the breakdown experiments (Table 5.4 / Figure 5.6)
// can report them separately.
//
// The mask plan comes from layout::mask_plan, so every VP of every call
// shares one copy per layout pair.  Callers that remap repeatedly thread
// a RemapWorkspace through the calls: the plan pointer and peer tables
// are cached per (from, to) pair and every vector reuses its capacity, so
// a steady-state remap performs zero heap allocations (the pooled
// Machine arena is likewise persistent).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "layout/bit_layout.hpp"
#include "layout/remap.hpp"
#include "simd/machine.hpp"

namespace bsort::bitonic {

/// Reusable per-VP remap state: the shared mask plan plus this rank's
/// peer/size tables for the most recent (from, to) layout pair.
/// Rebuilding is skipped when the pair repeats; otherwise the vectors
/// recycle their capacity.
struct RemapWorkspace {
  std::optional<layout::BitLayout> from;  ///< cache key (layout pair)
  std::optional<layout::BitLayout> to;
  std::shared_ptr<const layout::MaskPlan> plan;
  std::vector<std::uint64_t> send_peers;
  std::vector<std::uint64_t> recv_peers;
  std::vector<std::size_t> sizes;
  std::size_t self_send = 0;
  bool has_self = false;
  // Trace annotation, derived once per cached layout pair: the group
  // size exponent r (Lemma 4) and the coarse layout classification.
  int group_log2 = -1;
  trace::LayoutTag from_tag = trace::LayoutTag::kUnknown;
  trace::LayoutTag to_tag = trace::LayoutTag::kUnknown;
};

/// Point `ws` at the (from, to) plan and derive this rank's peers, unless
/// it already holds that pair.  With `stage_self` the self slot is sized
/// like every other message (the fused merge reads it back as a run);
/// otherwise it is empty and the kept portion is moved during unpack.  A
/// workspace is used with one `stage_self` value throughout.
void prepare_workspace(RemapWorkspace& ws, const layout::BitLayout& from,
                       const layout::BitLayout& to, std::uint64_t rank, bool stage_self);

/// Coarse classification of a layout for trace records.
trace::LayoutTag classify_layout(const layout::BitLayout& lay);

/// Pack one message: msg[j] = in[order[j] | pat] for j in [0, msg.size()).
/// `run_log2` is the plan's contiguity guarantee for this order table
/// (MaskPlan::pack_run_log2 / pack_run_source_log2): long runs are moved
/// with memcpy, short ones through the dispatched gather kernel.
void pack_message(std::span<std::uint32_t> msg, std::span<const std::uint32_t> in,
                  const std::uint32_t* order, std::uint32_t pat, int run_log2);

/// Unpack one message: out[order[j] | pat] = msg[j], with the same run
/// coalescing on the destination side.
void unpack_message(std::span<std::uint32_t> out, std::span<const std::uint32_t> msg,
                    const std::uint32_t* order, std::uint32_t pat, int run_log2);

/// Remap this rank's local portion from layout `from` (read from `in`)
/// to layout `to` (scattered into `out`).  `in` and `out` must not alias:
/// the double-buffered form avoids the copy-back a strictly in-place
/// remap would need.
void remap_data_into(simd::Proc& p, const layout::BitLayout& from,
                     const layout::BitLayout& to, std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out, RemapWorkspace& ws);

/// Convenience overload with a throwaway workspace.
void remap_data_into(simd::Proc& p, const layout::BitLayout& from,
                     const layout::BitLayout& to, std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out);

/// In-place convenience wrapper: remap `keys` via `scratch`.
void remap_data(simd::Proc& p, const layout::BitLayout& from, const layout::BitLayout& to,
                std::span<std::uint32_t> keys, std::vector<std::uint32_t>& scratch,
                RemapWorkspace& ws);
void remap_data(simd::Proc& p, const layout::BitLayout& from, const layout::BitLayout& to,
                std::span<std::uint32_t> keys, std::vector<std::uint32_t>& scratch);

}  // namespace bsort::bitonic
