#include "bitonic/remap_exec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>

#include "fault/error.hpp"
#include "kernel/kernel.hpp"
#include "obs/profile.hpp"

namespace bsort::bitonic {

namespace {

/// Below this run length the per-run memcpy bookkeeping costs more than
/// the dispatched gather kernel it replaces.
constexpr std::size_t kMemcpyRunMin = 16;

/// Coarse classification of a layout for trace records.
trace::LayoutTag classify_layout(const layout::BitLayout& lay) {
  const int log_n = lay.log_local();
  const int log_p = lay.log_procs();
  if (lay == layout::BitLayout::blocked(log_n, log_p)) return trace::LayoutTag::kBlocked;
  if (lay == layout::BitLayout::cyclic(log_n, log_p)) return trace::LayoutTag::kCyclic;
  return trace::LayoutTag::kSmart;
}

/// Point `ws` at the (from, to) plan and derive this rank's peers, unless
/// it already holds that pair.  The self slot is empty: the kept portion
/// is moved during unpack.
void prepare_workspace(RemapWorkspace& ws, const layout::BitLayout& from,
                       const layout::BitLayout& to, std::uint64_t rank) {
  if (ws.from && *ws.from == from && *ws.to == to) return;
  ws.plan = layout::mask_plan(from, to);
  const std::size_t G = ws.plan->group_size();
  const std::size_t M = ws.plan->message_size();
  ws.send_peers.resize(G);
  ws.recv_peers.resize(G);
  ws.sizes.resize(G);
  ws.has_self = false;
  for (std::size_t o = 0; o < G; ++o) {
    ws.send_peers[o] = layout::mask_plan_dest(from, to, *ws.plan, rank, o);
    ws.recv_peers[o] = layout::mask_plan_src(from, to, *ws.plan, rank, o);
    ws.sizes[o] = ws.send_peers[o] == rank ? 0 : M;
    if (ws.send_peers[o] == rank) {
      ws.has_self = true;
      ws.self_send = o;
    }
  }
  ws.group_log2 = ws.plan->bits_changed;
  ws.from_tag = classify_layout(from);
  ws.to_tag = classify_layout(to);
  ws.from = from;
  ws.to = to;
}

/// Pack one message: msg[j] = in[order[j] | pat] for j in [0, msg.size()).
/// `run_log2` is the plan's contiguity guarantee for this order table
/// (MaskPlan::pack_run_log2): long runs are moved with memcpy, short
/// ones through the dispatched gather kernel.
void pack_message(std::span<std::uint32_t> msg, std::span<const std::uint32_t> in,
                  const std::uint32_t* order, std::uint32_t pat, int run_log2) {
  const std::size_t M = msg.size();
  const std::size_t run = std::size_t{1} << run_log2;
  if (run >= kMemcpyRunMin) {
    for (std::size_t q = 0; q < M; q += run) {
      std::memcpy(msg.data() + q, in.data() + (order[q] | pat),
                  run * sizeof(std::uint32_t));
    }
  } else {
    kernel::active().gather_idx(msg.data(), in.data(), order, pat, M);
  }
}

/// Unpack one message: out[order[j] | pat] = msg[j], with the same run
/// coalescing on the destination side.
void unpack_message(std::span<std::uint32_t> out, std::span<const std::uint32_t> msg,
                    const std::uint32_t* order, std::uint32_t pat, int run_log2) {
  const std::size_t M = msg.size();
  const std::size_t run = std::size_t{1} << run_log2;
  if (run >= kMemcpyRunMin) {
    for (std::size_t q = 0; q < M; q += run) {
      std::memcpy(out.data() + (order[q] | pat), msg.data() + q,
                  run * sizeof(std::uint32_t));
    }
  } else {
    kernel::active().scatter_idx(out.data(), order, pat, msg.data(), M);
  }
}

}  // namespace

void remap_data_into(simd::Proc& p, const layout::BitLayout& from,
                     const layout::BitLayout& to, std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out, RemapWorkspace& ws) {
  if (in.size() != out.size()) {
    throw ConfigError("remap_data_into: in/out spans differ in size",
                      {p.rank(), -1, -1});
  }
  if (in.data() == out.data()) {
    throw ConfigError("remap_data_into: in/out spans must not alias",
                      {p.rank(), -1, -1});
  }
  const auto rank = static_cast<std::uint64_t>(p.rank());

  // Structural span covering the whole remap (plan + pack + exchange +
  // unpack); the arg is the exchange ordinal this remap will commit as.
  obs::ScopedSpan remap_span(p, obs::SpanKind::kRemap,
                             static_cast<std::int32_t>(p.comm().exchanges));

  // Plan lookup (cached across repeats of the same layout pair).
  p.timed(simd::Phase::kPack, [&] { prepare_workspace(ws, from, to, rank); });

  p.trace_remap(ws.group_log2, ws.from_tag, ws.to_tag);
  p.open_exchange(ws.send_peers, ws.sizes, ws.recv_peers);

  // Pack into the pooled arena: memcpy runs where the plan coalesces,
  // one dispatched gather per message otherwise.
  const layout::MaskPlan& plan = *ws.plan;
  p.timed(simd::Phase::kPack, [&] {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      if (ws.send_peers[o] == rank) continue;  // kept portion: handled in unpack
      pack_message(p.send_slot(o), in, plan.kept_order.data(), plan.dest_pattern[o],
                   plan.pack_run_log2);
    }
  });

  p.commit_exchange();

  p.timed(simd::Phase::kUnpack, [&] {
    const std::size_t M = plan.message_size();
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      const std::uint32_t spat = plan.src_pattern[o];
      if (ws.recv_peers[o] == rank) {
        // Self portion: sender order and receiver order are both
        // ascending destination local address, so index j matches.
        // Runs coalesce only as far as BOTH sides stay contiguous.
        assert(ws.has_self);
        const std::uint32_t dpat = plan.dest_pattern[ws.self_send];
        const std::size_t run =
            std::uint64_t{1} << std::min(plan.pack_run_log2, plan.unpack_run_log2);
        if (run >= kMemcpyRunMin) {
          for (std::size_t q = 0; q < M; q += run) {
            std::memcpy(out.data() + (plan.recv_order[q] | spat),
                        in.data() + (plan.kept_order[q] | dpat),
                        run * sizeof(std::uint32_t));
          }
        } else {
          for (std::size_t j = 0; j < M; ++j) {
            out[plan.recv_order[j] | spat] = in[plan.kept_order[j] | dpat];
          }
        }
      } else {
        const auto msg = p.recv_view(o);
        if (msg.size() != M) {
          // Every remap message in a group has the same size by
          // construction; a mismatch means the payload was damaged in
          // flight (caught here even with integrity checking off).
          std::ostringstream os;
          os << "remap unpack: message from vp " << ws.recv_peers[o] << " has "
             << msg.size() << " words, expected " << M;
          throw ExchangeError(os.str(), {p.rank(), -1, -1},
                              static_cast<std::int64_t>(ws.recv_peers[o]),
                              static_cast<std::int64_t>(o));
        }
        unpack_message(out, msg, plan.recv_order.data(), spat,
                       plan.unpack_run_log2);
      }
    }
  });
}

}  // namespace bsort::bitonic
