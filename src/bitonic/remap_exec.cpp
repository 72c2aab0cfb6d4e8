#include "bitonic/remap_exec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "fault/error.hpp"
#include "kernel/kernel.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "schedule/smart_schedule.hpp"

namespace bsort::bitonic {

namespace {

/// Below this run length the per-run memcpy bookkeeping costs more than
/// the dispatched gather kernel it replaces.
constexpr std::size_t kMemcpyRunMin = 16;

/// Every remap of the shape, with its window, derived once.
std::shared_ptr<const RemapProgram> build_program(RemapSort sort, int log_n, int log_p,
                                                  int first_chunk) {
  assert(log_n >= 1 && log_p >= 1);
  const auto blocked = layout::BitLayout::blocked(log_n, log_p);
  const auto cyclic = layout::BitLayout::cyclic(log_n, log_p);
  const auto tag = [&](const layout::BitLayout& lay) {  // coarse class for trace records
    return lay == blocked  ? trace::LayoutTag::kBlocked
           : lay == cyclic ? trace::LayoutTag::kCyclic
                           : trace::LayoutTag::kSmart;
  };
  auto prog = std::make_shared<RemapProgram>();
  auto& steps = prog->steps;
  const auto add = [&](const layout::BitLayout& to, int stage, int step, int count) {
    const layout::BitLayout& from = steps.empty() ? blocked : steps.back().to;
    std::shared_ptr<const layout::MaskPlan> shared;
    for (std::size_t i = 0; i < steps.size() && !shared; ++i) {
      const layout::BitLayout& from_i = i == 0 ? blocked : steps[i - 1].to;
      if (from_i == from && steps[i].to == to) shared = steps[i].plan;
    }
    if (!shared) shared = std::make_shared<const layout::MaskPlan>(build_mask_plan(from, to));
    const layout::MaskPlan& plan = *shared;
    const std::uint64_t P = std::uint64_t{1} << log_p;
    RemapStep st{shared, to, std::vector<RemapStep::Peers>(P), plan.bits_changed,
                 tag(from), tag(to), stage, step, count};
    for (std::uint64_t r = 0; r < P; ++r) {
      auto& mine = st.peers[r];
      for (std::size_t o = 0; o < plan.group_size(); ++o) {
        mine.send.push_back(layout::mask_plan_dest(from, to, plan, r, o));
        mine.recv.push_back(layout::mask_plan_src(from, to, plan, r, o));
        mine.sizes.push_back(mine.send.back() == r ? 0 : plan.message_size());
      }
    }
    steps.push_back(std::move(st));
  };
  if (sort == RemapSort::kSmart) {
    for (const auto& phase : schedule::make_smart_schedule(log_n, log_p, first_chunk).remaps) {
      add(phase.layout, log_n + phase.params.k, phase.params.s, phase.steps);
    }
  } else {
    // The stage's first k steps (lg n + k .. lg n + 1) compare absolute
    // bits lg n + k - 1 .. lg n, local under the cyclic layout since
    // lg n >= lg P: the top of the stage's bitonic merge.  Back under
    // the blocked layout, its last lg n steps complete the merge of each
    // block.
    for (int k = 1; k <= log_p; ++k) {
      add(cyclic, log_n + k, log_n + k, k);
      add(blocked, log_n + k, log_n, log_n);
    }
  }
  return prog;
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

std::size_t RemapProgram::bytes() const {
  std::size_t bytes = sizeof(RemapProgram) + steps.capacity() * sizeof(RemapStep);
  for (auto st = steps.begin(); st != steps.end(); ++st) {
    bytes += sizeof(int) * 2 * static_cast<std::size_t>(st->to.log_total()) +
             st->peers.capacity() * sizeof(RemapStep::Peers);
    for (const auto& mine : st->peers) {
      bytes += sizeof(std::uint64_t) * (mine.send.capacity() + mine.recv.capacity()) +
               sizeof(std::size_t) * mine.sizes.capacity();
    }
    // A plan shared by several steps is charged once.
    if (std::none_of(steps.begin(), st, [&](const RemapStep& e) { return e.plan == st->plan; })) {
      bytes += sizeof(layout::MaskPlan) + st->plan->table_bytes();
    }
  }
  return bytes;
}

std::shared_ptr<const RemapProgram> remap_program(RemapSort sort, int log_n, int log_p,
                                                  int first_chunk) {
  // first_chunk 0 and lg n name the same smart schedule (HeadRemap).
  first_chunk = sort == RemapSort::kCyclicBlocked ? 0 : first_chunk == 0 ? log_n : first_chunk;
  const int key[] = {1, static_cast<int>(sort), log_n, log_p, first_chunk};
  if (auto hit = layout::shape_memo_find(key)) {
    return std::static_pointer_cast<const RemapProgram>(hit);
  }
  auto prog = build_program(sort, log_n, log_p, first_chunk);
  const std::size_t bytes = prog->bytes();
  return std::static_pointer_cast<const RemapProgram>(
      layout::shape_memo_keep(key, std::move(prog), bytes));
}

void remap_data_into(simd::Proc& p, const RemapStep& step, std::span<const std::uint32_t> in,
                     std::span<std::uint32_t> out) {
  if (in.size() != out.size() || in.data() == out.data() || in.size() != step.to.local_size() ||
      step.peers.size() != static_cast<std::size_t>(p.nprocs())) {
    throw ConfigError("remap_data_into: in/out must be two distinct spans of the step's n keys, "
                      "on a machine of the step's P", {p.rank(), -1, -1});
  }
  const auto rank = static_cast<std::uint64_t>(p.rank());

  // Structural span covering the whole remap (peers + pack + exchange +
  // unpack); the arg is the exchange ordinal this remap will commit as.
  obs::ScopedSpan remap_span(p, obs::SpanKind::kRemap,
                             static_cast<std::int32_t>(p.comm().exchanges));

  const RemapStep::Peers& mine = step.peers[rank];
  const auto& send_peers = mine.send;
  const auto& recv_peers = mine.recv;

  p.trace_remap(step.group_log2, step.from_tag, step.to_tag);
  p.open_exchange(send_peers, mine.sizes, recv_peers);

  // Pack into the pooled arena: memcpy runs where the plan coalesces,
  // one dispatched gather per message otherwise.
  const layout::MaskPlan& plan = *step.plan;
  p.timed(simd::Phase::kPack, [&] {
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      if (send_peers[o] == rank) continue;  // kept portion: handled in unpack
      pack_message(p.send_slot(o), in, plan.kept_order.data(), plan.dest_pattern[o],
                   plan.pack_run_log2);
    }
  });

  p.commit_exchange();

  p.timed(simd::Phase::kUnpack, [&] {
    const std::size_t M = plan.message_size();
    for (std::size_t o = 0; o < plan.group_size(); ++o) {
      const std::uint32_t spat = plan.src_pattern[o];
      if (recv_peers[o] == rank) {
        // Self portion: sender order and receiver order are both
        // ascending destination local address, so index j matches.
        // Runs coalesce only as far as BOTH sides stay contiguous.
        const auto self = std::find(send_peers.begin(), send_peers.end(), rank);
        assert(self != send_peers.end());
        const std::uint32_t dpat = plan.dest_pattern[self - send_peers.begin()];
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
        // Every remap message in a group has the same size by
        // construction; a mismatch means the payload was damaged in
        // flight (caught here even with integrity checking off).
        unpack_message(out, p.recv_exact(o, M), plan.recv_order.data(), spat,
                       plan.unpack_run_log2);
      }
    }
  });
}

void run_window(simd::Proc& p, const RemapStep& step, std::span<std::uint32_t> data) {
  p.timed(simd::Phase::kCompute, [&] {
    localsort::local_network_steps(step.to, static_cast<std::uint64_t>(p.rank()), data,
                                   step.stage, step.step, step.steps);
  });
}

void exchange_keep(simd::Proc& p, std::span<std::uint32_t> keys, std::uint64_t partner,
                   bool keep_min) {
  // Stage the whole block in the arena and read the partner's block in
  // place: no payload vectors.
  const std::uint64_t peers[1] = {partner};
  const std::size_t sizes[1] = {keys.size()};
  p.trace_remap(1, trace::LayoutTag::kBlocked, trace::LayoutTag::kBlocked);
  p.open_exchange(peers, sizes, peers);
  p.timed(simd::Phase::kPack,
          [&] { std::copy(keys.begin(), keys.end(), p.send_slot(0).begin()); });
  p.commit_exchange();
  const auto other = p.recv_view(0);
  p.timed(simd::Phase::kCompute, [&] {
    const auto& K = kernel::active();
    if (keep_min) {
      K.keep_min(keys.data(), other.data(), keys.size());
    } else {
      K.keep_max(keys.data(), other.data(), keys.size());
    }
  });
}

void local_sort(simd::Proc& p, std::span<std::uint32_t> keys, bool ascending) {
  p.timed(simd::Phase::kCompute, [&] {
    if (ascending) {
      localsort::radix_sort(keys, p.scratch());
    } else {
      localsort::radix_sort_descending(keys, p.scratch());
    }
  });
}

}  // namespace bsort::bitonic
