#include "layout/remap.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <list>
#include <mutex>

#include "util/bits.hpp"

namespace bsort::layout {

Masks remap_masks(const BitLayout& from, const BitLayout& to) {
  Masks m{0, 0};
  for (std::size_t pos = 0; pos < from.local_src().size(); ++pos) {
    const int abs_bit = from.local_src()[pos];
    if (!to.is_local_bit(abs_bit)) m.pack_shaded |= std::uint64_t{1} << pos;
  }
  for (std::size_t pos = 0; pos < to.local_src().size(); ++pos) {
    const int abs_bit = to.local_src()[pos];
    if (!from.is_local_bit(abs_bit)) m.unpack_shaded |= std::uint64_t{1} << pos;
  }
  return m;
}

RemapStats analyze_remap(const BitLayout& from, const BitLayout& to) {
  assert(from.log_total() == to.log_total());
  assert(from.log_local() == to.log_local());
  const int r = bits_changed(from, to);
  const std::uint64_t n = from.local_size();
  RemapStats st{};
  st.bits_changed = r;
  st.group_size = std::uint64_t{1} << r;
  st.keep_count = n >> r;
  st.send_per_peer = n >> r;
  return st;
}

ExchangePlan build_exchange_plan(const BitLayout& from, const BitLayout& to,
                                 std::uint64_t rank) {
  assert(from.log_total() == to.log_total());
  assert(from.log_local() == to.log_local());
  const std::uint64_t n = from.local_size();
  const std::uint64_t P = from.proc_count();

  ExchangePlan plan;

  // Send side: destination of every local element; collect the peer set,
  // bucket by destination, and order each bucket by destination local
  // address (the receiver-side convention).
  std::vector<std::int32_t> peer_slot(P, -1);
  {
    std::vector<std::uint64_t> dest_proc(n);
    std::vector<std::uint32_t> dest_local(n);
    for (std::uint64_t local = 0; local < n; ++local) {
      const std::uint64_t abs = from.abs_of(rank, local);
      const std::uint64_t d = to.proc_of(abs);
      dest_proc[local] = d;
      dest_local[local] = static_cast<std::uint32_t>(to.local_of(abs));
      if (peer_slot[d] < 0) {
        peer_slot[d] = 0;
        plan.send_peers.push_back(d);
      }
    }
    std::sort(plan.send_peers.begin(), plan.send_peers.end());
    for (std::size_t i = 0; i < plan.send_peers.size(); ++i) {
      peer_slot[plan.send_peers[i]] = static_cast<std::int32_t>(i);
    }
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> buckets(
        plan.send_peers.size());
    const std::uint64_t per_peer = n / plan.send_peers.size();
    for (auto& b : buckets) b.reserve(per_peer);
    for (std::uint64_t local = 0; local < n; ++local) {
      buckets[static_cast<std::size_t>(peer_slot[dest_proc[local]])].emplace_back(
          dest_local[local], static_cast<std::uint32_t>(local));
    }
    plan.send_local.resize(plan.send_peers.size());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      auto& b = buckets[i];
      std::sort(b.begin(), b.end());
      plan.send_local[i].reserve(b.size());
      for (const auto& [dl, sl] : b) plan.send_local[i].push_back(sl);
    }
  }

  // Receive side: enumerate own `to`-local addresses in ascending order;
  // this matches the sender-side sort above.
  {
    std::fill(peer_slot.begin(), peer_slot.end(), -1);
    std::vector<std::uint64_t> src_proc(n);
    for (std::uint64_t local = 0; local < n; ++local) {
      const std::uint64_t abs = to.abs_of(rank, local);
      const std::uint64_t s = from.proc_of(abs);
      src_proc[local] = s;
      if (peer_slot[s] < 0) {
        peer_slot[s] = 0;
        plan.recv_peers.push_back(s);
      }
    }
    std::sort(plan.recv_peers.begin(), plan.recv_peers.end());
    for (std::size_t i = 0; i < plan.recv_peers.size(); ++i) {
      peer_slot[plan.recv_peers[i]] = static_cast<std::int32_t>(i);
    }
    plan.recv_local.resize(plan.recv_peers.size());
    const std::uint64_t per_peer = n / plan.recv_peers.size();
    for (auto& rv : plan.recv_local) rv.reserve(per_peer);
    for (std::uint64_t local = 0; local < n; ++local) {
      plan.recv_local[static_cast<std::size_t>(peer_slot[src_proc[local]])].push_back(
          static_cast<std::uint32_t>(local));
    }
  }
  return plan;
}

namespace {

/// Scatter the bits of every j in [0, 2^positions.size()) onto the given
/// bit positions (bit i of j lands at positions[i]).  Built bottom-up by
/// doubling — each entry costs O(1) instead of O(|positions|).
std::vector<std::uint32_t> scatter_table(const std::vector<int>& positions) {
  std::vector<std::uint32_t> table(std::size_t{1} << positions.size());
  table[0] = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint32_t bit = std::uint32_t{1} << positions[i];
    const std::size_t half = std::size_t{1} << i;
    for (std::size_t j = 0; j < half; ++j) table[half + j] = table[j] | bit;
  }
  return table;
}

/// Length c of the maximal identity prefix (positions[i] == i for
/// i < c).  The scatter table over such positions maps any aligned block
/// of 2^c consecutive inputs to 2^c consecutive outputs, and the shaded
/// pattern bits live strictly above bit c-1 (positions are disjoint), so
/// `table[j] | pat` streams are contiguous runs of length 2^c.
int identity_prefix(const std::vector<int>& positions) {
  int c = 0;
  while (c < static_cast<int>(positions.size()) && positions[static_cast<std::size_t>(c)] == c) {
    ++c;
  }
  return c;
}

}  // namespace

MaskPlan build_mask_plan(const BitLayout& from, const BitLayout& to) {
  assert(from.log_total() == to.log_total());
  assert(from.log_local() == to.log_local());
  const auto masks = remap_masks(from, to);
  const int log_n = from.log_local();

  MaskPlan plan;
  plan.bits_changed = bits_changed(from, to);

  // Kept from-local positions, sorted by their destination-local
  // position so every message is ordered by ascending destination local
  // address.
  std::vector<std::pair<int, int>> kept;  // (to-local position, from-local position)
  std::vector<int> shaded_from;
  for (int p = 0; p < log_n; ++p) {
    if ((masks.pack_shaded >> p) & 1u) {
      shaded_from.push_back(p);
    } else {
      const int abs_bit = from.local_src()[static_cast<std::size_t>(p)];
      kept.emplace_back(to.local_pos_of(abs_bit), p);
    }
  }
  std::sort(kept.begin(), kept.end());
  std::vector<int> kept_from_positions;
  kept_from_positions.reserve(kept.size());
  for (const auto& [q, p] : kept) kept_from_positions.push_back(p);
  plan.kept_order = scatter_table(kept_from_positions);
  plan.dest_pattern = scatter_table(shaded_from);
  plan.pack_run_log2 = identity_prefix(kept_from_positions);

  // Receiver mirror: kept to-local positions in ascending order give
  // ascending destination local addresses; shaded to-local positions
  // select the source offset.
  std::vector<int> kept_to;
  std::vector<int> shaded_to;
  for (int q = 0; q < log_n; ++q) {
    if ((masks.unpack_shaded >> q) & 1u) {
      shaded_to.push_back(q);
    } else {
      kept_to.push_back(q);
    }
  }
  plan.recv_order = scatter_table(kept_to);
  plan.src_pattern = scatter_table(shaded_to);
  plan.unpack_run_log2 = identity_prefix(kept_to);
  return plan;
}

std::size_t MaskPlan::table_bytes() const {
  return sizeof(std::uint32_t) *
         (kept_order.capacity() + dest_pattern.capacity() + recv_order.capacity() +
          src_pattern.capacity());
}

namespace {

/// FNV-1a over the key: a cheap filter in front of the full comparison.
std::uint64_t key_hash(std::span<const int> key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const int x : key) h = (h ^ static_cast<std::uint64_t>(x + 1)) * 0x100000001b3ull;
  return h;
}

struct MemoEntry {
  std::uint64_t hash;
  std::vector<int> key;
  std::shared_ptr<const void> value;
  std::size_t bytes;  ///< the value's bytes plus this entry's bookkeeping
};

struct Memo {
  std::mutex mu;
  std::list<MemoEntry> lru;  ///< most recently used first
  MaskPlanMemoStats stats;
};

Memo& memo() {
  static Memo m;
  return m;
}

std::list<MemoEntry>::iterator find_entry(Memo& m, std::uint64_t hash,
                                          std::span<const int> key) {
  return std::find_if(m.lru.begin(), m.lru.end(), [&](const MemoEntry& e) {
    return e.hash == hash && std::equal(e.key.begin(), e.key.end(), key.begin(), key.end());
  });
}

}  // namespace

std::shared_ptr<const void> shape_memo_find(std::span<const int> key) {
  Memo& m = memo();
  const std::uint64_t hash = key_hash(key);
  std::lock_guard<std::mutex> lk(m.mu);
  const auto it = find_entry(m, hash, key);
  if (it == m.lru.end()) {
    ++m.stats.misses;
    return nullptr;
  }
  m.lru.splice(m.lru.begin(), m.lru, it);
  ++m.stats.hits;
  return it->value;
}

std::shared_ptr<const void> shape_memo_keep(std::span<const int> key,
                                            std::shared_ptr<const void> value,
                                            std::size_t bytes) {
  bytes += sizeof(MemoEntry) + 4 * sizeof(void*) + key.size() * sizeof(int);
  if (bytes > kMaskPlanMemoBudget) return value;
  Memo& m = memo();
  const std::uint64_t hash = key_hash(key);
  std::lock_guard<std::mutex> lk(m.mu);
  const auto it = find_entry(m, hash, key);
  if (it != m.lru.end()) return it->value;
  m.lru.push_front({hash, {key.begin(), key.end()}, value, bytes});
  m.stats.bytes += bytes;
  while (m.stats.bytes > kMaskPlanMemoBudget) {
    m.stats.bytes -= m.lru.back().bytes;
    m.lru.pop_back();
  }
  m.stats.entries = m.lru.size();
  return value;
}

std::shared_ptr<const MaskPlan> mask_plan(const BitLayout& from, const BitLayout& to) {
  // Key: tag 0, then the four bit-source lists, each closed by -1.
  // Layouts cover at most 64 bits, so it fits on the stack.
  std::array<int, 2 * 64 + 5> buf{};
  std::size_t len = 0;
  buf[len++] = 0;
  for (const auto* v : {&from.local_src(), &from.proc_src(), &to.local_src(), &to.proc_src()}) {
    for (const int x : *v) buf[len++] = x;
    buf[len++] = -1;
  }
  const std::span<const int> key(buf.data(), len);
  if (auto hit = shape_memo_find(key)) return std::static_pointer_cast<const MaskPlan>(hit);
  auto plan = std::make_shared<const MaskPlan>(build_mask_plan(from, to));
  const std::size_t bytes = plan->table_bytes() + sizeof(MaskPlan);
  return std::static_pointer_cast<const MaskPlan>(shape_memo_keep(key, std::move(plan), bytes));
}

MaskPlanMemoStats mask_plan_memo_stats() {
  Memo& m = memo();
  std::lock_guard<std::mutex> lk(m.mu);
  return m.stats;
}

std::uint64_t mask_plan_dest(const BitLayout& from, const BitLayout& to,
                             const MaskPlan& plan, std::uint64_t rank, std::size_t o) {
  return to.proc_of(from.abs_of(rank, plan.dest_pattern[o]));
}

std::uint64_t mask_plan_src(const BitLayout& from, const BitLayout& to,
                            const MaskPlan& plan, std::uint64_t rank, std::size_t o) {
  return from.proc_of(to.abs_of(rank, plan.src_pattern[o]));
}

}  // namespace bsort::layout
