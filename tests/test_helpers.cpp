#include "test_helpers.hpp"

#include <algorithm>
#include <cassert>

#include "loggp/params.hpp"

namespace bsort::testing {

std::span<const std::uint32_t> swap_with(simd::Proc& p, std::uint64_t partner,
                                         std::span<const std::uint32_t> payload) {
  const std::uint64_t peers[1] = {partner};
  const std::size_t sizes[1] = {payload.size()};
  p.open_exchange(peers, sizes, peers);
  std::copy(payload.begin(), payload.end(), p.send_slot(0).begin());
  p.commit_exchange();
  return p.recv_view(0);
}

simd::RunReport run_blocked_spmd(
    std::vector<std::uint32_t>& keys, int nprocs, simd::MessageMode mode,
    const std::function<void(simd::Proc&, std::span<std::uint32_t>)>& body) {
  simd::Machine machine(nprocs, loggp::meiko_cs2(), mode);
  return run_blocked_spmd_on(machine, keys, body);
}

simd::RunReport run_blocked_spmd_on(
    simd::Machine& machine, std::vector<std::uint32_t>& keys,
    const std::function<void(simd::Proc&, std::span<std::uint32_t>)>& body) {
  assert(keys.size() % static_cast<std::size_t>(machine.nprocs()) == 0);
  const std::size_t n = keys.size() / static_cast<std::size_t>(machine.nprocs());
  return machine.run([&](simd::Proc& p) {
    body(p, std::span<std::uint32_t>(keys.data() + static_cast<std::size_t>(p.rank()) * n, n));
  });
}

std::vector<std::uint32_t> run_vector_spmd(
    const std::vector<std::uint32_t>& keys, int nprocs, simd::MessageMode mode,
    const std::function<void(simd::Proc&, std::vector<std::uint32_t>&)>& body) {
  simd::Machine machine(nprocs, loggp::meiko_cs2(), mode);
  simd::RunReport report;
  return run_vector_spmd_on(machine, keys, report, body);
}

std::vector<std::uint32_t> run_vector_spmd_on(
    simd::Machine& machine, const std::vector<std::uint32_t>& keys, simd::RunReport& report,
    const std::function<void(simd::Proc&, std::vector<std::uint32_t>&)>& body) {
  const int nprocs = machine.nprocs();
  assert(keys.size() % static_cast<std::size_t>(nprocs) == 0);
  const std::size_t n = keys.size() / static_cast<std::size_t>(nprocs);
  std::vector<std::vector<std::uint32_t>> slices(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    slices[static_cast<std::size_t>(r)].assign(
        keys.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r) * n),
        keys.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r + 1) * n));
  }
  report =
      machine.run([&](simd::Proc& p) { body(p, slices[static_cast<std::size_t>(p.rank())]); });
  std::vector<std::uint32_t> out;
  out.reserve(keys.size());
  for (const auto& s : slices) out.insert(out.end(), s.begin(), s.end());
  return out;
}

std::vector<obs::SpanRecord> exchange_records(const obs::VpSpans& ring) {
  std::vector<obs::SpanRecord> out;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].kind == obs::SpanKind::kExchange) out.push_back(ring[i]);
  }
  return out;
}

}  // namespace bsort::testing
