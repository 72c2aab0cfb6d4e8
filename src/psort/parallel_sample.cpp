#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "fault/error.hpp"
#include "localsort/pway_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "psort/psort.hpp"
#include "util/bits.hpp"

namespace bsort::psort {

namespace {

/// Sample keys each VP contributes to the splitter choice.
constexpr std::uint64_t kOversample = 64;

/// Phases 1-3: sort `keys` in place, derive the splitters from an
/// allgathered sample, and send each splitter-delimited segment of the
/// sorted keys to its owner.  Afterwards recv_view(src) is the sorted run
/// src sent here (nothing is exchanged when P == 1).
void sort_and_partition(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto P = static_cast<std::uint64_t>(p.nprocs());
  const std::uint64_t n = keys.size();
  auto& scratch = p.scratch();

  // Phase 1: local sort.
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    p.timed(simd::Phase::kCompute, [&] { localsort::radix_sort(keys, scratch); });
  }
  if (P == 1) return;

  std::vector<std::uint64_t> all_peers(P);
  std::iota(all_peers.begin(), all_peers.end(), 0);

  // Phase 2: oversample and allgather; every processor derives the same
  // P-1 splitters from the combined sample.  The allgather goes through
  // the pooled arena: every slot (self included) carries the sample, and
  // the self copy comes back as recv_view(p.rank()) with no fix-up.
  obs::ScopedSpan sample_span(p, obs::SpanKind::kSample);
  std::vector<std::uint32_t> my_sample;
  p.timed(simd::Phase::kCompute, [&] {
    my_sample.reserve(kOversample);
    for (std::uint64_t i = 0; i < kOversample; ++i) {
      my_sample.push_back(keys[(i + 1) * n / (kOversample + 1)]);
    }
  });
  const std::vector<std::size_t> sample_sizes(P, my_sample.size());
  p.open_exchange(all_peers, sample_sizes, all_peers);
  for (std::uint64_t d = 0; d < P; ++d) {
    auto slot = p.send_slot(d);
    std::copy(my_sample.begin(), my_sample.end(), slot.begin());
  }
  p.commit_exchange();

  std::vector<std::uint32_t> splitters;
  p.timed(simd::Phase::kCompute, [&] {
    std::vector<std::uint32_t> all;
    all.reserve(P * kOversample);
    for (std::uint64_t src = 0; src < P; ++src) {
      const auto v = p.recv_view(src);
      all.insert(all.end(), v.begin(), v.end());
    }
    localsort::radix_sort(std::span<std::uint32_t>(all.data(), all.size()), scratch);
    splitters.reserve(P - 1);
    for (std::uint64_t i = 1; i < P; ++i) {
      splitters.push_back(all[i * all.size() / P]);
    }
  });

  sample_span.end();

  // Phase 3: partition the sorted run by the splitters and exchange.
  // Partition boundaries are found first (sizes must be known before
  // open_exchange), then each segment is copied straight into its slot.
  obs::ScopedSpan remap_span(p, obs::SpanKind::kRemap,
                             static_cast<std::int32_t>(p.comm().exchanges));
  std::vector<std::size_t> part_begin(P + 1, 0);
  p.timed(simd::Phase::kPack, [&] {
    part_begin[P] = keys.size();
    for (std::uint64_t d = 0; d + 1 < P; ++d) {
      part_begin[d + 1] = static_cast<std::size_t>(
          std::upper_bound(keys.begin(), keys.end(), splitters[d]) - keys.begin());
    }
  });
  std::vector<std::size_t> part_sizes(P);
  for (std::uint64_t d = 0; d < P; ++d) part_sizes[d] = part_begin[d + 1] - part_begin[d];
  // The partition redistribution is the sort's one "remap": a
  // machine-wide all-to-all, not a bit-layout transition.
  p.trace_remap(util::ilog2(P), trace::LayoutTag::kOther, trace::LayoutTag::kOther);
  p.open_exchange(all_peers, part_sizes, all_peers);
  p.timed(simd::Phase::kPack, [&] {
    for (std::uint64_t d = 0; d < P; ++d) {
      auto slot = p.send_slot(d);
      std::copy(keys.begin() + static_cast<std::ptrdiff_t>(part_begin[d]),
                keys.begin() + static_cast<std::ptrdiff_t>(part_begin[d + 1]), slot.begin());
    }
  });
  p.commit_exchange();
}

/// The P received runs (each message verified once), and their total.
std::size_t received_runs(const simd::Proc& p, std::vector<localsort::Run>& runs) {
  std::size_t total = 0;
  runs.clear();
  for (std::uint64_t src = 0; src < static_cast<std::uint64_t>(p.nprocs()); ++src) {
    runs.push_back({p.recv_view(src), true});
    total += runs.back().data.size();
  }
  return total;
}

/// Phase 4: p-way merge of the received runs, read in place from the
/// pooled views (the self run is recv_view(p.rank())).
void merge_runs(simd::Proc& p, std::span<const localsort::Run> runs,
                std::span<std::uint32_t> out) {
  obs::ScopedSpan merge_span(p, obs::SpanKind::kMergeStage);
  p.timed(simd::Phase::kCompute, [&] { localsort::pway_merge(runs, out, p.scratch()); });
}

}  // namespace

void parallel_sample_sort(simd::Proc& p, std::vector<std::uint32_t>& keys) {
  sort_and_partition(p, keys);
  if (p.nprocs() == 1) return;
  // `keys` was packed into the send slots, so it can take the output.
  std::vector<localsort::Run> runs;
  keys.resize(received_runs(p, runs));
  merge_runs(p, runs, keys);
}

std::span<std::uint32_t> parallel_sample_sort(simd::Proc& p, std::span<std::uint32_t> all,
                                              std::span<std::size_t> part_sizes) {
  const auto P = static_cast<std::size_t>(p.nprocs());
  const auto me = static_cast<std::size_t>(p.rank());
  const std::size_t n = all.size() / P;
  const auto mine = all.subspan(me * n, n);
  sort_and_partition(p, mine);
  if (P == 1) {
    part_sizes[0] = n;
    return mine;
  }
  std::vector<localsort::Run> runs;
  part_sizes[me] = received_runs(p, runs);
  // Every VP has packed its input (the exchange's commit barrier) and,
  // after this barrier, published its part size: the parts tile `all`
  // in rank order and may overwrite any VP's input.
  p.barrier();
  const std::size_t offset =
      std::accumulate(part_sizes.begin(), part_sizes.begin() + static_cast<std::ptrdiff_t>(me),
                      std::size_t{0});
  const std::size_t total = std::accumulate(part_sizes.begin(), part_sizes.end(), std::size_t{0});
  if (total != all.size()) {
    // Every VP sees the same sizes, so every VP throws here.
    std::ostringstream os;
    os << "sample sort: the partition exchange delivered " << total << " keys in all, expected "
       << all.size() << " (a message was resized in flight)";
    throw ExchangeError(os.str(),
                        {p.rank(), static_cast<std::int64_t>(p.comm().exchanges) - 1, -1});
  }
  const auto out = all.subspan(offset, part_sizes[me]);
  merge_runs(p, runs, out);
  return out;
}

}  // namespace bsort::psort
