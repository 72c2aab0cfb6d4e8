#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "localsort/pway_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "psort/psort.hpp"
#include "util/bits.hpp"

namespace bsort::psort {

void parallel_sample_sort(simd::Proc& p, std::vector<std::uint32_t>& keys, int oversample) {
  const auto P = static_cast<std::uint64_t>(p.nprocs());
  const std::uint64_t n = keys.size();

  // Phase 1: local sort.
  std::vector<std::uint32_t> scratch;
  {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort);
    p.timed(simd::Phase::kCompute, [&] {
      localsort::radix_sort(std::span<std::uint32_t>(keys.data(), keys.size()), scratch);
    });
  }
  if (P == 1) return;

  std::vector<std::uint64_t> all_peers(P);
  std::iota(all_peers.begin(), all_peers.end(), 0);

  // Phase 2: oversample and allgather; every processor derives the same
  // P-1 splitters from the combined sample.  The allgather goes through
  // the pooled arena: every slot (self included) carries the sample, and
  // the self copy comes back as recv_view(p.rank()) with no fix-up.
  const auto s = static_cast<std::uint64_t>(oversample);
  obs::ScopedSpan sample_span(p, obs::SpanKind::kSample);
  std::vector<std::uint32_t> my_sample;
  p.timed(simd::Phase::kCompute, [&] {
    my_sample.reserve(s);
    for (std::uint64_t i = 0; i < s; ++i) {
      my_sample.push_back(keys[(i + 1) * n / (s + 1)]);
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
    all.reserve(P * s);
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
  remap_span.end();

  // Phase 4: p-way merge of the P sorted runs, read in place from the
  // pooled views (the self run is recv_view(p.rank())).
  obs::ScopedSpan merge_span(p, obs::SpanKind::kMergeStage);
  p.timed(simd::Phase::kCompute, [&] {
    std::size_t total = 0;
    for (std::uint64_t src = 0; src < P; ++src) total += p.recv_view(src).size();
    keys.resize(total);
    std::vector<localsort::Run> runs;
    runs.reserve(P);
    for (std::uint64_t src = 0; src < P; ++src) {
      runs.push_back({p.recv_view(src), true});
    }
    localsort::pway_merge(runs, std::span<std::uint32_t>(keys.data(), keys.size()));
  });
}

}  // namespace bsort::psort
