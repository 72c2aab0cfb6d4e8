#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>
#include <vector>

#include "fault/error.hpp"
#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"
#include "psort/psort.hpp"
#include "util/bits.hpp"

namespace bsort::psort {

namespace {
constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kPasses = 4;  // 31-bit keys
}  // namespace

void parallel_radix_sort(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto P = static_cast<std::uint64_t>(p.nprocs());
  const auto me = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t n = keys.size();
  auto& scratch = p.scratch();
  if (P == 1) {
    p.timed(simd::Phase::kCompute, [&] { localsort::radix_sort(keys, scratch); });
    return;
  }

  // `stable`: this VP's keys, stably partitioned by the pass's digit.
  scratch.resize(n);
  const std::span<std::uint32_t> stable(scratch.data(), n);
  std::vector<std::uint64_t> all_peers(P);
  std::iota(all_peers.begin(), all_peers.end(), 0);
  const std::vector<std::size_t> hist_sizes(P, kBuckets);
  std::vector<std::uint32_t> hist_flat(P * kBuckets);  // hist_flat[s*kBuckets+b]
  std::vector<std::size_t> data_sizes(P);
  std::vector<std::size_t> cursor(P);
  std::vector<std::uint32_t*> slots(P);
  std::vector<std::span<const std::uint32_t>> views(P);
  std::array<std::uint64_t, kBuckets + 1> bucket_start{};
  std::array<std::uint64_t, kBuckets> my_prefix{};  // keys of bucket b on procs < me

  // Walks this VP's part of each bucket as pieces that each stay inside
  // one destination: walking `stable` (bucket-major, locally stable)
  // visits strictly increasing global indices, so bucket b's segment
  // [g, g+c) splits across consecutive n-sized destination blocks.
  std::array<std::uint32_t, kBuckets> count{};
  const auto for_each_piece = [&](auto&& piece) {
    std::size_t idx = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      std::uint64_t g = bucket_start[b] + my_prefix[b];
      std::uint64_t c = count[b];
      while (c > 0) {
        const std::uint64_t d = g / n;
        const std::uint64_t take = std::min(c, (d + 1) * n - g);
        piece(d, idx, take);
        g += take;
        idx += take;
        c -= take;
      }
    }
  };

  for (int pass = 0; pass < kPasses; ++pass) {
    obs::ScopedSpan pass_span(p, obs::SpanKind::kStage, pass);
    const int shift = pass * kDigitBits;
    // Local histogram + stable local partition by digit.
    p.timed(simd::Phase::kCompute, [&] {
      count.fill(0);
      for (const auto k : keys) ++count[(k >> shift) & (kBuckets - 1)];
      std::array<std::uint32_t, kBuckets> offset{};
      std::uint32_t off = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        offset[b] = off;
        off += count[b];
      }
      for (const auto k : keys) stable[offset[(k >> shift) & (kBuckets - 1)]++] = k;
    });

    // Allgather histograms through the pooled arena; the self slot comes
    // back as a recv view like any other, so no local fix-up is needed.
    p.open_exchange(all_peers, hist_sizes, all_peers);
    p.timed(simd::Phase::kPack, [&] {
      for (std::uint64_t d = 0; d < P; ++d) {
        std::copy(count.begin(), count.end(), p.send_slot(d).begin());
      }
    });
    p.commit_exchange();
    // Snapshot the views into a flat buffer: the data exchange below
    // recycles the same arenas, so the histogram views must not be read
    // after its open_exchange().
    for (std::uint64_t s = 0; s < P; ++s) {
      const auto v = p.recv_exact(s, kBuckets);
      std::copy(v.begin(), v.end(), hist_flat.begin() + static_cast<std::ptrdiff_t>(s * kBuckets));
    }

    // Global bucket starts and per-source prefixes.  Every VP holds n
    // keys, so each histogram sums to n; one that does not would send
    // keys past the last destination.
    p.timed(simd::Phase::kCompute, [&] {
      for (std::uint64_t s = 0; s < P; ++s) {
        const auto h = hist_flat.begin() + static_cast<std::ptrdiff_t>(s * kBuckets);
        const std::size_t count = std::accumulate(h, h + kBuckets, std::size_t{0});
        if (count == n) continue;
        std::ostringstream os;
        os << "radix sort: key count in the histogram from vp " << s << " is " << count
           << ", expected " << n;
        throw ExchangeError(os.str(),
                            {p.rank(), static_cast<std::int64_t>(p.comm().exchanges) - 1, -1},
                            static_cast<std::int64_t>(s), static_cast<std::int64_t>(s));
      }
      my_prefix.fill(0);
      for (std::size_t b = 0; b < kBuckets; ++b) {
        std::uint64_t total = 0;
        for (std::uint64_t s = 0; s < P; ++s) {
          const std::uint64_t h = hist_flat[s * kBuckets + b];
          if (s < me) my_prefix[b] += h;
          total += h;
        }
        bucket_start[b + 1] = bucket_start[b] + total;
      }
    });

    p.timed(simd::Phase::kPack, [&] {
      std::fill(data_sizes.begin(), data_sizes.end(), 0);
      for_each_piece([&](std::uint64_t d, std::size_t, std::uint64_t take) {
        data_sizes[d] += take;
      });
    });

    // The data redistribution is this pass's "remap": a machine-wide
    // all-to-all (group 2^lgP), not a bit-layout transition.
    p.trace_remap(util::ilog2(P), trace::LayoutTag::kOther, trace::LayoutTag::kOther);
    p.open_exchange(all_peers, data_sizes, all_peers);
    p.timed(simd::Phase::kPack, [&] {
      for (std::uint64_t d = 0; d < P; ++d) slots[d] = p.send_slot(d).data();
      std::fill(cursor.begin(), cursor.end(), 0);
      for_each_piece([&](std::uint64_t d, std::size_t idx, std::uint64_t take) {
        std::copy_n(stable.begin() + static_cast<std::ptrdiff_t>(idx), take,
                    slots[d] + cursor[d]);
        cursor[d] += take;
      });
    });
    p.commit_exchange();

    // Placement: every (bucket, source) segment that intersects my
    // global range is one run of the source's message (messages arrive
    // ordered by increasing global index).  The self message is just
    // recv_view(me).  `keys` was fully consumed into `stable` above, so
    // the runs land straight in it.
    p.timed(simd::Phase::kUnpack, [&] {
      const std::uint64_t lo = me * n;
      const std::uint64_t hi = lo + n;
      const auto for_each_segment = [&](auto&& segment) {
        for (std::size_t b = 0; b < kBuckets; ++b) {
          std::uint64_t seg = bucket_start[b];
          for (std::uint64_t s = 0; s < P; ++s) {
            const std::uint64_t from = std::max(seg, lo);
            seg += hist_flat[s * kBuckets + b];
            const std::uint64_t to = std::min(seg, hi);
            if (from < to) segment(s, from - lo, to - from);
          }
        }
      };
      std::fill(cursor.begin(), cursor.end(), 0);
      for_each_segment([&](std::uint64_t s, std::uint64_t, std::uint64_t len) { cursor[s] += len; });
      // A message must carry exactly what the histograms assign to it;
      // anything else was damaged in flight (caught even with integrity
      // checking off, before a copy could read past the message).
      for (std::uint64_t s = 0; s < P; ++s) views[s] = p.recv_exact(s, cursor[s]);
      std::fill(cursor.begin(), cursor.end(), 0);
      for_each_segment([&](std::uint64_t s, std::uint64_t at, std::uint64_t len) {
        std::copy_n(views[s].begin() + static_cast<std::ptrdiff_t>(cursor[s]), len,
                    keys.begin() + static_cast<std::ptrdiff_t>(at));
        cursor[s] += len;
      });
    });
  }
}

}  // namespace bsort::psort
