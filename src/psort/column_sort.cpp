#include "psort/column_sort.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "localsort/radix_sort.hpp"
#include "obs/profile.hpp"

namespace bsort::psort {

bool column_sort_shape_ok(std::uint64_t keys_per_proc, std::uint64_t nprocs) {
  if (nprocs < 2) return true;
  return keys_per_proc >= 2 * (nprocs - 1) * (nprocs - 1);
}

namespace {

/// All P processors, the peer list of both transposes.
std::vector<std::uint64_t> all_peers(std::uint64_t s) {
  std::vector<std::uint64_t> peers(s);
  std::iota(peers.begin(), peers.end(), 0);
  return peers;
}

/// Transpose (step 2): the matrix entries are picked up column by column
/// and set down row by row.  Element i of column j has column-major index
/// k = j*r + i and lands at (row k/s, column k%s).
void transpose(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto s = static_cast<std::uint64_t>(p.nprocs());
  const auto j = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t r = keys.size();
  // Column c sends column d every s-th element, starting at the first i
  // with (c*r + i) % s == d.
  const auto first = [&](std::uint64_t c, std::uint64_t d) { return (d + s - (c * r) % s) % s; };
  const auto count = [&](std::uint64_t c, std::uint64_t d) {
    return first(c, d) < r ? (r - 1 - first(c, d)) / s + 1 : 0;
  };
  const auto peers = all_peers(s);
  std::vector<std::size_t> sizes(s);
  for (std::uint64_t d = 0; d < s; ++d) sizes[d] = count(j, d);
  p.open_exchange(peers, sizes, peers);
  p.timed(simd::Phase::kPack, [&] {
    for (std::uint64_t d = 0; d < s; ++d) {
      std::uint64_t i = first(j, d);
      for (std::uint32_t& v : p.send_slot(d)) {
        v = keys[i];
        i += s;
      }
    }
  });
  p.commit_exchange();
  p.timed(simd::Phase::kUnpack, [&] {
    // Elements from source sj land at locals (sj*r + i)/s for the
    // increasing sequence of i with (sj*r + i) % s == me.
    for (std::uint64_t sj = 0; sj < s; ++sj) {
      std::uint64_t i = first(sj, j);
      for (const std::uint32_t v : p.recv_exact(sj, count(sj, j))) {
        keys[(sj * r + i) / s] = v;
        i += s;
      }
    }
  });
}

/// Untranspose (step 4): entries are picked up row by row and set down
/// column by column.  Element at (row i, column j) has row-major index
/// m = i*s + j and lands at (row m%r, column m/r).
void untranspose(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto s = static_cast<std::uint64_t>(p.nprocs());
  const auto j = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t r = keys.size();
  // m / r grows with i, so column c sends column d the contiguous rows
  // [lo(c, d), lo(c, d+1)), lo(c, d) being the first i with i*s + c >= d*r.
  const auto lo = [&](std::uint64_t c, std::uint64_t d) {
    return d * r > c ? (d * r - c + s - 1) / s : 0;
  };
  const auto peers = all_peers(s);
  std::vector<std::size_t> sizes(s);
  for (std::uint64_t d = 0; d < s; ++d) sizes[d] = lo(j, d + 1) - lo(j, d);
  p.open_exchange(peers, sizes, peers);
  p.timed(simd::Phase::kPack, [&] {
    for (std::uint64_t d = 0; d < s; ++d) {
      std::copy_n(keys.begin() + static_cast<std::ptrdiff_t>(lo(j, d)), sizes[d],
                  p.send_slot(d).begin());
    }
  });
  p.commit_exchange();
  p.timed(simd::Phase::kUnpack, [&] {
    // From source sj the rows lo(sj, j).. land at rows (i*s + sj) % r.
    for (std::uint64_t sj = 0; sj < s; ++sj) {
      std::uint64_t i = lo(sj, j);
      for (const std::uint32_t v : p.recv_exact(sj, lo(sj, j + 1) - i)) {
        keys[(i * s + sj) % r] = v;
        ++i;
      }
    }
  });
}

}  // namespace

void column_sort(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto s = static_cast<std::uint64_t>(p.nprocs());
  const auto j = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t r = keys.size();
  assert(column_sort_shape_ok(r, s) && "column sort needs r >= 2 (s-1)^2");
  // Each of the eight steps is one structural span: local sorts carry
  // the step number as the arg, the communication steps are kTranspose.
  const auto sort_local = [&](std::span<std::uint32_t> v, std::int32_t step) {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort, step);
    p.timed(simd::Phase::kCompute, [&] { localsort::radix_sort(v, p.scratch()); });
  };

  if (s == 1) {
    sort_local(keys, 1);
    return;
  }
  const std::uint64_t half = r / 2;

  sort_local(keys, 1);  // step 1
  {
    obs::ScopedSpan span(p, obs::SpanKind::kTranspose, 2);
    transpose(p, keys);  // step 2
  }
  sort_local(keys, 3);  // step 3
  {
    obs::ScopedSpan span(p, obs::SpanKind::kTranspose, 4);
    untranspose(p, keys);  // step 4
  }
  sort_local(keys, 5);  // step 5

  // Steps 6-8: shift columns down by half a column (the conceptual extra
  // column is padded with -inf at the global front and +inf at the global
  // back), sort, unshift.  Operationally: processor j's bottom half moves
  // to processor j+1's top; the last processor keeps its bottom half as
  // the overflow column.
  std::vector<std::uint32_t> shifted(r);
  std::vector<std::uint32_t> overflow;
  const auto bottom = keys.subspan(half);
  // Each shift talks to at most one neighbor on each side.
  const std::size_t n_right = j + 1 < s ? 1 : 0;
  const std::size_t n_left = j > 0 ? 1 : 0;
  const std::uint64_t right[1] = {j + 1};
  const std::uint64_t left[1] = {j - 1};
  {
    obs::ScopedSpan span(p, obs::SpanKind::kTranspose, 6);
    // Send the bottom half to the right neighbor; receive from the left.
    const std::size_t size[1] = {bottom.size()};
    p.open_exchange({right, n_right}, {size, n_right}, {left, n_left});
    p.timed(simd::Phase::kPack, [&] {
      if (j + 1 < s) {
        std::copy(bottom.begin(), bottom.end(), p.send_slot(0).begin());
      } else {
        // Last processor: bottom half becomes the overflow column (all
        // its keys are below the conceptual +inf pad).
        overflow.assign(bottom.begin(), bottom.end());
      }
    });
    p.commit_exchange();
    p.timed(simd::Phase::kUnpack, [&] {
      if (j > 0) {
        const auto got = p.recv_exact(0, bottom.size());
        std::copy(got.begin(), got.end(), shifted.begin());
      }
      std::copy(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(half),
                shifted.begin() + static_cast<std::ptrdiff_t>(half));
    });
  }
  // Step 7: sort the shifted columns.  Processor 0's top half is the
  // -inf pad, so only its real bottom half is sorted (in place).
  if (j == 0) {
    sort_local(std::span<std::uint32_t>(shifted.data() + half, r - half), 7);
  } else {
    sort_local(std::span<std::uint32_t>(shifted.data(), r), 7);
  }
  if (!overflow.empty()) {
    obs::ScopedSpan span(p, obs::SpanKind::kLocalSort, 7);
    p.timed(simd::Phase::kCompute,
            [&] { localsort::radix_sort(overflow, p.scratch()); });
  }

  // Step 8: unshift — each processor's top half returns to the left
  // neighbor's bottom; the overflow column returns to the last
  // processor's bottom.
  {
    obs::ScopedSpan span(p, obs::SpanKind::kTranspose, 8);
    const std::size_t size[1] = {half};
    p.open_exchange({left, n_left}, {size, n_left}, {right, n_right});
    p.timed(simd::Phase::kPack, [&] {
      if (j > 0) {
        std::copy(shifted.begin(), shifted.begin() + static_cast<std::ptrdiff_t>(half),
                  p.send_slot(0).begin());
      }
    });
    p.commit_exchange();
    p.timed(simd::Phase::kUnpack, [&] {
      std::copy(shifted.begin() + static_cast<std::ptrdiff_t>(half), shifted.end(),
                keys.begin());
      const auto got =
          j + 1 < s ? p.recv_exact(0, half) : std::span<const std::uint32_t>(overflow);
      std::copy(got.begin(), got.end(), keys.begin() + static_cast<std::ptrdiff_t>(half));
    });
  }
}

}  // namespace bsort::psort
