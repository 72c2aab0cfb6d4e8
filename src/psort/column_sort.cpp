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

/// Transpose (step 2): the matrix entries are picked up column by column
/// and set down row by row.  Element i of column j has column-major index
/// k = j*r + i and lands at (row k/s, column k%s).
void transpose(simd::Proc& p, std::span<std::uint32_t> keys) {
  const auto s = static_cast<std::uint64_t>(p.nprocs());
  const auto j = static_cast<std::uint64_t>(p.rank());
  const std::uint64_t r = keys.size();
  std::vector<std::uint64_t> peers(s);
  std::iota(peers.begin(), peers.end(), 0);
  std::vector<std::vector<std::uint32_t>> payloads(s);
  std::vector<std::uint32_t> self;
  p.timed(simd::Phase::kPack, [&] {
    for (auto& m : payloads) m.reserve(r / s + 1);
    for (std::uint64_t i = 0; i < r; ++i) {
      const std::uint64_t k = j * r + i;
      const std::uint64_t d = k % s;
      if (d == j) {
        self.push_back(keys[i]);
      } else {
        payloads[d].push_back(keys[i]);
      }
    }
  });
  auto received = p.exchange(peers, std::move(payloads), peers);
  received[j] = std::move(self);
  p.timed(simd::Phase::kUnpack, [&] {
    // Elements from source sj land at locals (sj*r + i)/s for the
    // increasing sequence of i with (sj*r + i) % s == me.
    for (std::uint64_t sj = 0; sj < s; ++sj) {
      const auto& msg = received[sj];
      std::uint64_t i = (j + s - (sj * r) % s) % s;  // first i hitting column j
      for (const std::uint32_t v : msg) {
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
  std::vector<std::uint64_t> peers(s);
  std::iota(peers.begin(), peers.end(), 0);
  std::vector<std::vector<std::uint32_t>> payloads(s);
  std::vector<std::uint32_t> self;
  p.timed(simd::Phase::kPack, [&] {
    for (auto& m : payloads) m.reserve(r / s + 1);
    // m = i*s + j increases with i, so each destination's elements are
    // appended in increasing destination-local (m % r) order.
    for (std::uint64_t i = 0; i < r; ++i) {
      const std::uint64_t m = i * s + j;
      const std::uint64_t d = m / r;
      if (d == j) {
        self.push_back(keys[i]);
      } else {
        payloads[d].push_back(keys[i]);
      }
    }
  });
  auto received = p.exchange(peers, std::move(payloads), peers);
  received[j] = std::move(self);
  p.timed(simd::Phase::kUnpack, [&] {
    // From source sj the destination rows are m % r for the increasing i
    // with m = i*s + sj and m / r == me.
    for (std::uint64_t sj = 0; sj < s; ++sj) {
      const auto& msg = received[sj];
      if (msg.empty()) continue;
      // smallest i with i*s + sj in [me*r, (me+1)*r)
      std::uint64_t i = (j * r + s - 1 - sj) / s;
      if (i * s + sj < j * r) ++i;
      for (const std::uint32_t v : msg) {
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
  {
    obs::ScopedSpan span(p, obs::SpanKind::kTranspose, 6);
    std::vector<std::uint32_t> bottom;
    p.timed(simd::Phase::kPack, [&] {
      bottom.assign(keys.begin() + static_cast<std::ptrdiff_t>(half), keys.end());
    });
    if (j + 1 < s) {
      // Send bottom to the right neighbor; receive from the left.
      std::vector<std::uint64_t> send{j + 1};
      std::vector<std::vector<std::uint32_t>> payloads;
      payloads.push_back(std::move(bottom));
      std::vector<std::uint64_t> recv;
      if (j > 0) recv.push_back(j - 1);
      auto got = p.exchange(send, std::move(payloads), recv);
      p.timed(simd::Phase::kUnpack, [&] {
        if (j > 0) {
          std::copy(got[0].begin(), got[0].end(), shifted.begin());
        }
        std::copy(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(half),
                  shifted.begin() + static_cast<std::ptrdiff_t>(half));
      });
    } else {
      // Last processor: bottom half becomes the overflow column (all its
      // keys are below the conceptual +inf pad).
      overflow = std::move(bottom);
      std::vector<std::uint64_t> send;
      std::vector<std::uint64_t> recv{j - 1};
      auto got = p.exchange(send, {}, recv);
      p.timed(simd::Phase::kUnpack, [&] {
        std::copy(got[0].begin(), got[0].end(), shifted.begin());
        std::copy(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(half),
                  shifted.begin() + static_cast<std::ptrdiff_t>(half));
      });
    }
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
    std::vector<std::uint32_t> top;
    p.timed(simd::Phase::kPack, [&] {
      top.assign(shifted.begin(), shifted.begin() + static_cast<std::ptrdiff_t>(half));
    });
    std::vector<std::uint64_t> send;
    std::vector<std::vector<std::uint32_t>> payloads;
    if (j > 0) {
      send.push_back(j - 1);
      payloads.push_back(std::move(top));
    }
    std::vector<std::uint64_t> recv;
    if (j + 1 < s) recv.push_back(j + 1);
    auto got = p.exchange(send, std::move(payloads), recv);
    p.timed(simd::Phase::kUnpack, [&] {
      std::copy(shifted.begin() + static_cast<std::ptrdiff_t>(half), shifted.end(),
                keys.begin());
      if (j + 1 < s) {
        std::copy(got[0].begin(), got[0].end(),
                  keys.begin() + static_cast<std::ptrdiff_t>(half));
      } else {
        std::copy(overflow.begin(), overflow.end(),
                  keys.begin() + static_cast<std::ptrdiff_t>(half));
      }
    });
  }
}

}  // namespace bsort::psort
