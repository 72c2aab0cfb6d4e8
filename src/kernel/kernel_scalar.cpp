// Portable scalar kernels: the always-available dispatch fallback and
// the ground truth the differential suite (tests/test_kernels.cpp)
// validates the SIMD variants against.  The compare-exchange loops are
// branchless (min/max, not compare-and-swap) so random data does not
// pay a mispredict per key even without SIMD.
#include <algorithm>

#include "kernel/kernel_internal.hpp"

namespace bsort::kernel::detail {

void scalar_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                         bool ascending) {
  if (ascending) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t x = a[i], y = b[i];
      a[i] = std::min(x, y);
      b[i] = std::max(x, y);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t x = a[i], y = b[i];
      a[i] = std::max(x, y);
      b[i] = std::min(x, y);
    }
  }
}

void scalar_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
}

void scalar_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
}

void scalar_hist4x8(const std::uint32_t* keys, std::size_t n, std::uint32_t xor_mask,
                    std::size_t hist[4][256]) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = keys[i] ^ xor_mask;
    ++hist[0][k & 0xFFu];
    ++hist[1][(k >> 8) & 0xFFu];
    ++hist[2][(k >> 16) & 0xFFu];
    ++hist[3][k >> 24];
  }
}

void scalar_gather_idx(std::uint32_t* dst, const std::uint32_t* src,
                       const std::uint32_t* idx, std::uint32_t pat, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = src[idx[j] | pat];
}

void scalar_scatter_idx(std::uint32_t* dst, const std::uint32_t* idx,
                        std::uint32_t pat, const std::uint32_t* src, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[idx[j] | pat] = src[j];
}

// Tile-blocked even in the scalar variant: each tile of
// 2^(max pos + 1) elements stays L1-hot across all `count` columns, so
// the array leaves cache once instead of once per column.  Per column
// the loop is the same branchless min/max as scalar_cmpex_blocks.
void scalar_cmpex_multistep(std::uint32_t* data, std::size_t n, const int* pos,
                            int count, int dir_pos, bool const_ascending) {
  if (count <= 0 || n == 0) return;
  int max_pos = pos[0];
  for (int i = 1; i < count; ++i) max_pos = std::max(max_pos, pos[i]);
  const std::size_t tile = std::size_t{2} << max_pos;
  const std::uint64_t dbit =
      dir_pos >= 0 ? std::uint64_t{1} << dir_pos : 0;
  for (std::size_t base = 0; base < n; base += tile) {
    for (int i = 0; i < count; ++i) {
      const std::size_t half = std::size_t{1} << pos[i];
      for (std::size_t off = 0; off < tile; ++off) {
        if ((off & half) != 0) continue;
        const std::size_t lo = base + off, hi = lo + half;
        const bool ascending =
            dbit != 0 ? (lo & dbit) == 0 : const_ascending;
        const std::uint32_t x = data[lo], y = data[hi];
        data[lo] = ascending ? std::min(x, y) : std::max(x, y);
        data[hi] = ascending ? std::max(x, y) : std::min(x, y);
      }
    }
  }
}

}  // namespace bsort::kernel::detail
