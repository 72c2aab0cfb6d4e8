// AVX-512 kernels (16-wide masked min/max, hardware gather/scatter,
// register-blocked fused multi-step compare-exchange).  This TU is
// compiled with -mavx512f -mavx512bw (see src/CMakeLists.txt) and gated
// at runtime on __builtin_cpu_supports("avx512f"/"avx512bw"); nothing
// here may be called on a host without those features.
//
// The masked forms replace the scalar tails of the narrower variants:
// a length-masked load/store pair handles any remainder in the same
// vector code path.
#include "kernel/kernel_internal.hpp"

#ifdef BSORT_KERNEL_X86

#include <immintrin.h>

#include <algorithm>

namespace bsort::kernel::detail {

namespace {

/// Mask selecting the first `r` of 16 lanes (r <= 16).
inline __mmask16 lane_mask(std::size_t r) {
  return static_cast<__mmask16>((1u << r) - 1u);
}

}  // namespace

void avx512_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                         bool ascending) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i vmin = _mm512_min_epu32(va, vb);
    const __m512i vmax = _mm512_max_epu32(va, vb);
    _mm512_storeu_si512(a + i, ascending ? vmin : vmax);
    _mm512_storeu_si512(b + i, ascending ? vmax : vmin);
  }
  if (i < n) {
    const __mmask16 m = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi32(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi32(m, b + i);
    const __m512i vmin = _mm512_min_epu32(va, vb);
    const __m512i vmax = _mm512_max_epu32(va, vb);
    _mm512_mask_storeu_epi32(a + i, m, ascending ? vmin : vmax);
    _mm512_mask_storeu_epi32(b + i, m, ascending ? vmax : vmin);
  }
}

void avx512_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vs = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_min_epu32(vd, vs));
  }
  if (i < n) {
    const __mmask16 m = lane_mask(n - i);
    const __m512i vd = _mm512_maskz_loadu_epi32(m, dst + i);
    const __m512i vs = _mm512_maskz_loadu_epi32(m, src + i);
    _mm512_mask_storeu_epi32(dst + i, m, _mm512_min_epu32(vd, vs));
  }
}

void avx512_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vs = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_max_epu32(vd, vs));
  }
  if (i < n) {
    const __mmask16 m = lane_mask(n - i);
    const __m512i vd = _mm512_maskz_loadu_epi32(m, dst + i);
    const __m512i vs = _mm512_maskz_loadu_epi32(m, src + i);
    _mm512_mask_storeu_epi32(dst + i, m, _mm512_max_epu32(vd, vs));
  }
}

void avx512_gather_idx(std::uint32_t* dst, const std::uint32_t* src,
                       const std::uint32_t* idx, std::uint32_t pat, std::size_t n) {
  const __m512i vpat = _mm512_set1_epi32(static_cast<int>(pat));
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512i vi = _mm512_or_si512(_mm512_loadu_si512(idx + j), vpat);
    _mm512_storeu_si512(dst + j, _mm512_i32gather_epi32(vi, src, 4));
  }
  if (j < n) {
    const __mmask16 m = lane_mask(n - j);
    const __m512i vi =
        _mm512_or_si512(_mm512_maskz_loadu_epi32(m, idx + j), vpat);
    const __m512i v =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, vi, src, 4);
    _mm512_mask_storeu_epi32(dst + j, m, v);
  }
}

void avx512_scatter_idx(std::uint32_t* dst, const std::uint32_t* idx,
                        std::uint32_t pat, const std::uint32_t* src, std::size_t n) {
  // Duplicate indices resolve highest-lane-wins in VPSCATTERDD, the
  // same as the scalar loop's last-write-wins order.
  const __m512i vpat = _mm512_set1_epi32(static_cast<int>(pat));
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512i vi = _mm512_or_si512(_mm512_loadu_si512(idx + j), vpat);
    _mm512_i32scatter_epi32(dst, vi, _mm512_loadu_si512(src + j), 4);
  }
  if (j < n) {
    const __mmask16 m = lane_mask(n - j);
    const __m512i vi =
        _mm512_or_si512(_mm512_maskz_loadu_epi32(m, idx + j), vpat);
    _mm512_mask_i32scatter_epi32(dst, m, vi, _mm512_maskz_loadu_epi32(m, src + j), 4);
  }
}

namespace {

/// Mask of the "upper" lanes of each compare pair at an in-register
/// stride 2^pos (pos < 4): lane j is upper iff bit pos of j is set.
constexpr __mmask16 kUpper16[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

/// Ascending mask for the 16 elements starting at global index `base`.
inline __mmask16 asc_mask16(std::size_t base, int dir_pos, bool const_ascending,
                            __mmask16 dir_pattern) {
  if (dir_pos < 0) return const_ascending ? __mmask16{0xFFFF} : __mmask16{0};
  if (dir_pos < 4) return dir_pattern;  // varies within the chunk, fixed pattern
  return ((base >> dir_pos) & 1) == 0 ? __mmask16{0xFFFF} : __mmask16{0};
}

}  // namespace

// Fused multi-step compare-exchange (see kernel.hpp).  Tiles of
// 2^(max pos + 1) <= 256 elements (16 cache lines) stay L1-hot across
// every fused column; maximal runs of columns with stride < 16 map to
// in-register VPERMD butterflies applied between ONE load and ONE
// store per 16-lane chunk — the register-blocking trick that turns
// `count` memory sweeps into one.
void avx512_cmpex_multistep(std::uint32_t* data, std::size_t n, const int* pos,
                            int count, int dir_pos, bool const_ascending) {
  if (count <= 0 || n == 0) return;
  if (n < 16) {
    scalar_cmpex_multistep(data, n, pos, count, dir_pos, const_ascending);
    return;
  }
  int max_pos = pos[0];
  for (int i = 1; i < count; ++i) max_pos = std::max(max_pos, pos[i]);
  const std::size_t tile = std::min<std::size_t>(
      n, std::max<std::size_t>(std::size_t{2} << max_pos, 256));

  // Direction pattern when the direction bit lives inside a chunk
  // (dir_pos < 4): lane j ascending iff bit dir_pos of j is clear.
  __mmask16 dir_pattern = 0;
  if (dir_pos >= 0 && dir_pos < 4) {
    for (int j = 0; j < 16; ++j) {
      if (((j >> dir_pos) & 1) == 0) dir_pattern |= static_cast<__mmask16>(1u << j);
    }
  }
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

  for (std::size_t base = 0; base < n; base += tile) {
    int i = 0;
    while (i < count) {
      if (pos[i] >= 4) {
        // Cross-chunk column: one pass of 16-lane pair blocks over the
        // tile (every load is an L1 hit after the first column).
        const std::size_t half = std::size_t{1} << pos[i];
        for (std::size_t off = 0; off < tile; off += 16) {
          if ((off & half) != 0) continue;
          std::uint32_t* lo = data + base + off;
          std::uint32_t* hi = lo + half;
          const __m512i va = _mm512_loadu_si512(lo);
          const __m512i vb = _mm512_loadu_si512(hi);
          const __m512i vmin = _mm512_min_epu32(va, vb);
          const __m512i vmax = _mm512_max_epu32(va, vb);
          const __mmask16 asc =
              asc_mask16(base + off, dir_pos, const_ascending, dir_pattern);
          _mm512_storeu_si512(lo, _mm512_mask_blend_epi32(asc, vmax, vmin));
          _mm512_storeu_si512(hi, _mm512_mask_blend_epi32(asc, vmin, vmax));
        }
        ++i;
      } else {
        // Maximal run of in-register columns (strides 8, 4, 2, 1):
        // load once, butterfly in registers, store once.
        int j = i;
        while (j < count && pos[j] < 4) ++j;
        for (std::size_t off = 0; off < tile; off += 16) {
          __m512i v = _mm512_loadu_si512(data + base + off);
          const __mmask16 asc =
              asc_mask16(base + off, dir_pos, const_ascending, dir_pattern);
          for (int s = i; s < j; ++s) {
            const __m512i perm =
                _mm512_xor_si512(iota, _mm512_set1_epi32(1 << pos[s]));
            const __m512i p = _mm512_permutexvar_epi32(perm, v);
            const __m512i vmin = _mm512_min_epu32(v, p);
            const __m512i vmax = _mm512_max_epu32(v, p);
            // Take the max on upper-of-ascending and lower-of-descending
            // lanes: upper XNOR ascending.
            const __mmask16 take_max =
                static_cast<__mmask16>(~(kUpper16[pos[s]] ^ asc));
            v = _mm512_mask_blend_epi32(take_max, vmin, vmax);
          }
          _mm512_storeu_si512(data + base + off, v);
        }
        i = j;
      }
    }
  }
}

}  // namespace bsort::kernel::detail

#endif  // BSORT_KERNEL_X86
