// Internal declarations shared by the per-architecture kernel TUs and
// the dispatch table assembly.  kernel_sse.cpp / kernel_avx2.cpp /
// kernel_avx512.cpp are compiled with -msse4.1 / -mavx2 /
// -mavx512{f,bw} (see src/CMakeLists.txt); their functions must only
// be reached through dispatch after the CPUID check in
// kernel::supported().
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define BSORT_KERNEL_X86 1
#endif

namespace bsort::kernel::detail {

// ---- scalar (always compiled) ---------------------------------------
void scalar_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                         bool ascending);
void scalar_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void scalar_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void scalar_hist4x8(const std::uint32_t* keys, std::size_t n, std::uint32_t xor_mask,
                    std::size_t hist[4][256]);
void scalar_gather_idx(std::uint32_t* dst, const std::uint32_t* src,
                       const std::uint32_t* idx, std::uint32_t pat, std::size_t n);
void scalar_scatter_idx(std::uint32_t* dst, const std::uint32_t* idx,
                        std::uint32_t pat, const std::uint32_t* src, std::size_t n);
void scalar_cmpex_multistep(std::uint32_t* data, std::size_t n, const int* pos,
                            int count, int dir_pos, bool const_ascending);

#ifdef BSORT_KERNEL_X86
// ---- SSE4.1 ----------------------------------------------------------
void sse_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                      bool ascending);
void sse_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void sse_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);

// ---- AVX2 ------------------------------------------------------------
void avx2_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                       bool ascending);
void avx2_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void avx2_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void avx2_gather_idx(std::uint32_t* dst, const std::uint32_t* src,
                     const std::uint32_t* idx, std::uint32_t pat, std::size_t n);
void avx2_cmpex_multistep(std::uint32_t* data, std::size_t n, const int* pos,
                          int count, int dir_pos, bool const_ascending);

// ---- AVX-512 (F + BW) -----------------------------------------------
void avx512_cmpex_blocks(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                         bool ascending);
void avx512_keep_min(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void avx512_keep_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
void avx512_gather_idx(std::uint32_t* dst, const std::uint32_t* src,
                       const std::uint32_t* idx, std::uint32_t pat, std::size_t n);
void avx512_scatter_idx(std::uint32_t* dst, const std::uint32_t* idx,
                        std::uint32_t pat, const std::uint32_t* src, std::size_t n);
void avx512_cmpex_multistep(std::uint32_t* data, std::size_t n, const int* pos,
                            int count, int dir_pos, bool const_ascending);
#endif  // BSORT_KERNEL_X86

}  // namespace bsort::kernel::detail
