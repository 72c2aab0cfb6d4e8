// Vectorized local-compute kernel layer with runtime dispatch.
//
// The simulator's hot local phases — compare-exchange network steps,
// the min/max halves of pairwise block exchanges, radix-sort digit
// histograms, and the remap pack/unpack gathers — all reduce to a small
// set of flat array kernels.  This module provides one `Kernels` table
// of function pointers per instruction-set variant:
//
//   * "scalar" — portable branchless C++ (always available, and the
//     ground truth the differential tests compare against),
//   * "sse"    — 4-wide SSE4.1 min/max paths,
//   * "avx2"   — 8-wide AVX2 min/max plus hardware gathers,
//   * "avx512" — 16-wide masked min/max, hardware gather/scatter, and a
//     register-blocked fused multi-step compare-exchange (requires
//     AVX-512 F+BW).
//
// The active table is selected ONCE, at first use, by CPUID-based
// runtime dispatch (best supported variant wins).  The environment
// variable BSORT_KERNEL=scalar|sse|avx2|avx512 overrides the choice
// for testing; an override naming an unsupported or unknown variant
// falls back to auto-detection with a once-per-process stderr warning.
// Callers grab `kernel::active()` (a cheap atomic pointer load) and
// invoke through the table; no per-call CPUID.
//
// Each entry holds the variant measured fastest on its tier, which is
// not always the widest ISA: every table shares the scalar radix
// histogram (an AVX-512 conflict-detection histogram measured 2-3x
// slower and was removed), and scatter stays scalar below AVX-512.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bsort::kernel {

struct Kernels {
  const char* name;

  /// Pairwise compare-exchange of two equal-length blocks: when
  /// `ascending`, a[i] receives min(a[i], b[i]) and b[i] the max;
  /// directions are flipped otherwise.  The blocks must not overlap.
  void (*cmpex_blocks)(std::uint32_t* a, std::uint32_t* b, std::size_t n,
                       bool ascending);

  /// dst[i] = min(dst[i], src[i]) — the "keep the minimum half" side of
  /// a pairwise whole-block exchange.
  void (*keep_min)(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
  /// dst[i] = max(dst[i], src[i]).
  void (*keep_max)(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);

  /// Fused radix histograms: ONE sweep of the keys filling all four
  /// 8-bit-digit histograms of (key ^ xor_mask).  xor_mask = ~0u folds
  /// the descending-order complement into the digit extraction; 0 sorts
  /// ascending.  `hist` must be zeroed by the caller.
  void (*hist4x8)(const std::uint32_t* keys, std::size_t n, std::uint32_t xor_mask,
                  std::size_t hist[4][256]);

  /// Pack gather: dst[j] = src[idx[j] | pat] for j in [0, n).
  void (*gather_idx)(std::uint32_t* dst, const std::uint32_t* src,
                     const std::uint32_t* idx, std::uint32_t pat, std::size_t n);

  /// Unpack scatter: dst[idx[j] | pat] = src[j] for j in [0, n).
  void (*scatter_idx)(std::uint32_t* dst, const std::uint32_t* idx,
                      std::uint32_t pat, const std::uint32_t* src, std::size_t n);

  /// Fused multi-step compare-exchange: execute `count` bitonic network
  /// columns IN ORDER over `data` in one sweep.  Column i
  /// compare-exchanges element l with element l | (1 << pos[i]); the
  /// merge direction of element l is `const_ascending` when dir_pos < 0,
  /// else ascending iff bit dir_pos of l is clear (dir_pos never equals
  /// any pos[i] — the direction bit of a stage is above every compare
  /// bit of that stage's steps).  Contract: n is a power of two,
  /// every pos[i] <= kMaxFusedPos, and n > (1 << pos[i]) for all i.
  /// SIMD variants load each tile of 2^(max pos + 1) elements once, run
  /// all `count` columns register/L1-blocked, and store once — turning
  /// `count` memory sweeps into one.
  void (*cmpex_multistep)(std::uint32_t* data, std::size_t n, const int* pos,
                          int count, int dir_pos, bool const_ascending);
};

/// Largest compare-bit position cmpex_multistep accepts: tiles are
/// 2^(kMaxFusedPos+1) elements (1 KB) at most, sized to stay resident
/// in registers + L1 across every fused column.  Callers run columns
/// with larger strides one at a time (those are long contiguous
/// streaming passes already) and fuse the rest.
inline constexpr int kMaxFusedPos = 7;

/// Every variant compiled into this binary, scalar first.  Presence in
/// this list does not imply the host CPU can run it — check supported().
std::span<const Kernels* const> variants();

/// Variant by name ("scalar", "sse", "avx2", "avx512"); nullptr if
/// unknown or not compiled for this architecture.
const Kernels* by_name(std::string_view name);

/// True iff the host CPU can execute this variant.
bool supported(const Kernels& k);

/// Dispatch resolution: honor `override_name` (may be nullptr/empty) if
/// it names a supported variant, else pick the best supported one.
/// Exposed for tests; normal callers use active().
const Kernels& resolve(const char* override_name);

/// The active table: resolved once from BSORT_KERNEL / CPUID on first
/// use, then a single atomic load per call.
const Kernels& active();

/// Force the active table (testing hook; nullptr restores automatic
/// dispatch on next active() call).  Not thread-safe against concurrent
/// sorts — call between Machine runs only.
void set_active_for_testing(const Kernels* k);

}  // namespace bsort::kernel
