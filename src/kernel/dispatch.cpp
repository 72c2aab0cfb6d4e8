// Kernel table assembly and CPUID-based runtime dispatch.
//
// The tables are plain static data; resolution runs once (first call to
// active()) and latches an atomic pointer.  BSORT_KERNEL=scalar|sse|
// avx2|avx512 overrides auto-detection when the named variant is
// compiled in and the host supports it; anything else falls back to the
// best supported variant with a once-per-process stderr note so a typo
// in a test harness cannot silently change what is being measured.
#include "kernel/kernel.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "kernel/kernel_internal.hpp"

namespace bsort::kernel {

namespace {

using namespace detail;

constexpr Kernels kScalar = {
    "scalar",       scalar_cmpex_blocks, scalar_keep_min,    scalar_keep_max,
    scalar_hist4x8, scalar_gather_idx,   scalar_scatter_idx, scalar_cmpex_multistep,
};

#ifdef BSORT_KERNEL_X86
// The radix histogram is scalar in every table: it is the measured
// winner on every tier (the AVX-512 conflict-detection form it replaced
// was 2-3x slower at 2^17 keys, EXPERIMENTS.md).  Scatter stays scalar
// below AVX-512, which adds hardware scatter.  The SSE fused multi-step
// entry is scalar too — its tile blocking already captures the cache
// win, and 4-wide shuffles buy nothing over the branchless scalar loop.
constexpr Kernels kSse = {
    "sse",          sse_cmpex_blocks,  sse_keep_min,       sse_keep_max,
    scalar_hist4x8, scalar_gather_idx, scalar_scatter_idx, scalar_cmpex_multistep,
};

constexpr Kernels kAvx2 = {
    "avx2",         avx2_cmpex_blocks, avx2_keep_min,      avx2_keep_max,
    scalar_hist4x8, avx2_gather_idx,   scalar_scatter_idx, avx2_cmpex_multistep,
};

constexpr Kernels kAvx512 = {
    "avx512",       avx512_cmpex_blocks, avx512_keep_min,    avx512_keep_max,
    scalar_hist4x8, avx512_gather_idx,   avx512_scatter_idx, avx512_cmpex_multistep,
};

constexpr const Kernels* kVariants[] = {&kScalar, &kSse, &kAvx2, &kAvx512};
#else
constexpr const Kernels* kVariants[] = {&kScalar};
#endif

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

std::span<const Kernels* const> variants() { return kVariants; }

const Kernels* by_name(std::string_view name) {
  for (const Kernels* k : kVariants) {
    if (name == k->name) return k;
  }
  return nullptr;
}

bool supported(const Kernels& k) {
  const std::string_view name = k.name;
  if (name == "scalar") return true;
#ifdef BSORT_KERNEL_X86
  if (name == "sse") return __builtin_cpu_supports("sse4.1") != 0;
  if (name == "avx2") return __builtin_cpu_supports("avx2") != 0;
  if (name == "avx512") {
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0;
  }
#endif
  return false;
}

const Kernels& resolve(const char* override_name) {
  if (override_name != nullptr && *override_name != '\0') {
    if (const Kernels* k = by_name(override_name); k != nullptr && supported(*k)) {
      return *k;
    }
    // Warn once per process: resolve() is re-entered by tests and by
    // every set_active_for_testing(nullptr) reset, and a warning per
    // call would swamp stderr without saying anything new.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "bsort: BSORT_KERNEL=%s is unknown or unsupported on this host; "
                   "falling back to auto dispatch\n",
                   override_name);
    }
  }
  const Kernels* best = &kScalar;
  for (const Kernels* k : kVariants) {
    if (supported(*k)) best = k;  // kVariants is ordered weakest-to-strongest
  }
  return *best;
}

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = &resolve(std::getenv("BSORT_KERNEL"));
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void set_active_for_testing(const Kernels* k) {
  g_active.store(k, std::memory_order_release);
}

}  // namespace bsort::kernel
