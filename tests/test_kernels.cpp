// Differential property suite for the vectorized kernel layer
// (src/kernel/): every compiled variant (scalar / sse / avx2) must agree
// with an independent reference implementation on randomized sizes,
// alignments, directions and patterns, and the integrated paths (radix
// sort, network steps, full sorts on the simulated machine) must produce
// identical results whichever variant is forced.  Also covers the
// dispatch rules themselves (BSORT_KERNEL resolution).
//
// These tests run in the ASan configuration as part of the normal ctest
// suite (see .github/workflows/ci.yml), which is what checks the SIMD
// tails and unaligned spans for out-of-bounds access.
#include "kernel/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "bitonic/sorts.hpp"
#include "layout/bit_layout.hpp"
#include "localsort/compare_exchange.hpp"
#include "localsort/radix_sort.hpp"
#include "net/network.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace bsort::kernel {
namespace {

/// Sizes exercising empty, tiny, sub-vector-width, exact-width, and
/// odd/unaligned-tail lengths.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17,
                                  31, 33, 63, 64, 65, 127, 255, 1000};

std::vector<const Kernels*> runnable_variants() {
  std::vector<const Kernels*> out;
  for (const Kernels* k : variants()) {
    if (supported(*k)) out.push_back(k);
  }
  return out;
}

/// Restores automatic dispatch even if a test fails mid-way.
struct ActiveGuard {
  ~ActiveGuard() { set_active_for_testing(nullptr); }
};

TEST(KernelDispatch, ScalarAlwaysPresent) {
  ASSERT_NE(by_name("scalar"), nullptr);
  EXPECT_TRUE(supported(*by_name("scalar")));
  EXPECT_FALSE(runnable_variants().empty());
}

TEST(KernelDispatch, ResolveHonorsOverride) {
  for (const Kernels* k : runnable_variants()) {
    EXPECT_STREQ(resolve(k->name).name, k->name);
  }
}

TEST(KernelDispatch, ResolveFallsBackOnBogusOverride) {
  const Kernels& autod = resolve(nullptr);
  EXPECT_TRUE(supported(autod));
  EXPECT_STREQ(resolve("no-such-kernel").name, autod.name);
  EXPECT_STREQ(resolve("").name, autod.name);
}

TEST(KernelDispatch, AutoPicksStrongestSupported) {
  const Kernels& autod = resolve(nullptr);
  // Auto must never pick scalar while a SIMD variant is supported.
  for (const Kernels* k : runnable_variants()) {
    if (std::string_view(k->name) != "scalar") {
      EXPECT_STRNE(autod.name, "scalar");
    }
  }
}

TEST(KernelDispatch, Avx512OverrideFallsBackWhereUnsupported) {
  // BSORT_KERNEL=avx512 must resolve to the avx512 table exactly when
  // the host can run it, and fall back to auto-detection (not crash,
  // not latch an unrunnable table) everywhere else — the case an
  // AVX2-only CI runner exercises.
  const Kernels* k = by_name("avx512");
#ifdef __x86_64__
  ASSERT_NE(k, nullptr) << "avx512 variant must be compiled on x86-64";
#endif
  const Kernels& resolved = resolve("avx512");
  if (k != nullptr && supported(*k)) {
    EXPECT_STREQ(resolved.name, "avx512");
  } else {
    EXPECT_STREQ(resolved.name, resolve(nullptr).name);
    EXPECT_TRUE(supported(resolved));
  }
}

// ---- per-kernel differential checks ---------------------------------

TEST(KernelDifferential, CmpexBlocks) {
  for (const Kernels* k : runnable_variants()) {
    for (const std::size_t n : kSizes) {
      for (const bool asc : {true, false}) {
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
          auto a = util::generate_keys(n + offset, util::KeyDistribution::kUniform31,
                                       n * 7 + offset);
          auto b = util::generate_keys(n + offset, util::KeyDistribution::kUniform31,
                                       n * 13 + offset + 1);
          auto ea = a, eb = b;
          for (std::size_t i = offset; i < n + offset; ++i) {
            const std::uint32_t lo = std::min(ea[i], eb[i]);
            const std::uint32_t hi = std::max(ea[i], eb[i]);
            ea[i] = asc ? lo : hi;
            eb[i] = asc ? hi : lo;
          }
          k->cmpex_blocks(a.data() + offset, b.data() + offset, n, asc);
          EXPECT_EQ(a, ea) << k->name << " n=" << n << " asc=" << asc
                           << " off=" << offset;
          EXPECT_EQ(b, eb) << k->name << " n=" << n << " asc=" << asc
                           << " off=" << offset;
        }
      }
    }
  }
}

TEST(KernelDifferential, KeepMinMax) {
  for (const Kernels* k : runnable_variants()) {
    for (const std::size_t n : kSizes) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{2}}) {
        auto d = util::generate_keys(n + offset, util::KeyDistribution::kUniform31, n + 2);
        const auto s =
            util::generate_keys(n + offset, util::KeyDistribution::kUniform31, n + 5);
        auto dmin = d, dmax = d;
        for (std::size_t i = offset; i < n + offset; ++i) {
          dmin[i] = std::min(d[i], s[i]);
          dmax[i] = std::max(d[i], s[i]);
        }
        auto got = d;
        k->keep_min(got.data() + offset, s.data() + offset, n);
        EXPECT_EQ(got, dmin) << k->name << " n=" << n;
        got = d;
        k->keep_max(got.data() + offset, s.data() + offset, n);
        EXPECT_EQ(got, dmax) << k->name << " n=" << n;
      }
    }
  }
}

TEST(KernelDifferential, Hist4x8) {
  for (const Kernels* k : runnable_variants()) {
    for (const std::size_t n : kSizes) {
      for (const std::uint32_t xm : {0u, 0xFFFFFFFFu}) {
        const auto keys =
            util::generate_keys(n, util::KeyDistribution::kUniform31, n + 11);
        std::array<std::array<std::size_t, 256>, 4> expect8{};
        for (const std::uint32_t key : keys) {
          const std::uint32_t x = key ^ xm;
          ++expect8[0][x & 0xFFu];
          ++expect8[1][(x >> 8) & 0xFFu];
          ++expect8[2][(x >> 16) & 0xFFu];
          ++expect8[3][x >> 24];
        }
        std::array<std::array<std::size_t, 256>, 4> got8{};
        k->hist4x8(keys.data(), n, xm,
                   reinterpret_cast<std::size_t(*)[256]>(got8.data()));
        EXPECT_EQ(got8, expect8) << k->name << " n=" << n << " xm=" << xm;
      }
    }
  }
}

TEST(KernelDifferential, GatherScatterIdx) {
  util::SplitMix64 rng(99);
  for (const Kernels* k : runnable_variants()) {
    for (const std::size_t n : kSizes) {
      if (n == 0) continue;
      // Index table: a random permutation of [0, n) embedded below a
      // disjoint pattern bit, as mask plans produce.
      std::vector<std::uint32_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0u);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(idx[i - 1], idx[rng.next() % i]);
      }
      std::uint32_t table_span = 1;
      while (table_span < n) table_span <<= 1;
      for (const std::uint32_t pat : {0u, table_span, 3 * table_span}) {
        const auto src = util::generate_keys(4 * table_span,
                                             util::KeyDistribution::kUniform31, n + 17);
        std::vector<std::uint32_t> expect(n);
        for (std::size_t j = 0; j < n; ++j) expect[j] = src[idx[j] | pat];
        std::vector<std::uint32_t> got(n, 0);
        k->gather_idx(got.data(), src.data(), idx.data(), pat, n);
        EXPECT_EQ(got, expect) << k->name << " n=" << n << " pat=" << pat;

        const auto payload =
            util::generate_keys(n, util::KeyDistribution::kUniform31, n + 23);
        std::vector<std::uint32_t> edst(4 * table_span, 0), gdst(4 * table_span, 0);
        for (std::size_t j = 0; j < n; ++j) edst[idx[j] | pat] = payload[j];
        k->scatter_idx(gdst.data(), idx.data(), pat, payload.data(), n);
        EXPECT_EQ(gdst, edst) << k->name << " n=" << n << " pat=" << pat;
      }
    }
  }
}

// Independent reference for cmpex_multistep: one column at a time, one
// pair at a time, direction recomputed per element from first
// principles.
void reference_multistep(std::vector<std::uint32_t>& data, const int* pos,
                         int count, int dir_pos, bool const_ascending) {
  for (int i = 0; i < count; ++i) {
    const std::size_t half = std::size_t{1} << pos[i];
    for (std::size_t l = 0; l < data.size(); ++l) {
      if ((l & half) != 0) continue;
      const bool asc =
          dir_pos >= 0 ? ((l >> dir_pos) & 1) == 0 : const_ascending;
      const std::size_t lp = l | half;
      if ((data[l] > data[lp]) == asc) std::swap(data[l], data[lp]);
    }
  }
}

TEST(KernelDifferential, CmpexMultistep) {
  util::SplitMix64 rng(4242);
  // Power-of-two sizes below, at, and above the 256-element fused tile,
  // including sizes below the 8/16-lane SIMD widths (scalar fallback
  // paths) and sizes where n is not a multiple of the max 256 tile.
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{32}, std::size_t{64},
                              std::size_t{128}, std::size_t{256}, std::size_t{512},
                              std::size_t{8192}}) {
    const int log_n = static_cast<int>(util::ilog2(n));
    const int max_pos = std::min(log_n - 1, kMaxFusedPos);
    for (int round = 0; round < 12; ++round) {
      // Random column sequence: descending runs (the schedule shape),
      // plus fully shuffled orders to pin the in-order contract.
      const int count = 1 + static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                 max_pos + 1));
      std::vector<int> pos(static_cast<std::size_t>(count));
      if (round % 2 == 0) {
        for (int i = 0; i < count; ++i) pos[static_cast<std::size_t>(i)] = max_pos - i >= 0 ? max_pos - i : 0;
      } else {
        for (int i = 0; i < count; ++i) {
          pos[static_cast<std::size_t>(i)] = static_cast<int>(
              rng.next() % static_cast<std::uint64_t>(max_pos + 1));
        }
      }
      // Direction: constant ascending, constant descending, and a
      // direction bit at every position not used as a compare bit —
      // below, inside, and above the tile.
      std::vector<std::pair<int, bool>> dirs = {{-1, true}, {-1, false}};
      for (int d = 0; d < log_n; ++d) {
        if (std::find(pos.begin(), pos.end(), d) == pos.end()) {
          dirs.emplace_back(d, true);
        }
      }
      for (const auto& [dir_pos, asc] : dirs) {
        const auto input = util::generate_keys(
            n, util::KeyDistribution::kUniform31,
            n * 31 + static_cast<std::size_t>(round) * 7 + 1);
        auto expect = input;
        reference_multistep(expect, pos.data(), count, dir_pos, asc);
        for (const Kernels* k : runnable_variants()) {
          auto got = input;
          k->cmpex_multistep(got.data(), n, pos.data(), count, dir_pos, asc);
          ASSERT_EQ(got, expect)
              << k->name << " n=" << n << " count=" << count
              << " dir_pos=" << dir_pos << " asc=" << asc << " round=" << round;
        }
      }
    }
  }
}

TEST(KernelIntegrated, RadixSortEveryVariant) {
  ActiveGuard guard;
  for (const Kernels* k : runnable_variants()) {
    set_active_for_testing(k);
    std::vector<std::uint32_t> scratch;
    // Include sizes around 1 << 16 (scatter-prefetch regime changes).
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{255}, std::size_t{4096},
          std::size_t{65535}, std::size_t{65536}, std::size_t{100000}}) {
      auto keys = util::generate_keys(n, util::KeyDistribution::kUniform31, n + 3);
      auto expect = keys;
      std::sort(expect.begin(), expect.end());
      localsort::radix_sort(std::span<std::uint32_t>(keys.data(), n), scratch);
      EXPECT_EQ(keys, expect) << k->name << " asc n=" << n;

      auto desc = util::generate_keys(n, util::KeyDistribution::kUniform31, n + 7);
      auto edesc = desc;
      std::sort(edesc.begin(), edesc.end(), std::greater<>());
      localsort::radix_sort_descending(std::span<std::uint32_t>(desc.data(), n), scratch);
      EXPECT_EQ(desc, edesc) << k->name << " desc n=" << n;
    }
    // Full 32-bit range (no degenerate top digit) and constant keys
    // (every pass degenerate).
    std::vector<std::uint32_t> wide(70000);
    util::SplitMix64 rng(5);
    for (auto& v : wide) v = static_cast<std::uint32_t>(rng.next());
    auto ewide = wide;
    std::sort(ewide.begin(), ewide.end());
    localsort::radix_sort(std::span<std::uint32_t>(wide.data(), wide.size()), scratch);
    EXPECT_EQ(wide, ewide) << k->name;
    std::vector<std::uint32_t> flat(70000, 42u);
    localsort::radix_sort(std::span<std::uint32_t>(flat.data(), flat.size()), scratch);
    EXPECT_TRUE(std::all_of(flat.begin(), flat.end(), [](auto v) { return v == 42u; }));
  }
}

TEST(KernelIntegrated, NetworkStepsEveryVariant) {
  ActiveGuard guard;
  // Every (stage, step) with a local compare bit on blocked/cyclic
  // layouts must match the reference full-array step — this walks all
  // three direction-hoisting cases of the block-oriented rewrite.
  for (const Kernels* k : runnable_variants()) {
    set_active_for_testing(k);
    for (const auto& lay :
         {layout::BitLayout::blocked(4, 2), layout::BitLayout::cyclic(4, 2)}) {
      const std::uint64_t N = std::uint64_t{1} << lay.log_total();
      auto full = util::generate_keys(N, util::KeyDistribution::kUniform31, N + 29);
      for (int stage = 1; stage <= lay.log_total(); ++stage) {
        for (int step = stage; step >= 1; --step) {
          if (!lay.is_local_bit(step - 1)) {
            net::reference_step(std::span<std::uint32_t>(full.data(), N), stage, step);
            continue;
          }
          std::vector<std::vector<std::uint32_t>> views(
              lay.proc_count(), std::vector<std::uint32_t>(lay.local_size()));
          for (std::uint64_t abs = 0; abs < N; ++abs) {
            views[lay.proc_of(abs)][lay.local_of(abs)] = full[abs];
          }
          for (std::uint64_t pr = 0; pr < views.size(); ++pr) {
            localsort::local_network_step(
                lay, pr, std::span<std::uint32_t>(views[pr].data(), views[pr].size()),
                stage, step);
          }
          net::reference_step(std::span<std::uint32_t>(full.data(), N), stage, step);
          for (std::uint64_t pr = 0; pr < views.size(); ++pr) {
            for (std::uint64_t l = 0; l < views[pr].size(); ++l) {
              ASSERT_EQ(views[pr][l], full[lay.abs_of(pr, l)])
                  << k->name << " stage " << stage << " step " << step;
            }
          }
        }
      }
    }
  }
}

TEST(KernelIntegrated, FullSortsEveryVariant) {
  ActiveGuard guard;
  // The full simulated sorts (remap pack/unpack, fused merges, pairwise
  // exchanges) must sort correctly whichever kernel table is active.
  const std::size_t total = 1 << 10;
  const int P = 8;
  for (const Kernels* k : runnable_variants()) {
    set_active_for_testing(k);
    for (int alg = 0; alg < 4; ++alg) {
      auto keys = util::generate_keys(total, util::KeyDistribution::kUniform31, 77);
      auto expect = keys;
      std::sort(expect.begin(), expect.end());
      testing::run_blocked_spmd(
          keys, P, simd::MessageMode::kLong,
          [alg](simd::Proc& p, std::span<std::uint32_t> s) {
            switch (alg) {
              case 0: bitonic::smart_sort(p, s, {}); break;
              case 1: bitonic::cyclic_blocked_sort(p, s); break;
              case 2: bitonic::blocked_merge_sort(p, s); break;
              default: bitonic::naive_blocked_sort(p, s); break;
            }
          });
      EXPECT_EQ(keys, expect) << k->name << " alg=" << alg;
    }
  }
}

}  // namespace
}  // namespace bsort::kernel
