#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "localsort/bitonic_merge.hpp"
#include "localsort/pway_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "net/network.hpp"
#include "util/random.hpp"

namespace bsort::localsort {
namespace {

TEST(RadixSort, MatchesStdSort) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 256u, 1000u, 65536u}) {
    auto keys = util::generate_keys(n, util::KeyDistribution::kUniform31, n + 1);
    auto expected = keys;
    std::sort(expected.begin(), expected.end());
    radix_sort(keys);
    EXPECT_EQ(keys, expected) << "n=" << n;
  }
}

TEST(RadixSort, FullRangeKeys) {
  // Keys using all 32 bits (beyond the thesis' 31-bit range).
  std::vector<std::uint32_t> keys = {0xFFFFFFFFu, 0, 0x80000000u, 1, 0x7FFFFFFFu};
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  radix_sort(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, Descending) {
  auto keys = util::generate_keys(1000, util::KeyDistribution::kUniform31, 42);
  auto expected = keys;
  std::sort(expected.begin(), expected.end(), std::greater<>());
  std::vector<std::uint32_t> scratch;
  radix_sort_descending(keys, scratch);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, Duplicates) {
  auto keys = util::generate_keys(4096, util::KeyDistribution::kLowEntropy, 9);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  radix_sort(keys);
  EXPECT_EQ(keys, expected);
}

class BitonicMergeSortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitonicMergeSortTest, SortsEveryRotation) {
  const std::size_t n = GetParam();
  // Build a rise-fall sequence and test every rotation of it.
  std::vector<std::uint32_t> base(n);
  for (std::size_t i = 0; i < n / 2; ++i) base[i] = static_cast<std::uint32_t>(2 * i);
  for (std::size_t i = n / 2; i < n; ++i) {
    base[i] = static_cast<std::uint32_t>(2 * (n - i) - 1);
  }
  auto expected = base;
  std::sort(expected.begin(), expected.end());
  for (std::size_t rot = 0; rot < n; ++rot) {
    std::vector<std::uint32_t> v(n), out(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = base[(i + rot) % n];
    bitonic_merge_sort(v, out);
    EXPECT_EQ(out, expected) << "rot=" << rot;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicMergeSortTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 31, 64, 100));

TEST(BitonicMergeSort, WithDuplicates) {
  std::vector<std::uint32_t> v = {3, 3, 5, 9, 9, 9, 7, 4, 3, 3};
  std::vector<std::uint32_t> out(v.size());
  bitonic_merge_sort(v, out);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST(BitonicMergeSort, OutputsOfReferenceStagesAreSortable) {
  // Take bitonic sequences produced by the real network mid-run and check
  // the merge sort handles them (integration with Lemma 7 structure).
  const std::size_t N = 512;
  auto data = util::generate_keys(N, util::KeyDistribution::kUniform31, 77);
  for (int stage = 1; stage <= 9; ++stage) {
    // At the start of `stage`, blocks of 2^stage are bitonic.
    const std::size_t block = std::size_t{1} << stage;
    for (std::size_t base = 0; base < N; base += block) {
      std::vector<std::uint32_t> v(data.begin() + static_cast<std::ptrdiff_t>(base),
                                   data.begin() + static_cast<std::ptrdiff_t>(base + block));
      std::vector<std::uint32_t> out(block);
      bitonic_merge_sort(v, out);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    }
    net::reference_stage(std::span<std::uint32_t>(data.data(), N), stage);
  }
}

TEST(PwayMerge, MixedDirections) {
  std::vector<std::uint32_t> a = {1, 4, 7};
  std::vector<std::uint32_t> b = {9, 6, 2};  // descending
  std::vector<std::uint32_t> c = {3, 5, 8};
  const localsort::Run runs[] = {{a, true}, {b, false}, {c, true}};
  std::vector<std::uint32_t> out(9);
  pway_merge(runs, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(PwayMerge, EmptyAndSingleRuns) {
  std::vector<std::uint32_t> a = {5, 3, 1};  // descending
  std::vector<std::uint32_t> empty;
  const localsort::Run runs[] = {{a, false}, {empty, true}};
  std::vector<std::uint32_t> out(3);
  pway_merge(runs, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(PwayMerge, ManyRunsRandom) {
  util::SplitMix64 rng(5);
  std::vector<std::vector<std::uint32_t>> data(16);
  std::vector<localsort::Run> runs;
  std::size_t total = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t len = rng.next() % 50;
    data[i].resize(len);
    for (auto& v : data[i]) v = static_cast<std::uint32_t>(rng.next() & 0xFFFF);
    const bool asc = (i % 2) == 0;
    if (asc) {
      std::sort(data[i].begin(), data[i].end());
    } else {
      std::sort(data[i].begin(), data[i].end(), std::greater<>());
    }
    runs.push_back({data[i], asc});
    total += len;
  }
  std::vector<std::uint32_t> out(total);
  pway_merge(runs, out);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  // Same multiset.
  std::vector<std::uint32_t> all;
  for (const auto& d : data) all.insert(all.end(), d.begin(), d.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
}


/// Runs built from `make(run, len, rng)`, lengths from `len_of(run)`,
/// directions alternating in a pattern that is not a power of two, merged
/// through the scratch overload (reused across calls) and checked
/// against std::sort of the concatenation.
template <typename Len, typename Make>
void check_merge(std::size_t nruns, Len len_of, Make make, std::vector<std::uint32_t>& scratch) {
  util::SplitMix64 rng(nruns * 7919 + 1);
  std::vector<std::vector<std::uint32_t>> data(nruns);
  std::vector<Run> runs;
  std::vector<std::uint32_t> want;
  for (std::size_t i = 0; i < nruns; ++i) {
    const std::size_t len = len_of(i);
    for (std::size_t k = 0; k < len; ++k) data[i].push_back(make(i, rng));
    const bool asc = (i % 3) != 1;
    if (asc) {
      std::sort(data[i].begin(), data[i].end());
    } else {
      std::sort(data[i].begin(), data[i].end(), std::greater<>());
    }
    runs.push_back({data[i], asc});
    want.insert(want.end(), data[i].begin(), data[i].end());
  }
  std::sort(want.begin(), want.end());
  std::vector<std::uint32_t> out(want.size(), 0xDEADBEEFu);
  pway_merge(runs, out, scratch);
  EXPECT_EQ(out, want) << nruns << " runs";
}

TEST(PwayMerge, EveryRunCountUpToSeventeenMatchesStdSort) {
  // 0-17 runs cover every odd/even split of the merge tree, with lengths
  // 0, 1 and uneven sizes mixed in.
  std::vector<std::uint32_t> scratch;
  for (std::size_t nruns = 0; nruns <= 17; ++nruns) {
    check_merge(
        nruns, [](std::size_t i) { return (i * 37) % 5 == 0 ? i % 2 : (i * 131) % 97 + 2; },
        [](std::size_t, util::SplitMix64& rng) { return static_cast<std::uint32_t>(rng.next()); },
        scratch);
  }
}

TEST(PwayMerge, HeavyDuplicatesMatchStdSort) {
  std::vector<std::uint32_t> scratch;
  for (const std::size_t nruns : {2u, 3u, 5u, 8u, 13u}) {
    check_merge(
        nruns, [](std::size_t i) { return 50 + i * 11; },
        [](std::size_t, util::SplitMix64& rng) { return static_cast<std::uint32_t>(rng.next() % 3); },
        scratch);
  }
}

TEST(PwayMerge, RunsOfTheServicePadKeyMatchStdSort) {
  // UINT32_MAX is the service's pad key: a merge that used it as a
  // sentinel would stop early or drop keys.
  std::vector<std::uint32_t> scratch;
  for (const std::size_t nruns : {1u, 2u, 3u, 4u, 7u, 16u}) {
    check_merge(
        nruns, [](std::size_t i) { return 1 + i * 9; },
        [](std::size_t run, util::SplitMix64& rng) {
          return run % 2 == 0 ? UINT32_MAX
                              : (rng.next() % 4 == 0 ? UINT32_MAX
                                                     : static_cast<std::uint32_t>(rng.next()));
        },
        scratch);
  }
}

}  // namespace
}  // namespace bsort::localsort
