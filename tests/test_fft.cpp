#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "loggp/params.hpp"
#include "util/random.hpp"

namespace bsort::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) {
    const double re = static_cast<double>(rng.next() % 2000) / 1000.0 - 1.0;
    const double im = static_cast<double>(rng.next() % 2000) / 1000.0 - 1.0;
    c = Complex(re, im);
  }
  return v;
}

double max_error(std::span<const Complex> a, std::span<const Complex> b) {
  double e = 0;
  for (std::size_t i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

TEST(ReferenceFft, MatchesNaiveDft) {
  for (const std::size_t n : {1u, 2u, 8u, 64u, 256u}) {
    auto sig = random_signal(n, n);
    const auto want = naive_dft(sig);
    reference_fft(sig);
    EXPECT_LT(max_error(sig, want), 1e-8 * static_cast<double>(n) + 1e-9) << "n=" << n;
  }
}

TEST(ReferenceFft, RoundTrip) {
  auto sig = random_signal(1024, 3);
  const auto orig = sig;
  reference_fft(sig);
  reference_fft(sig, /*inverse=*/true);
  for (auto& c : sig) c /= 1024.0;
  EXPECT_LT(max_error(sig, orig), 1e-10);
}

TEST(ReferenceFft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> sig(64, Complex(0, 0));
  sig[0] = Complex(1, 0);
  reference_fft(sig);
  for (const auto& c : sig) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

std::vector<Complex> run_parallel(const std::vector<Complex>& sig, int P, bool inverse,
                                  bool blocked_version) {
  auto data = sig;
  const std::size_t n = data.size() / static_cast<std::size_t>(P);
  simd::Machine machine(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
  machine.run([&](simd::Proc& p) {
    std::span<Complex> slice(data.data() + static_cast<std::size_t>(p.rank()) * n, n);
    if (blocked_version) {
      parallel_fft_blocked(p, slice, inverse);
    } else {
      parallel_fft(p, slice, inverse);
    }
  });
  return data;
}

class ParallelFftTest : public ::testing::TestWithParam<std::pair<std::size_t, int>> {};

TEST_P(ParallelFftTest, MatchesReference) {
  const auto [N, P] = GetParam();
  const auto sig = random_signal(N, N + 1);
  auto want = sig;
  reference_fft(want);
  const auto got = run_parallel(sig, P, false, false);
  EXPECT_LT(max_error(got, want), 1e-9 * static_cast<double>(N));
}

TEST_P(ParallelFftTest, BlockedBaselineMatchesReference) {
  const auto [N, P] = GetParam();
  const auto sig = random_signal(N, N + 2);
  auto want = sig;
  reference_fft(want);
  const auto got = run_parallel(sig, P, false, true);
  EXPECT_LT(max_error(got, want), 1e-9 * static_cast<double>(N));
}

TEST_P(ParallelFftTest, InverseRoundTrip) {
  const auto [N, P] = GetParam();
  const auto sig = random_signal(N, N + 3);
  auto fwd = run_parallel(sig, P, false, false);
  auto back = run_parallel(fwd, P, true, false);
  for (auto& c : back) c /= static_cast<double>(N);
  EXPECT_LT(max_error(back, sig), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelFftTest,
                         ::testing::Values(std::pair<std::size_t, int>{64, 4},
                                           std::pair<std::size_t, int>{256, 8},
                                           std::pair<std::size_t, int>{1024, 16},
                                           std::pair<std::size_t, int>{4096, 4},
                                           std::pair<std::size_t, int>{16, 4},
                                           std::pair<std::size_t, int>{4, 2},
                                           std::pair<std::size_t, int>{1024, 1}),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param.first) + "_P" +
                                  std::to_string(info.param.second);
                         });

TEST(ParallelFft, RemapVersionCommunicatesLessThanBlocked) {
  const std::size_t N = 1u << 12;
  const int P = 8;
  const auto sig = random_signal(N, 5);
  const std::size_t n = N / static_cast<std::size_t>(P);
  const auto run = [&](bool blocked_version) {
    auto data = sig;
    simd::Machine machine(P, loggp::meiko_cs2(), simd::MessageMode::kLong);
    return machine.run([&](simd::Proc& p) {
      std::span<Complex> slice(data.data() + static_cast<std::size_t>(p.rank()) * n, n);
      if (blocked_version) {
        parallel_fft_blocked(p, slice);
      } else {
        parallel_fft(p, slice);
      }
    });
  };
  const auto remap = run(false);
  const auto blocked = run(true);
  // The remap version uses 3 communication phases regardless of P; the
  // blocked version needs 1 + lg P.
  EXPECT_EQ(remap.total_comm().exchanges, 3u);
  EXPECT_EQ(blocked.total_comm().exchanges, 1u + 3u);  // lg 8 = 3
  EXPECT_LT(remap.total_comm().elements_sent, blocked.total_comm().elements_sent);
  // Per VP, in 32-bit words (4 per complex): each all-to-all remap sends
  // the (P-1)/P of the slice bound for other processors in P - 1
  // messages; each blocked remote stage sends the whole slice in one.
  const std::uint64_t words = n * 4;
  const std::uint64_t remap_v = words - words / P;
  for (int r = 0; r < P; ++r) {
    const auto& rc = remap.proc_comm[static_cast<std::size_t>(r)];
    EXPECT_EQ(rc.elements_sent, 3 * remap_v) << "vp " << r;
    EXPECT_EQ(rc.messages_sent, 3u * (P - 1)) << "vp " << r;
    const auto& bc = blocked.proc_comm[static_cast<std::size_t>(r)];
    EXPECT_EQ(bc.elements_sent, remap_v + 3 * words) << "vp " << r;
    EXPECT_EQ(bc.messages_sent, (P - 1) + 3u) << "vp " << r;
  }
}

TEST(ParallelFft, ParsevalHolds) {
  const std::size_t N = 1u << 10;
  const auto sig = random_signal(N, 9);
  const auto spec = run_parallel(sig, 8, false, false);
  double time_energy = 0, freq_energy = 0;
  for (const auto& c : sig) time_energy += std::norm(c);
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(N),
              1e-6 * time_energy * static_cast<double>(N));
}

}  // namespace
}  // namespace bsort::fft
