// Final coverage sweeps: short-message mode for every algorithm,
// alternative machine parameter sets, and miscellaneous API surface.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/parallel_sort.hpp"
#include "loggp/choose.hpp"
#include "simd/machine.hpp"
#include "util/random.hpp"

namespace bsort {
namespace {

class ShortModeSweep : public ::testing::TestWithParam<api::Algorithm> {};

TEST_P(ShortModeSweep, SortsWithShortMessages) {
  api::Config cfg;
  cfg.nprocs = 4;
  cfg.mode = simd::MessageMode::kShort;
  cfg.algorithm = GetParam();
  auto keys = util::generate_keys(1u << 10, util::KeyDistribution::kUniform31, 77);
  auto want = keys;
  std::sort(want.begin(), want.end());
  ASSERT_TRUE(api::config_valid(cfg, keys.size()));
  const auto outcome = api::parallel_sort(keys, cfg);
  EXPECT_TRUE(outcome.sorted);
  EXPECT_EQ(keys, want);
  // Short mode: one message per key.
  EXPECT_EQ(outcome.report.total_comm().messages_sent,
            outcome.report.total_comm().elements_sent);
}

INSTANTIATE_TEST_SUITE_P(
    All, ShortModeSweep,
    ::testing::Values(api::Algorithm::kSmartBitonic,
                      api::Algorithm::kCyclicBlockedBitonic,
                      api::Algorithm::kBlockedMergeBitonic,
                      api::Algorithm::kNaiveBitonic, api::Algorithm::kParallelRadix,
                      api::Algorithm::kSampleSort, api::Algorithm::kColumnSort),
    [](const ::testing::TestParamInfo<api::Algorithm>& info) {
      std::string name(api::algorithm_name(info.param));
      for (auto& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

TEST(ModernCluster, LongMessagesStillFavorSmartAtScale) {
  // On a modern-fabric parameter set the chooser conclusions of
  // Section 3.4.3 still hold qualitatively at moderate/large P.
  const auto p = loggp::modern_cluster();
  EXPECT_EQ(loggp::choose_strategy(p, 1u << 18, 64, true), loggp::Strategy::kSmart);
  EXPECT_EQ(loggp::choose_strategy(p, 1u << 18, 64, false), loggp::Strategy::kSmart);
}

TEST(ModernCluster, ParamsSane) {
  const auto p = loggp::modern_cluster();
  EXPECT_LT(p.G_per_element(4), p.g);
  EXPECT_LT(p.o, loggp::meiko_cs2().o);
}

TEST(PhaseBreakdown, TotalsSumComponents) {
  simd::PhaseBreakdown ph;
  ph.us[0] = 1;
  ph.us[1] = 2;
  ph.us[2] = 3;
  ph.us[3] = 4;
  EXPECT_DOUBLE_EQ(ph.total(), 10.0);
  EXPECT_DOUBLE_EQ(ph.compute(), 1.0);
  EXPECT_DOUBLE_EQ(ph.pack(), 2.0);
  EXPECT_DOUBLE_EQ(ph.transfer(), 3.0);
  EXPECT_DOUBLE_EQ(ph.unpack(), 4.0);
}

TEST(ApiReport, CommCountsMatchAcrossModes) {
  // Short and long mode move identical element volumes.
  const auto input = util::generate_keys(1u << 12, util::KeyDistribution::kUniform31, 6);
  api::Config cfg;
  cfg.nprocs = 8;
  auto k1 = input;
  cfg.mode = simd::MessageMode::kLong;
  const auto r1 = api::parallel_sort(k1, cfg);
  auto k2 = input;
  cfg.mode = simd::MessageMode::kShort;
  const auto r2 = api::parallel_sort(k2, cfg);
  EXPECT_EQ(r1.report.total_comm().elements_sent, r2.report.total_comm().elements_sent);
  EXPECT_LT(r1.report.total_comm().messages_sent, r2.report.total_comm().messages_sent);
}

}  // namespace
}  // namespace bsort
