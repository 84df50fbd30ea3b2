#include "driver/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesLinearly) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
  EXPECT_TRUE(std::isnan(percentile(std::vector<double>{}, 50.0)));
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(tail_supported(200, 95.0));
  EXPECT_FALSE(tail_supported(199, 95.0));
  EXPECT_TRUE(tail_supported(1000, 99.0));
  EXPECT_FALSE(tail_supported(999, 99.0));
  EXPECT_TRUE(tail_supported(20, 50.0));
  EXPECT_FALSE(tail_supported(19, 50.0));
  EXPECT_FALSE(tail_supported(1000000, 100.0));
}

TEST(Stats, HighestSupportedTail) {
  EXPECT_DOUBLE_EQ(highest_supported_tail(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_tail(1500), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_tail(200), 95.0);
  EXPECT_DOUBLE_EQ(highest_supported_tail(199), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_tail(40), 75.0);
  EXPECT_DOUBLE_EQ(highest_supported_tail(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_tail(19), 0.0);
}

TEST(Stats, SupportedTailFallsBackToTheHighestSupported) {
  std::vector<double> v(300);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  double pct = -1.0;
  EXPECT_DOUBLE_EQ(supported_tail(v, 95.0, &pct), percentile(v, 95.0));
  EXPECT_DOUBLE_EQ(pct, 95.0);
  v.resize(150);  // 7.5 samples beyond p95; p90 leaves 15
  EXPECT_DOUBLE_EQ(supported_tail(v, 95.0, &pct), percentile(v, 90.0));
  EXPECT_DOUBLE_EQ(pct, 90.0);
  EXPECT_DOUBLE_EQ(supported_tail(v, 50.0, &pct), median(v));  // never above p
  EXPECT_DOUBLE_EQ(pct, 50.0);
  v.resize(19);
  EXPECT_TRUE(std::isnan(supported_tail(v, 95.0, &pct)));
  EXPECT_DOUBLE_EQ(pct, 0.0);
}

TEST(Stats, GapsBetweenConsecutiveTokens) {
  EXPECT_TRUE(gaps(std::vector<double>{}).empty());
  EXPECT_TRUE(gaps(std::vector<double>{1.0}).empty());
  const std::vector<double> g = gaps(std::vector<double>{1.0, 1.5, 1.5, 3.0});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g[0], 0.5);
  EXPECT_DOUBLE_EQ(g[1], 0.0);  // two events read in one recv
  EXPECT_DOUBLE_EQ(g[2], 1.5);
}

TEST(Stats, PooledGapsAcrossRequests) {
  // Gaps are taken within each request and then pooled; the jump between
  // requests is never a gap.
  std::vector<double> pooled;
  for (const std::vector<double>& times :
       {std::vector<double>{0.0, 1.0, 2.0}, std::vector<double>{10.0, 10.25}}) {
    const std::vector<double> g = gaps(times);
    pooled.insert(pooled.end(), g.begin(), g.end());
  }
  ASSERT_EQ(pooled.size(), 3u);
  EXPECT_DOUBLE_EQ(median(pooled), 1.0);
}

}  // namespace
}  // namespace perfbench
