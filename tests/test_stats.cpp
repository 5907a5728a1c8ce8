#include <gtest/gtest.h>

#include "common/check.h"

#include <cmath>

#include "common/stats.h"

namespace scale {
namespace {

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyMinMaxAreNaN) {
  OnlineStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(OnlineStats, MergeEqualsSingleStream) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(PercentileSampler, ExactPercentiles) {
  PercentileSampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(PercentileSampler, EmptyThrows) {
  PercentileSampler s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.percentile(0.5), CheckError);
}

TEST(PercentileSampler, ReservoirKeepsCapAndApproximatesQuantiles) {
  PercentileSampler s(1000);
  for (int i = 0; i < 100000; ++i) s.add(i % 1000);
  EXPECT_EQ(s.samples().size(), 1000u);
  EXPECT_EQ(s.count(), 100000u);
  EXPECT_NEAR(s.percentile(0.5), 500.0, 60.0);
}

TEST(PercentileSampler, CdfIsMonotone) {
  PercentileSampler s;
  for (int i = 0; i < 500; ++i) s.add((i * 37) % 100);
  const auto cdf = s.cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(PercentileSampler, ClearResets) {
  PercentileSampler s;
  s.add(5);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.primed());
  e.update(10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesGeometrically) {
  Ewma e(0.5);
  e.update(0.0);
  e.update(16.0);  // 8
  e.update(16.0);  // 12
  e.update(16.0);  // 14
  EXPECT_DOUBLE_EQ(e.value(), 14.0);
}

TEST(Ewma, MatchesPaperLoadEstimatorForm) {
  // L̄(t) = α·L(t−1) + (1−α)·L̄(t−1), α = 0.3
  Ewma e(0.3);
  e.update(100);
  const double expected = 0.3 * 40 + 0.7 * 100;
  EXPECT_DOUBLE_EQ(e.update(40), expected);
}

TEST(Ewma, InvalidAlphaRejected) {
  EXPECT_THROW(Ewma(0.0), CheckError);
  EXPECT_THROW(Ewma(1.5), CheckError);
}

TEST(TimeSeries, AppendAndQuery) {
  TimeSeries ts;
  ts.add(Time::from_us(0), 0.1);
  ts.add(Time::from_us(100), 0.5);
  ts.add(Time::from_us(200), 0.3);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.max_value(), 0.5);
  EXPECT_NEAR(ts.mean_value(), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::from_us(150)), 0.5);
  EXPECT_DOUBLE_EQ(ts.value_at(Time::from_us(250)), 0.3);
  EXPECT_DOUBLE_EQ(
      ts.mean_in(Time::from_us(50), Time::from_us(250)), 0.4);
}

TEST(TimeSeries, RejectsOutOfOrderAppend) {
  TimeSeries ts;
  ts.add(Time::from_us(100), 1.0);
  EXPECT_THROW(ts.add(Time::from_us(50), 2.0), CheckError);
}

TEST(FormatCdf, ContainsHeaderAndRows) {
  const std::string out =
      format_cdf({{1.0, 0.5}, {2.0, 1.0}}, "delay", "F");
  EXPECT_NE(out.find("delay\tF"), std::string::npos);
  EXPECT_NE(out.find("2\t1"), std::string::npos);
}

}  // namespace
}  // namespace scale
