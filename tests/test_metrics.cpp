#include <gtest/gtest.h>

#include "common/check.h"

#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace scale::sim {
namespace {

TEST(DelayRecorder, BucketsByName) {
  DelayRecorder rec;
  rec.record("attach", Duration::ms(10.0));
  rec.record("attach", Duration::ms(20.0));
  rec.record("handover", Duration::ms(5.0));
  EXPECT_TRUE(rec.has("attach"));
  EXPECT_FALSE(rec.has("tau"));
  EXPECT_EQ(rec.bucket("attach").count(), 2u);
  EXPECT_EQ(rec.total_count(), 3u);
  EXPECT_EQ(rec.buckets().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.bucket("handover").percentile(0.99), 5.0);
}

TEST(DelayRecorder, MergedCombinesAllBuckets) {
  DelayRecorder rec;
  rec.record("a", Duration::ms(1.0));
  rec.record("b", Duration::ms(3.0));
  const auto merged = rec.merged();
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_DOUBLE_EQ(merged.percentile(1.0), 3.0);
}

TEST(DelayRecorder, UnknownBucketThrows) {
  DelayRecorder rec;
  EXPECT_THROW(rec.bucket("nope"), scale::CheckError);
}

TEST(CpuSampler, ProducesUtilizationTimeline) {
  Engine eng;
  CpuModel cpu(eng);
  CpuSampler sampler(eng, Duration::ms(10.0));
  sampler.track("vm1", cpu);

  // Busy for the first 50 ms, idle afterwards.
  cpu.execute(Duration::ms(50.0), nullptr);
  eng.run_until(Time::from_sec(0.1));
  sampler.stop();

  const TimeSeries& ts = sampler.series("vm1");
  ASSERT_GE(ts.size(), 9u);
  // First 5 samples fully busy, late samples idle.
  EXPECT_NEAR(ts.points()[0].second, 1.0, 1e-9);
  EXPECT_NEAR(ts.points()[4].second, 1.0, 1e-9);
  EXPECT_NEAR(ts.points().back().second, 0.0, 1e-9);
  EXPECT_NEAR(ts.mean_in(Time::zero(), Time::from_sec(0.05)), 1.0, 0.05);
}

TEST(CpuSampler, TracksMultipleCpusIndependently) {
  Engine eng;
  CpuModel busy(eng), idle(eng);
  CpuSampler sampler(eng, Duration::ms(10.0));
  sampler.track("busy", busy);
  sampler.track("idle", idle);
  busy.execute(Duration::ms(100.0), nullptr);
  eng.run_until(Time::from_sec(0.1));
  sampler.stop();
  EXPECT_NEAR(sampler.series("busy").mean_value(), 1.0, 0.05);
  EXPECT_NEAR(sampler.series("idle").mean_value(), 0.0, 1e-9);
  EXPECT_EQ(sampler.names().size(), 2u);
}

TEST(CpuSampler, UntrackStopsSeries) {
  Engine eng;
  CpuModel cpu(eng);
  CpuSampler sampler(eng, Duration::ms(10.0));
  sampler.track("vm", cpu);
  eng.run_until(Time::from_sec(0.05));
  sampler.untrack("vm");
  EXPECT_FALSE(sampler.has("vm"));
  sampler.stop();
}

TEST(UtilizationTracker, ConvergesToActualLoad) {
  Engine eng;
  CpuModel cpu(eng);
  UtilizationTracker tracker(eng, cpu, Duration::ms(100.0));
  // 50% duty cycle: 50 ms of work every 100 ms.
  for (int i = 0; i < 30; ++i) {
    eng.at(Time::from_us(i * 100000), [&cpu] {
      cpu.execute(Duration::ms(50.0), nullptr);
    });
  }
  eng.run_until(Time::from_sec(3.0));
  tracker.stop();
  EXPECT_NEAR(tracker.utilization(), 0.5, 0.1);
}

TEST(UtilizationTracker, IdleCpuReadsZero) {
  Engine eng;
  CpuModel cpu(eng);
  UtilizationTracker tracker(eng, cpu);
  eng.run_until(Time::from_sec(1.0));
  tracker.stop();
  EXPECT_NEAR(tracker.utilization(), 0.0, 1e-9);
}

}  // namespace
}  // namespace scale::sim
