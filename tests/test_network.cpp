#include <gtest/gtest.h>

#include "common/check.h"

#include "sim/network.h"

namespace scale::sim {
namespace {

TEST(Network, DefaultLatencyApplies) {
  Network net(Duration::us(500));
  EXPECT_EQ(net.delay(1, 2), Duration::us(500));
}

TEST(Network, PairOverrideSymmetric) {
  Network net(Duration::us(500));
  net.set_latency(1, 2, Duration::ms(3.0));
  EXPECT_EQ(net.delay(1, 2), Duration::ms(3.0));
  EXPECT_EQ(net.delay(2, 1), Duration::ms(3.0));
  EXPECT_EQ(net.delay(1, 3), Duration::us(500));
}

TEST(Network, PairOverrideAsymmetric) {
  Network net(Duration::us(500));
  net.set_latency(1, 2, Duration::ms(3.0), /*symmetric=*/false);
  EXPECT_EQ(net.delay(1, 2), Duration::ms(3.0));
  EXPECT_EQ(net.delay(2, 1), Duration::us(500));
}

TEST(Network, DcLatencyMatrix) {
  Network net(Duration::us(500));
  net.set_node_dc(10, 1);
  net.set_node_dc(20, 2);
  net.set_node_dc(30, 1);
  net.set_dc_latency(1, 2, Duration::ms(20.0));
  // Cross-DC pair without explicit override: DC matrix.
  EXPECT_EQ(net.delay(10, 20), Duration::ms(20.0));
  EXPECT_EQ(net.delay(20, 10), Duration::ms(20.0));
  // Same-DC pair: default.
  EXPECT_EQ(net.delay(10, 30), Duration::us(500));
  // Pair override beats the DC matrix.
  net.set_latency(10, 20, Duration::ms(1.0));
  EXPECT_EQ(net.delay(10, 20), Duration::ms(1.0));
}

TEST(Network, UnknownNodeDefaultsToDcZero) {
  Network net(Duration::us(500));
  EXPECT_EQ(net.dc_of(42), 0u);
  net.set_node_dc(42, 3);
  EXPECT_EQ(net.dc_of(42), 3u);
}

TEST(Network, MessagesBetweenAcrossGrowingNodeIds) {
  // Per-pair counts live in per-sender rows grown on demand: senders and
  // receivers far past any row seen so far, and lookups past a row's end
  // or past the last row, must all read exactly.
  Network net;
  net.record_transfer(3, 1, 10);
  net.record_transfer(1, 3, 10);
  net.record_transfer(4000, 2, 10);
  net.record_transfer(2, 4000, 10);
  net.record_transfer(2, 4000, 10);
  net.record_transfer(3, 900, 10);
  EXPECT_EQ(net.messages_between(3, 1), 1u);
  EXPECT_EQ(net.messages_between(1, 3), 1u);
  EXPECT_EQ(net.messages_between(4000, 2), 1u);
  EXPECT_EQ(net.messages_between(2, 4000), 2u);
  EXPECT_EQ(net.messages_between(3, 900), 1u);
  EXPECT_EQ(net.messages_between(3, 2), 0u);     // inside row 3
  EXPECT_EQ(net.messages_between(3, 901), 0u);   // past row 3's end
  EXPECT_EQ(net.messages_between(1, 4000), 0u);  // past row 1's end
  EXPECT_EQ(net.messages_between(5, 1), 0u);     // a row never written
  EXPECT_EQ(net.messages_between(4001, 1), 0u);  // past the last row
  EXPECT_EQ(net.messages_between(0, 0), 0u);

  net.reset_counters();
  EXPECT_EQ(net.messages_between(2, 4000), 0u);
  EXPECT_EQ(net.messages_between(3, 900), 0u);
  net.record_transfer(2, 4000, 10);
  net.record_transfer(7000, 7000, 10);
  EXPECT_EQ(net.messages_between(2, 4000), 1u);
  EXPECT_EQ(net.messages_between(7000, 7000), 1u);
  EXPECT_EQ(net.messages_between(4000, 2), 0u);
  EXPECT_EQ(net.messages_sent(), 2u);

  // A corrupt id is rejected, not turned into a giant table.
  EXPECT_THROW(net.record_transfer(1, 0xFFFF'FFFFu, 10), scale::CheckError);
  EXPECT_THROW(net.record_transfer(0xFFFF'FFFFu, 1, 10), scale::CheckError);
  EXPECT_THROW(net.set_node_dc(0xFFFF'FFFFu, 1), scale::CheckError);
  EXPECT_EQ(net.messages_sent(), 2u);
}

TEST(Network, DcOfReadsZeroPastTheTable) {
  Network net;
  net.set_node_dc(1000, 2);
  EXPECT_EQ(net.dc_of(1000), 2u);
  EXPECT_EQ(net.dc_of(999), 0u);
  EXPECT_EQ(net.dc_of(1001), 0u);
  EXPECT_EQ(net.dc_of(0), 0u);
  net.set_node_dc(5, 1);
  EXPECT_EQ(net.dc_of(5), 1u);
  EXPECT_EQ(net.dc_of(1000), 2u);
}

TEST(Network, TransferAccounting) {
  Network net;
  net.record_transfer(1, 2, 100);
  net.record_transfer(1, 2, 50);
  net.record_transfer(2, 1, 10);
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_EQ(net.bytes_sent(), 160u);
  EXPECT_EQ(net.messages_between(1, 2), 2u);
  EXPECT_EQ(net.messages_between(2, 1), 1u);
  EXPECT_EQ(net.messages_between(3, 4), 0u);
  net.reset_counters();
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.bytes_sent(), 0u);
}

TEST(FaultPlane, DisabledByDefault) {
  Network net;
  EXPECT_FALSE(net.faults_enabled());
  const FaultVerdict v = net.fault_verdict(1, 2, Time::zero());
  EXPECT_TRUE(v.deliver);
  EXPECT_FALSE(v.duplicate);
  EXPECT_EQ(v.extra_delay, Duration::zero());
  EXPECT_EQ(v.latency_factor, 1.0);
}

TEST(FaultPlane, ScriptedLinkDownWindow) {
  Network net;
  net.schedule_link_down(1, 2, Time::from_sec(1.0), Time::from_sec(2.0));
  EXPECT_TRUE(net.faults_enabled());
  EXPECT_TRUE(net.fault_verdict(1, 2, Time::from_sec(0.5)).deliver);
  EXPECT_FALSE(net.fault_verdict(1, 2, Time::from_sec(1.5)).deliver);
  EXPECT_FALSE(net.fault_verdict(2, 1, Time::from_sec(1.5)).deliver);
  // Half-open window: [from, until).
  EXPECT_TRUE(net.fault_verdict(1, 2, Time::from_sec(2.0)).deliver);
  // Unrelated link is untouched.
  EXPECT_TRUE(net.fault_verdict(1, 3, Time::from_sec(1.5)).deliver);
  EXPECT_EQ(net.fault_counters().link_down_drops, 2u);
  EXPECT_EQ(net.fault_counters().total_drops(), 2u);
}

TEST(FaultPlane, PartitionSeversCrossDcLinksOnly) {
  Network net;
  net.set_node_dc(10, 0);
  net.set_node_dc(20, 1);
  net.set_node_dc(30, 0);
  net.schedule_partition(0, 1, Time::from_sec(1.0), Time::from_sec(3.0));
  EXPECT_FALSE(net.fault_verdict(10, 20, Time::from_sec(2.0)).deliver);
  EXPECT_FALSE(net.fault_verdict(20, 10, Time::from_sec(2.0)).deliver);
  // Same-DC traffic flows through the partition.
  EXPECT_TRUE(net.fault_verdict(10, 30, Time::from_sec(2.0)).deliver);
  // Before/after the window the cross-DC link works.
  EXPECT_TRUE(net.fault_verdict(10, 20, Time::from_sec(0.5)).deliver);
  EXPECT_TRUE(net.fault_verdict(10, 20, Time::from_sec(3.0)).deliver);
  EXPECT_EQ(net.fault_counters().partition_drops, 2u);
}

TEST(FaultPlane, LatencySpikeMultipliesCrossDcLatency) {
  Network net;
  net.set_node_dc(20, 1);
  net.schedule_latency_spike(0, 1, Time::from_sec(1.0), Time::from_sec(2.0),
                             10.0);
  const FaultVerdict in = net.fault_verdict(10, 20, Time::from_sec(1.5));
  EXPECT_TRUE(in.deliver);
  EXPECT_EQ(in.latency_factor, 10.0);
  const FaultVerdict out = net.fault_verdict(10, 20, Time::from_sec(2.5));
  EXPECT_EQ(out.latency_factor, 1.0);
}

TEST(FaultPlane, StochasticDropDupReorder) {
  Network net;
  LinkFaults f;
  f.drop_prob = 1.0;
  net.set_global_faults(f);
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(net.fault_verdict(1, 2, Time::zero()).deliver);
  EXPECT_EQ(net.fault_counters().random_drops, 10u);

  f.drop_prob = 0.0;
  f.dup_prob = 1.0;
  f.reorder_prob = 1.0;
  f.reorder_window = Duration::ms(7.0);
  net.set_global_faults(f);
  const FaultVerdict v = net.fault_verdict(1, 2, Time::zero());
  EXPECT_TRUE(v.deliver);
  EXPECT_TRUE(v.duplicate);
  EXPECT_EQ(v.extra_delay, Duration::ms(7.0));
  EXPECT_EQ(net.fault_counters().duplicates, 1u);
  EXPECT_EQ(net.fault_counters().reorders, 1u);
}

TEST(FaultPlane, PerLinkSpecOverridesGlobal) {
  Network net;
  LinkFaults lossy;
  lossy.drop_prob = 1.0;
  net.set_global_faults(lossy);
  net.set_link_faults(1, 2, LinkFaults{});  // clean override
  EXPECT_TRUE(net.fault_verdict(1, 2, Time::zero()).deliver);
  EXPECT_TRUE(net.fault_verdict(2, 1, Time::zero()).deliver);
  EXPECT_FALSE(net.fault_verdict(1, 3, Time::zero()).deliver);
}

TEST(FaultPlane, SameSeedReplaysIdentically) {
  Network a(Duration::us(500), 1234);
  Network b(Duration::us(500), 1234);
  LinkFaults f;
  f.drop_prob = 0.3;
  f.dup_prob = 0.2;
  f.reorder_prob = 0.1;
  a.set_global_faults(f);
  b.set_global_faults(f);
  for (int i = 0; i < 500; ++i) {
    const FaultVerdict va = a.fault_verdict(1, 2, Time::zero());
    const FaultVerdict vb = b.fault_verdict(1, 2, Time::zero());
    EXPECT_EQ(va.deliver, vb.deliver);
    EXPECT_EQ(va.duplicate, vb.duplicate);
    EXPECT_EQ(va.extra_delay, vb.extra_delay);
  }
  EXPECT_EQ(a.fault_counters(), b.fault_counters());
}

TEST(FaultPlane, ScriptedWindowsConsumeNoRandomness) {
  // A link-down drop is decided before any draw, so the stochastic stream
  // of other links is unaffected by how many scripted drops occurred.
  Network a(Duration::us(500), 9);
  Network b(Duration::us(500), 9);
  LinkFaults f;
  f.drop_prob = 0.5;
  a.set_global_faults(f);
  b.set_global_faults(f);
  b.schedule_link_down(8, 9, Time::zero(), Time::from_sec(10.0));
  for (int i = 0; i < 200; ++i) {
    // Only b sees (and drops) the scripted link's traffic...
    EXPECT_FALSE(b.fault_verdict(8, 9, Time::from_sec(1.0)).deliver);
    // ...yet the shared stochastic link stays in lockstep.
    EXPECT_EQ(a.fault_verdict(1, 2, Time::from_sec(1.0)).deliver,
              b.fault_verdict(1, 2, Time::from_sec(1.0)).deliver);
  }
}

TEST(FaultPlane, ResetCountersClearsFaultCountersToo) {
  Network net;
  LinkFaults f;
  f.drop_prob = 1.0;
  net.set_global_faults(f);
  net.record_transfer(1, 2, 64);
  (void)net.fault_verdict(1, 2, Time::zero());
  net.schedule_link_down(3, 4, Time::zero(), Time::from_sec(1.0));
  (void)net.fault_verdict(3, 4, Time::from_sec(0.5));
  ASSERT_GT(net.fault_counters().total_drops(), 0u);

  net.reset_counters();
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.bytes_sent(), 0u);
  EXPECT_EQ(net.fault_counters(), FaultCounters{});
  // Specs survive a counter reset (measurement window ends; faults do not).
  EXPECT_TRUE(net.faults_enabled());
  EXPECT_FALSE(net.fault_verdict(1, 2, Time::zero()).deliver);
}

TEST(FaultPlane, ClearFaultsDisablesButKeepsCounters) {
  Network net;
  LinkFaults f;
  f.drop_prob = 1.0;
  net.set_global_faults(f);
  (void)net.fault_verdict(1, 2, Time::zero());
  net.clear_faults();
  EXPECT_FALSE(net.faults_enabled());
  EXPECT_TRUE(net.fault_verdict(1, 2, Time::zero()).deliver);
  EXPECT_EQ(net.fault_counters().random_drops, 1u);
}

TEST(FaultPlane, Validation) {
  Network net;
  LinkFaults bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(net.set_global_faults(bad), scale::CheckError);
  bad.drop_prob = -0.1;
  EXPECT_THROW(net.set_link_faults(1, 2, bad), scale::CheckError);
  EXPECT_THROW(
      net.schedule_link_down(1, 2, Time::from_sec(2.0), Time::from_sec(1.0)),
      scale::CheckError);
  EXPECT_THROW(
      net.schedule_partition(1, 1, Time::zero(), Time::from_sec(1.0)),
      scale::CheckError);
  EXPECT_THROW(net.schedule_latency_spike(0, 1, Time::zero(),
                                          Time::from_sec(1.0), 0.5),
               scale::CheckError);
}

}  // namespace
}  // namespace scale::sim
