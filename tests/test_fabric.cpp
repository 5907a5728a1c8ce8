// Fabric delivery edge cases: dead-endpoint drops for in-flight PDUs,
// FaultPlane integration (wire loss vs endpoint loss accounting), and the
// counter-reset regression (fabric + network + fault counters zero as one
// measurement window).
#include <gtest/gtest.h>

#include <memory>

#include <vector>

#include "epc/fabric.h"
#include "obs/registry.h"
#include "proto/s11.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale {
namespace {

struct Probe final : epc::Endpoint {
  std::vector<proto::Imsi> got;

  explicit Probe(epc::Fabric& f) : Endpoint(f) {}
  void deregister() { leave(); }
  void receive(sim::NodeId, const proto::PduRef& ref) override {
    const proto::Pdu& pdu = ref->value;
    ASSERT_TRUE(registered()) << "delivery to a deregistered endpoint";
    const auto* s11 = std::get_if<proto::S11Message>(&pdu);
    ASSERT_NE(s11, nullptr);
    const auto* req = std::get_if<proto::CreateSessionRequest>(s11);
    ASSERT_NE(req, nullptr);
    got.push_back(req->imsi);
  }
};

proto::PduRef ping(proto::Imsi imsi) {
  proto::CreateSessionRequest req;
  req.imsi = imsi;
  return proto::box(req);
}

struct FabricTest : ::testing::Test {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};
};

TEST_F(FabricTest, InFlightPduToDeregisteredNodeIsDropped) {
  Probe a(fabric), b(fabric);
  fabric.send(a.node(), b.node(), ping(1));
  // The PDU is on the wire (delivery at +500us); the destination vanishes
  // before it lands — e.g. an MMP VM de-provisioned mid-flight.
  b.deregister();
  engine.run_until(Time::from_sec(1.0));
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST_F(FabricTest, EndpointsRegisterInOrderAndLeaveOnce) {
  auto a = std::make_unique<Probe>(fabric);
  Probe b(fabric);
  EXPECT_EQ(b.node(), a->node() + 1) << "NodeIds follow construction order";
  EXPECT_TRUE(fabric.is_registered(a->node()));
  const sim::NodeId gone = a->node();
  // A crash leaves early; leaving again, and the destructor, are no-ops.
  a->deregister();
  a->deregister();
  EXPECT_FALSE(fabric.is_registered(gone));
  a.reset();
  EXPECT_TRUE(fabric.is_registered(b.node()));
}

TEST_F(FabricTest, DropsPdusToUnknownIds) {
  // The endpoint table is indexed by NodeId: id 0 (never assigned), ids
  // past its end and ids that left all drop as dead-endpoint deliveries.
  Probe a(fabric), b(fabric);
  const sim::NodeId gone = b.node();
  b.deregister();
  for (const sim::NodeId to : {sim::NodeId{0}, gone, a.node() + 1,
                               a.node() + 1000}) {
    EXPECT_FALSE(fabric.is_registered(to));
    fabric.send(a.node(), to, ping(to));
  }
  engine.run_until(Time::from_sec(1.0));
  EXPECT_EQ(fabric.dropped(), 4u);
  EXPECT_TRUE(b.got.empty());
  EXPECT_TRUE(fabric.is_registered(a.node()));
}

TEST_F(FabricTest, EndpointsMetricCountsRegisteredEndpoints) {
  auto metric = [this] {
    obs::MetricsRegistry reg;
    fabric.export_metrics(reg, "fabric");
    return reg.gauge("fabric.endpoints");
  };
  EXPECT_EQ(metric(), 0.0);
  Probe a(fabric), b(fabric);
  auto c = std::make_unique<Probe>(fabric);
  EXPECT_EQ(metric(), 3.0);
  b.deregister();
  EXPECT_EQ(metric(), 2.0);
  c.reset();
  EXPECT_EQ(metric(), 1.0);
  b.deregister();  // idempotent
  EXPECT_EQ(metric(), 1.0);
}

TEST_F(FabricTest, WireLossIsNotAnEndpointDrop) {
  Probe a(fabric), b(fabric);
  sim::LinkFaults f;
  f.drop_prob = 1.0;
  net.set_global_faults(f);
  for (proto::Imsi i = 1; i <= 5; ++i)
    fabric.send(a.node(), b.node(), ping(i));
  engine.run_until(Time::from_sec(1.0));
  EXPECT_TRUE(b.got.empty());
  // Drops happened on the wire: fault counters, not the dead-endpoint one.
  EXPECT_EQ(net.fault_counters().random_drops, 5u);
  EXPECT_EQ(fabric.dropped(), 0u);
  // The messages were still transmitted (and accounted) by the sender.
  EXPECT_EQ(net.messages_sent(), 5u);
}

TEST_F(FabricTest, DuplicateFaultDeliversTwice) {
  Probe a(fabric), b(fabric);
  sim::LinkFaults f;
  f.dup_prob = 1.0;
  net.set_global_faults(f);
  fabric.send(a.node(), b.node(), ping(9));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 2u);
  EXPECT_EQ(b.got[0], 9u);
  EXPECT_EQ(b.got[1], 9u);
  EXPECT_EQ(net.fault_counters().duplicates, 1u);
}

TEST_F(FabricTest, ReorderFaultDelaysDelivery) {
  Probe a(fabric), b(fabric);
  sim::LinkFaults f;
  f.reorder_prob = 1.0;
  f.reorder_window = Duration::ms(5.0);
  net.set_global_faults(f);
  fabric.send(a.node(), b.node(), ping(3));
  // Normal latency alone is not enough...
  engine.run_until(Time::zero() + Duration::ms(4.0));
  EXPECT_TRUE(b.got.empty());
  // ...the PDU lands after latency + reorder_window.
  engine.run_until(Time::zero() + Duration::ms(6.0));
  EXPECT_EQ(b.got.size(), 1u);
  EXPECT_EQ(net.fault_counters().reorders, 1u);
}

TEST_F(FabricTest, PartitionWindowSeversThenHeals) {
  Probe a(fabric), b(fabric);
  net.set_node_dc(a.node(), 0);
  net.set_node_dc(b.node(), 1);
  net.schedule_partition(0, 1, Time::from_sec(1.0), Time::from_sec(3.0));
  engine.after(Duration::sec(2.0),
               [&]() { fabric.send(a.node(), b.node(), ping(1)); });  // cut
  engine.after(Duration::sec(4.0),
               [&]() { fabric.send(a.node(), b.node(), ping(2)); });  // healed
  engine.run_until(Time::from_sec(5.0));
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0], 2u);
  EXPECT_EQ(net.fault_counters().partition_drops, 1u);
}

TEST_F(FabricTest, ResetCountersZeroesEverythingTogether) {
  Probe a(fabric), b(fabric);
  // One dead-endpoint drop...
  auto dead = std::make_unique<Probe>(fabric);
  const sim::NodeId dead_node = dead->node();
  fabric.send(a.node(), dead_node, ping(1));
  dead.reset();
  // ...one wire drop + one duplicate...
  sim::LinkFaults f;
  f.drop_prob = 1.0;
  net.set_link_faults(a.node(), b.node(), f, /*symmetric=*/false);
  fabric.send(a.node(), b.node(), ping(2));
  sim::LinkFaults d;
  d.dup_prob = 1.0;
  net.set_link_faults(b.node(), a.node(), d, /*symmetric=*/false);
  fabric.send(b.node(), a.node(), ping(3));
  engine.run_until(Time::from_sec(1.0));

  ASSERT_EQ(fabric.dropped(), 1u);
  ASSERT_GT(net.messages_sent(), 0u);
  ASSERT_GT(net.bytes_sent(), 0u);
  ASSERT_EQ(net.fault_counters().random_drops, 1u);
  ASSERT_EQ(net.fault_counters().duplicates, 1u);

  fabric.reset_counters();
  EXPECT_EQ(fabric.dropped(), 0u);
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.bytes_sent(), 0u);
  EXPECT_EQ(net.messages_between(a.node(), b.node()), 0u);
  EXPECT_EQ(net.fault_counters(), sim::FaultCounters{});
}

// --- Batched delivery (DESIGN.md §12) --------------------------------------
// Same-destination, same-timestamp sends ride one engine event; anything
// that could reorder relative (time, seq) pairs — a destination switch or an
// unrelated event scheduled in between — closes the open batch.

TEST_F(FabricTest, SameDestinationSameTickSendsShareOneEvent) {
  Probe a(fabric), b(fabric);
  for (proto::Imsi i = 1; i <= 8; ++i)
    fabric.send(a.node(), b.node(), ping(i));
  EXPECT_EQ(fabric.delivery_batches(), 1u);
  EXPECT_EQ(fabric.batched_pdus(), 7u);
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 8u);
  for (proto::Imsi i = 1; i <= 8; ++i) EXPECT_EQ(b.got[i - 1], i);
}

TEST_F(FabricTest, DestinationSwitchClosesBatch) {
  Probe a(fabric), b(fabric), c(fabric);
  fabric.send(a.node(), b.node(), ping(1));
  fabric.send(a.node(), c.node(), ping(2));
  // Same (to, at) as the first send, but c's event was scheduled in
  // between — appending here would skip a seq, so a fresh event is correct.
  fabric.send(a.node(), b.node(), ping(3));
  EXPECT_EQ(fabric.delivery_batches(), 3u);
  EXPECT_EQ(fabric.batched_pdus(), 0u);
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 2u);
  EXPECT_EQ(b.got[0], 1u);
  EXPECT_EQ(b.got[1], 3u);
  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got[0], 2u);
}

TEST_F(FabricTest, UnrelatedEventBetweenSendsClosesBatch) {
  Probe a(fabric), b(fabric);
  fabric.send(a.node(), b.node(), ping(1));
  engine.after(Duration::ms(10.0), [] {});
  fabric.send(a.node(), b.node(), ping(2));
  EXPECT_EQ(fabric.delivery_batches(), 2u);
  EXPECT_EQ(fabric.batched_pdus(), 0u);
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 2u);
  EXPECT_EQ(b.got[0], 1u);
  EXPECT_EQ(b.got[1], 2u);
}

}  // namespace
}  // namespace scale
