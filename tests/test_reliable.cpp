// ReliableChannel — the SCTP-like shim: pass-through when disabled,
// retransmission through loss, receive-side dedup, backoff and abandonment.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "proto/s11.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale {
namespace {

struct RelNode final : epc::Endpoint {
  epc::ReliableChannel rel;
  std::vector<proto::Imsi> got;

  explicit RelNode(epc::Fabric& f) : Endpoint(f), rel(f, node()) {}
  /// Crash semantics (cf. ScaleCluster::retired_): the endpoint leaves the
  /// fabric but the object survives — armed retransmit timers capture the
  /// channel and must find it alive when they fire.
  void crash() { leave(); }

  void receive(sim::NodeId from, const proto::PduRef& ref) override {
    const proto::PduRef* app = rel.unwrap(from, ref);
    if (app == nullptr) return;  // shim traffic
    const auto* s11 = std::get_if<proto::S11Message>(&(*app)->value);
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

struct ReliableTest : ::testing::Test {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};

  void enable_transport() {
    epc::TransportConfig t;
    t.reliable = true;
    fabric.set_transport(t);
  }
};

TEST_F(ReliableTest, DisabledShimIsPassThrough) {
  RelNode a(fabric), b(fabric);
  ASSERT_FALSE(a.rel.enabled());
  a.rel.send(b.node(), ping(7));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0], 7u);
  // No wrapping, no ack: exactly one message crossed the wire.
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
}

TEST_F(ReliableTest, CleanPathDeliversOnceAndAcks) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  a.rel.send(b.node(), ping(1));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  // Segment + ack; no retransmission on a clean link.
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
  EXPECT_TRUE(engine.idle()) << "acked send must leave no armed timer work";
}

TEST_F(ReliableTest, DeliversEverythingThroughHeavyLoss) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  sim::LinkFaults f;
  f.drop_prob = 0.3;  // both directions: data and acks get lost
  net.set_global_faults(f);
  const int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    engine.after(Duration::ms(static_cast<double>(i)),
                 [&a, &b, i]() { a.rel.send(b.node(), ping(100 + i)); });
  }
  engine.run_until(Time::from_sec(120.0));
  ASSERT_EQ(b.got.size(), static_cast<std::size_t>(kCount))
      << "every send must eventually be delivered exactly once";
  std::vector<proto::Imsi> sorted = b.got;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kCount; ++i)
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], 100u + i);
  EXPECT_GT(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, FaultDuplicatesAreSuppressed) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  sim::LinkFaults f;
  f.dup_prob = 1.0;  // every PDU (segment AND ack) arrives twice
  net.set_global_faults(f);
  for (int i = 0; i < 10; ++i) a.rel.send(b.node(), ping(200 + i));
  engine.run_until(Time::from_sec(30.0));
  ASSERT_EQ(b.got.size(), 10u);
  EXPECT_GT(b.rel.duplicates_suppressed(), 0u);
}

TEST_F(ReliableTest, RetransmitsAcrossLinkDownWindow) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node(), b.node(), Time::zero(), Time::from_sec(1.0));
  a.rel.send(b.node(), ping(5));
  engine.run_until(Time::from_sec(30.0));
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_GE(a.rel.retransmits(), 1u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, AbandonsAfterMaxRetransmits) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  // Dead for far longer than the whole backoff budget
  // (250ms * 2^k capped at 4s, 8 retransmits ≈ 20s of trying).
  net.schedule_link_down(a.node(), b.node(), Time::zero(),
                         Time::from_sec(1000.0));
  a.rel.send(b.node(), ping(6));
  engine.run_until(Time::from_sec(100.0));
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(a.rel.abandoned(), 1u);
  EXPECT_EQ(a.rel.retransmits(), fabric.transport().max_retransmits);
}

TEST_F(ReliableTest, BackoffScheduleIsJitterlessAndCapped) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node(), b.node(), Time::zero(),
                         Time::from_sec(1000.0));
  a.rel.send(b.node(), ping(9));

  // Defaults: 250 ms initial, ×2 backoff, capped at 4 s — the k-th
  // retransmit fires exactly at the prefix sum 250, 750, 1750, 3750, 7750,
  // 11750, 15750, 19750 ms. No jitter: the schedule is a pure function of
  // the config, so stepping just past each boundary observes exactly one
  // more retransmission.
  const double kFireMs[] = {250, 750, 1750, 3750, 7750, 11750, 15750, 19750};
  for (std::size_t k = 0; k < 8; ++k) {
    engine.run_until(Time::from_sec(kFireMs[k] / 1000.0 - 0.001));
    EXPECT_EQ(a.rel.retransmits(), k) << "early at boundary " << k;
    engine.run_until(Time::from_sec(kFireMs[k] / 1000.0 + 0.001));
    EXPECT_EQ(a.rel.retransmits(), k + 1) << "late at boundary " << k;
  }
  // The capped RTO (4 s) runs out once more, then the send is abandoned.
  engine.run_until(Time::from_sec(100.0));
  EXPECT_EQ(a.rel.abandoned(), 1u);
  EXPECT_EQ(a.rel.retransmits(), fabric.transport().max_retransmits);
}

TEST_F(ReliableTest, RetryHorizonMatchesBackoffSchedule) {
  // Defaults: 250 + 500 + 1000 + 2000 + 4 × 4000 (capped) = 19750 ms — the
  // instant of the last retransmission above.
  EXPECT_EQ(epc::TransportConfig{}.retry_horizon(), Duration::ms(19750.0));

  epc::TransportConfig t;
  t.rto_initial = Duration::ms(100.0);
  t.rto_backoff = 3.0;
  t.rto_max = Duration::ms(500.0);
  t.max_retransmits = 4;
  // 100 + 300 + 500 + 500 (capped): the cap binds from the third RTO on.
  EXPECT_EQ(t.retry_horizon(), Duration::ms(1400.0));
}

TEST_F(ReliableTest, CrashedSenderStopsRetransmitting) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node(), b.node(), Time::zero(), Time::from_sec(50.0));
  a.rel.send(b.node(), ping(8));
  engine.run_until(Time::from_sec(1.0));  // a few retransmits already burned
  const std::uint64_t before = a.rel.retransmits();
  a.crash();  // VM crash: the endpoint leaves the fabric
  engine.run_until(Time::from_sec(100.0));
  // The next timer fires, sees the sender deregistered, and gives up:
  // no delivery, no further retransmissions, no abandonment counted.
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(a.rel.retransmits(), before);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, UnreliableSendBypassesShim) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  a.rel.send_unreliable(b.node(), ping(4));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  // Unwrapped on the wire: one message, no ack, nothing pending.
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_TRUE(engine.idle());
}

}  // namespace
}  // namespace scale
