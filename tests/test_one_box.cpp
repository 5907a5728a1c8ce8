// One box per PDU: a relay forwards the box it received — as is, or as the
// inner PDU of its envelope — and never copies the message into a new box.
// Pointer equality between what a sender boxed and what the far end finds
// is the observable: a relay that re-boxes passes every functional test but
// fails these. Each case runs with the reliability shim off and on.
#include <gtest/gtest.h>

#include <vector>

#include "core/mlb.h"
#include "core/mmp.h"
#include "epc/fabric.h"
#include "epc/reliable.h"
#include "proto/pdu.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale {
namespace {

/// An endpoint that keeps every application PDU (the shim unwrapped) it
/// receives, as the box it arrived in.
struct Recorder final : epc::Endpoint {
  epc::ReliableChannel rel;
  std::vector<proto::PduRef> got;

  explicit Recorder(epc::Fabric& f) : Endpoint(f), rel(f, node()) {}
  void receive(sim::NodeId from, const proto::PduRef& pdu) override {
    if (const proto::PduRef* app = rel.unwrap(from, pdu)) got.push_back(*app);
  }
};

constexpr std::uint8_t kVmCode = 3;

/// An MLB with one MMP behind it (a Recorder, ring code kVmCode), an
/// eNodeB, an S-GW and an HSS stand-in.
struct RelayWorld {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};
  std::unique_ptr<Recorder> vm, enb, sgw, hss;
  std::unique_ptr<core::Mlb> mlb;

  explicit RelayWorld(bool reliable) {
    epc::TransportConfig t;
    t.reliable = reliable;
    fabric.set_transport(t);
    vm = std::make_unique<Recorder>(fabric);
    enb = std::make_unique<Recorder>(fabric);
    sgw = std::make_unique<Recorder>(fabric);
    hss = std::make_unique<Recorder>(fabric);
    mlb = std::make_unique<core::Mlb>(fabric, core::Mlb::Config{});
    mlb->apply_membership({{vm->node(), kVmCode}}, 1);
  }

  void run() { engine.run_until(engine.now() + Duration::ms(50.0)); }

  /// The single ClusterForward the VM received.
  const proto::ClusterForward& forwarded() const {
    EXPECT_EQ(vm->got.size(), 1u);
    return proto::message<proto::ClusterForward>(vm->got.at(0));
  }
};

class OneBox : public ::testing::TestWithParam<bool> {};

TEST_P(OneBox, ClusterReplyReachesTheEnbAsTheSameBox) {
  RelayWorld w(GetParam());
  proto::DownlinkNasTransport dl;
  dl.enb_ue_id = 7;
  dl.nas = proto::NasServiceAccept{};
  const proto::PduRef out = proto::box(dl);
  w.vm->rel.send(w.mlb->node(),
                 proto::box(proto::ClusterReply{.target = w.enb->node(),
                                                .inner = out}));
  w.run();
  ASSERT_EQ(w.enb->got.size(), 1u);
  EXPECT_EQ(w.enb->got[0].get(), out.get());
  EXPECT_EQ(w.mlb->relays(), 1u);
}

TEST_P(OneBox, StickyS1apRelayWrapsTheReceivedBox) {
  RelayWorld w(GetParam());
  proto::UplinkNasTransport ul;
  ul.enb_id = w.enb->node();
  ul.mme_ue_id = proto::MmeUeId::make(kVmCode, 1);
  ul.nas = proto::NasSecurityModeComplete{};
  const proto::PduRef in = proto::box(ul);
  w.enb->rel.send(w.mlb->node(), in);
  w.run();
  EXPECT_EQ(w.forwarded().inner.get(), in.get());
  EXPECT_EQ(w.forwarded().origin, w.enb->node());
}

TEST_P(OneBox, StickyS11RelayWrapsTheReceivedBox) {
  RelayWorld w(GetParam());
  proto::CreateSessionResponse resp;
  resp.mme_teid = proto::Teid::make(kVmCode, 9);
  const proto::PduRef in = proto::box(resp);
  w.sgw->rel.send(w.mlb->node(), in);
  w.run();
  EXPECT_EQ(w.forwarded().inner.get(), in.get());
}

TEST_P(OneBox, S6AnswerRelayWrapsTheReceivedBox) {
  RelayWorld w(GetParam());
  proto::AuthInfoAnswer ans;
  ans.hop_ref = w.vm->node();
  const proto::PduRef in = proto::box(ans);
  w.hss->rel.send(w.mlb->node(), in);
  w.run();
  EXPECT_EQ(w.forwarded().inner.get(), in.get());
}

TEST_P(OneBox, InitialMessageRelayWrapsTheReceivedBox) {
  RelayWorld w(GetParam());
  proto::InitialUeMessage init;
  init.enb_id = w.enb->node();
  init.nas = proto::NasServiceRequest{w.mlb->mme_code(), 5, 0};
  const proto::PduRef in = proto::box(init);
  w.enb->rel.send(w.mlb->node(), in);
  w.run();
  EXPECT_EQ(w.forwarded().inner.get(), in.get());
  EXPECT_EQ(w.forwarded().guti.m_tmsi, 5u);
}

TEST_P(OneBox, OverloadResteerForwardsTheShedRequestsBox) {
  RelayWorld w(GetParam());
  proto::InitialUeMessage init;
  init.nas = proto::NasServiceRequest{w.mlb->mme_code(), 6, 0};
  const proto::PduRef request = proto::box(init);
  // A level-0 shed always re-steers; with one VM it goes back to the
  // shedder, wrapping the request it shed.
  w.vm->rel.send(w.mlb->node(),
                 proto::box(proto::OverloadReject{
                     .mmp_node = w.vm->node(),
                     .origin = w.enb->node(),
                     .guti = proto::Guti{1, 1, w.mlb->mme_code(), 6},
                     .inner = request}));
  w.run();
  EXPECT_EQ(w.mlb->overload_resteers(), 1u);
  EXPECT_EQ(w.forwarded().inner.get(), request.get());
}

TEST_P(OneBox, GeoRelaysForwardTheReceivedBoxItself) {
  RelayWorld w(GetParam());
  const proto::Guti guti{1, 1, 1, 77};
  proto::GeoForward gf;
  gf.guti = guti;
  gf.inner = proto::box(proto::InitialUeMessage{});
  const proto::PduRef geo_forward = proto::box(gf);
  proto::ReplicaPush push;
  push.rec.guti = guti;
  push.geo = true;
  const proto::PduRef geo_replica = proto::box(push);
  w.sgw->rel.send(w.mlb->node(), geo_forward);
  w.sgw->rel.send(w.mlb->node(), geo_replica);
  w.run();
  ASSERT_EQ(w.vm->got.size(), 2u);
  EXPECT_EQ(w.vm->got[0].get(), geo_forward.get());
  EXPECT_EQ(w.vm->got[1].get(), geo_replica.get());
}

TEST_P(OneBox, MmpForwardsTheReceivedBoxToTheMaster) {
  // An MMP that holds no context for a Service Request forwards it to the
  // ring's master (here the Recorder) as the ClusterForward box it got.
  RelayWorld w(GetParam());
  core::MmpNode mmp(w.fabric, core::MmpNode::Config{});
  hash::ConsistentHashRing ring(5);
  ring.add_node(w.vm->node());
  mmp.set_ring(&ring);
  proto::ClusterForward fwd;
  fwd.origin = w.enb->node();
  fwd.guti = proto::Guti{1, 1, 1, 42};
  fwd.inner = proto::box(proto::InitialUeMessage{
      .nas = proto::NasServiceRequest{1, 42, 0}});
  const proto::PduRef sent = proto::box(fwd);
  w.sgw->rel.send(mmp.node(), sent);  // standing in for the MLB
  w.run();
  ASSERT_EQ(w.vm->got.size(), 1u);
  EXPECT_EQ(w.vm->got[0].get(), sent.get());
}

INSTANTIATE_TEST_SUITE_P(Transport, OneBox, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "Reliable" : "Bare";
                         });

/// Every (re)transmission of a reliable send is a TransportData whose inner
/// PDU is the box the caller handed to send(), and the receiver's unwrap
/// yields that box.
TEST(OneBoxTransport, EverySegmentCarriesTheSentBox) {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};
  epc::TransportConfig t;
  t.reliable = true;
  fabric.set_transport(t);

  struct Wire final : epc::Endpoint {
    epc::ReliableChannel rel;
    std::vector<proto::PduRef> segments;  // inner boxes of TransportData
    std::vector<proto::PduRef> delivered;
    explicit Wire(epc::Fabric& f) : Endpoint(f), rel(f, node()) {}
    void receive(sim::NodeId from, const proto::PduRef& pdu) override {
      if (const auto* d = proto::message_if<proto::TransportData>(pdu->value))
        segments.push_back(d->inner);
      if (const proto::PduRef* app = rel.unwrap(from, pdu))
        delivered.push_back(*app);
    }
  } a(fabric), b(fabric);

  // Lose the first transmissions: the retransmissions must carry the same
  // box again.
  net.schedule_link_down(a.node(), b.node(), Time::zero(),
                         Time::from_sec(0.3));
  proto::CreateSessionRequest req;
  req.imsi = 41;
  const proto::PduRef sent = proto::box(req);
  a.rel.send(b.node(), sent);
  engine.run_until(Time::from_sec(5.0));

  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].get(), sent.get());
  ASSERT_GE(b.segments.size(), 1u);
  for (const proto::PduRef& inner : b.segments)
    EXPECT_EQ(inner.get(), sent.get());
  EXPECT_GE(a.rel.retransmits(), 1u);
}

}  // namespace
}  // namespace scale
