// End-to-end integration tests of the classic 3GPP baseline: UE ↔ eNodeB ↔
// MmeNode ↔ {HSS, S-GW} across the simulated fabric. These exercise every
// §2 procedure over the real message exchanges.
#include <gtest/gtest.h>

#include "mme/cluster_vm.h"
#include "mme/pool.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using testbed::Testbed;

struct BaselineWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<mme::MmePool> pool;

  explicit BaselineWorld(std::size_t mmes = 1, std::size_t enbs = 2) {
    site = &tb.add_site(enbs);
    mme::MmePool::Config cfg;
    cfg.node_template.sgw = site->sgw->node();
    cfg.node_template.hss = tb.hss().node();
    cfg.initial_count = mmes;
    pool = std::make_unique<mme::MmePool>(tb.fabric(), cfg);
    for (auto& enb : site->enbs) pool->connect_enb(*enb);
  }
};

TEST(MmeIntegration, AttachCompletesEndToEnd) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(2.0));

  EXPECT_TRUE(ue.registered());
  EXPECT_TRUE(ue.connected());
  ASSERT_TRUE(ue.guti().has_value());
  EXPECT_EQ(ue.guti()->mme_code, w.pool->mme(0).mme_code());
  EXPECT_EQ(ue.completed(proto::ProcedureType::kAttach), 1u);
  // The MME holds exactly one master context with a live S11 session.
  auto& store = w.pool->mme(0).app().store();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(w.site->sgw->session_count(), 1u);
  // The HSS actually served the EPS-AKA vector.
  EXPECT_EQ(w.tb.hss().auth_requests_served(), 1u);
  EXPECT_EQ(w.tb.failures(), 0u);
  // And the MME registered itself as the serving node (Update Location).
  EXPECT_EQ(w.tb.hss().serving_mme_of(ue.imsi()),
            static_cast<std::uint32_t>(w.pool->mme(0).mme_code()));
}

TEST(MmeIntegration, AttachWrongKeyFailsAuthentication) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  // Corrupt the HSS-side key by re-provisioning with a different one.
  w.tb.hss().provision_subscriber(ue.imsi(), ue.secret_key() ^ 0xDEAD);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));

  EXPECT_FALSE(ue.connected());
  // At least one auth failure; the testbed's auto-reattach may retry.
  EXPECT_GE(w.pool->mme(0).app().counters().auth_failures, 1u);
}

TEST(MmeIntegration, InactivityMovesDeviceToIdleAndReleasesBearer) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(1.0));
  ASSERT_TRUE(ue.connected());
  // Default inactivity timeout is 5 s.
  w.tb.run_for(Duration::sec(7.0));
  EXPECT_TRUE(ue.registered());
  EXPECT_FALSE(ue.connected());
  EXPECT_EQ(w.pool->mme(0).app().counters().idle_transitions, 1u);
}

TEST(MmeIntegration, ServiceRequestReactivatesIdleDevice) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));  // attach + fall idle
  ASSERT_FALSE(ue.connected());

  EXPECT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_TRUE(ue.connected());
  EXPECT_EQ(ue.completed(proto::ProcedureType::kServiceRequest), 1u);
  EXPECT_TRUE(w.tb.delays().has("service_request"));
}

TEST(MmeIntegration, TrackingAreaUpdateWhileIdle) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));
  ASSERT_FALSE(ue.connected());

  EXPECT_TRUE(ue.tracking_area_update());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kTrackingAreaUpdate), 1u);
  EXPECT_FALSE(ue.connected());  // TAU does not activate the device
}

TEST(MmeIntegration, HandoverSwitchesPathToNewEnodeB) {
  BaselineWorld w(1, 2);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(1.0));
  ASSERT_TRUE(ue.connected());

  EXPECT_TRUE(ue.handover(w.site->enb(1)));
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kHandover), 1u);
  EXPECT_EQ(ue.serving_enb(), &w.site->enb(1));
  EXPECT_TRUE(ue.connected());
  // MME context now points at the new eNodeB.
  auto* ctx = w.pool->mme(0).app().store().find(ue.guti()->key());
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->rec.enb_id, w.site->enb(1).node());
}

TEST(MmeIntegration, DetachRemovesContextAndSession) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(1.0));
  ASSERT_TRUE(ue.registered());

  EXPECT_TRUE(ue.detach());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_FALSE(ue.registered());
  EXPECT_EQ(w.pool->mme(0).app().store().size(), 0u);
  EXPECT_EQ(w.site->sgw->session_count(), 0u);
}

TEST(MmeIntegration, DownlinkDataTriggersPagingAndReactivation) {
  BaselineWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));  // idle now
  ASSERT_FALSE(ue.connected());

  const proto::Teid teid = w.site->sgw->teid_for(ue.imsi());
  ASSERT_TRUE(teid.valid());
  EXPECT_TRUE(w.site->sgw->inject_downlink_data(teid));
  w.tb.run_for(Duration::sec(2.0));

  EXPECT_TRUE(ue.connected());  // paged -> service request -> active
  EXPECT_GE(w.pool->mme(0).app().counters().pagings_sent, 1u);
  EXPECT_GE(w.site->enb(0).paging_hits() + w.site->enb(1).paging_hits(), 1u);
}

TEST(MmeIntegration, StaticAssignmentPinsDeviceToOneMme) {
  BaselineWorld w(/*mmes=*/3);
  std::vector<epc::Ue*> ues = w.tb.make_ues(*w.site, 30, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0));

  // Each device's GUTI carries its serving MME's code; all later requests
  // route there. Idle them, then service-request and verify no movement.
  w.tb.run_for(Duration::sec(8.0));
  std::vector<std::uint8_t> codes;
  for (epc::Ue* ue : ues) {
    ASSERT_TRUE(ue->registered());
    codes.push_back(ue->guti()->mme_code);
    ue->service_request();
  }
  w.tb.run_for(Duration::sec(2.0));
  for (std::size_t i = 0; i < ues.size(); ++i) {
    ASSERT_TRUE(ues[i]->registered());
    EXPECT_EQ(ues[i]->guti()->mme_code, codes[i])
        << "device " << i << " moved MMEs without a redirect";
  }
  // And the population is spread across pool members (weighted selection).
  std::size_t with_devices = 0;
  for (auto& node : w.pool->mmes())
    if (node->app().store().size() > 0) ++with_devices;
  EXPECT_EQ(with_devices, 3u);
}

// The StateTransfer install lives in mme::MmeHost, so the classic MME and
// a cluster VM must take a transferred context the same way.

/// Sends StateTransfers and counts the acks that come back.
struct TransferPeer final : epc::Endpoint {
  explicit TransferPeer(epc::Fabric& f) : Endpoint(f) {}
  void receive(sim::NodeId, const proto::PduRef& ref) override {
    const proto::Pdu& pdu = ref->value;
    const auto* c = std::get_if<proto::ClusterMessage>(&pdu);
    if (c != nullptr && std::holds_alternative<proto::StateTransferAck>(*c))
      ++acks;
  }
  int acks = 0;
};

/// A ClusterVm that counts the contexts its install hands over.
struct ObservedVm final : mme::ClusterVm {
  using ClusterVm::ClusterVm;
  int adopted = 0;

 protected:
  void on_state_adopted(mme::UeContext&) override { ++adopted; }
};

TEST(MmeIntegration, StateTransferInstallsMasterAndAcksOnceOnBothHosts) {
  sim::Engine engine;
  const Duration hop = Duration::us(500);
  sim::Network net{hop};
  epc::Fabric fabric{engine, net};
  TransferPeer peer(fabric);
  mme::MmeNode classic(fabric, mme::MmeNode::Config{});
  ObservedVm vm(fabric, mme::ClusterVm::Config{});
  const Duration rx = mme::ServiceProfile{}.state_transfer_rx;

  proto::UeContextRecord rec;
  rec.imsi = 4242;
  rec.guti = proto::Guti{1, 1, 9, 77};
  rec.version = 3;
  for (mme::MmeHost* host : {static_cast<mme::MmeHost*>(&classic),
                             static_cast<mme::MmeHost*>(&vm)}) {
    SCOPED_TRACE(host == &classic ? "MmeNode" : "ClusterVm");
    peer.acks = 0;
    const Time t0 = engine.now();
    const Duration busy0 = host->cpu().cumulative_busy();
    proto::StateTransfer xfer;
    xfer.rec = rec;
    fabric.send(peer.node(), host->node(),
                proto::box(xfer));
    // Delivered, but not installed until state_transfer_rx of CPU has run.
    engine.run_until(t0 + hop + rx - Duration::us(1));
    EXPECT_FALSE(host->app().store().contains(rec.guti.key()));
    engine.run_until(t0 + hop + rx);
    const mme::UeContext* ctx = host->app().store().find(rec.guti.key());
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->role, epc::ContextRole::kMaster);
    EXPECT_EQ(ctx->rec.version, 3u);
    EXPECT_EQ(host->cpu().cumulative_busy() - busy0, rx);
    engine.run_until(t0 + hop + rx + hop + Duration::ms(10.0));
    EXPECT_EQ(peer.acks, 1);
  }
  EXPECT_EQ(classic.transfers_received(), 1u);
  EXPECT_EQ(vm.adopted, 1);
}

}  // namespace
}  // namespace scale
