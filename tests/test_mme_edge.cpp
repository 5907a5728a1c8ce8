// MME application edge cases: rejects, unknown contexts, paging fan-out
// across tracking areas, authentication failures mid-procedure, and
// robustness against hostile/garbage input.
#include <gtest/gtest.h>

#include "mme/pool.h"
#include "proto/codec.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using testbed::Testbed;

TEST(MmeEdge, PagingFansOutOnlyToTrackingArea) {
  // Two sites = two tracking areas sharing one pool; paging for a device
  // in TA 1 must not wake eNodeBs in TA 2.
  Testbed tb;
  auto& site1 = tb.add_site(2, /*tac=*/1);
  auto& site2 = tb.add_site(2, /*tac=*/2);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site1.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  for (auto& enb : site1.enbs) pool.connect_enb(*enb);
  for (auto& enb : site2.enbs) pool.connect_enb(*enb);

  epc::Ue& ue = tb.make_ue(site1, 0, 0.5);
  ue.attach();
  tb.run_for(Duration::sec(8.0));
  ASSERT_FALSE(ue.connected());

  const proto::Teid teid = site1.sgw->teid_for(ue.imsi());
  ASSERT_TRUE(site1.sgw->inject_downlink_data(teid));
  tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
  EXPECT_GE(site1.enb(0).paging_hits() + site1.enb(1).paging_hits(), 1u);
  EXPECT_EQ(site2.enb(0).paging_hits() + site2.enb(1).paging_hits(), 0u);
}

TEST(MmeEdge, UnknownServiceRequestGetsReject) {
  Testbed::Config tcfg;
  tcfg.auto_reattach = false;
  Testbed tb(tcfg);
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  epc::Ue& ue = tb.make_ue(site, 0, 0.5);
  ue.attach();
  tb.run_for(Duration::sec(8.0));
  ASSERT_FALSE(ue.connected());

  // The MME loses the context (e.g. operator maintenance wipes the VM).
  pool.mme(0).app().remove_context(ue.guti()->key());
  EXPECT_TRUE(ue.service_request());
  tb.run_for(Duration::sec(2.0));
  EXPECT_FALSE(ue.registered());  // ServiceReject pushed it to Deregistered
  EXPECT_EQ(pool.mme(0).app().counters().rejects_sent, 1u);
  EXPECT_EQ(ue.failures(), 1u);
}

TEST(MmeEdge, UnknownSubscriberAttachRejected) {
  Testbed::Config tcfg;
  tcfg.auto_reattach = false;
  Testbed tb(tcfg);
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  // A UE whose IMSI the HSS does not know: build one manually.
  epc::Ue::Config ue_cfg;
  ue_cfg.imsi = 999'000'000'000'000ull;
  ue_cfg.secret_key = 42;
  epc::Ue ue(tb.engine(), &site.enb(0), ue_cfg);
  EXPECT_TRUE(ue.attach());
  tb.run_for(Duration::sec(3.0));
  EXPECT_FALSE(ue.registered());
  EXPECT_GE(pool.mme(0).app().counters().auth_failures, 1u);
}

TEST(MmeEdge, DuplicateAttachWhileFirstInFlight) {
  // A UE retriggers attach before the first completes (e.g. baseband
  // retry): the UE layer refuses the duplicate, so exactly one context and
  // one session result.
  Testbed tb;
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  epc::Ue& ue = tb.make_ue(site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  EXPECT_FALSE(ue.attach());
  EXPECT_FALSE(ue.attach());
  tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
  EXPECT_EQ(pool.mme(0).app().store().size(), 1u);
  EXPECT_EQ(site.sgw->session_count(), 1u);
}

TEST(MmeEdge, GarbagePdusDoNotCrashEntities) {
  Testbed tb;
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  // Shower every entity with PDUs it never expects.
  const std::vector<proto::PduRef> garbage = {
      proto::box(proto::Paging{123, 9}),
      proto::box(proto::CreateSessionResponse{}),
      proto::box(proto::AuthInfoAnswer{}),
      proto::box(proto::UplinkNasTransport{
          1, 2, proto::MmeUeId::make(9, 9),
          proto::NasMessage{proto::NasServiceRequest{}}}),
      proto::box(proto::LoadReport{1, 0.5, 3}),
      proto::box(proto::StateTransferAck{proto::Guti{}}),
  };
  const std::vector<sim::NodeId> targets = {
      pool.mme(0).node(), site.sgw->node(), tb.hss().node(),
      site.enb(0).node()};
  for (sim::NodeId target : targets)
    for (const auto& pdu : garbage)
      tb.fabric().send(site.enb(0).node(), target, pdu);
  tb.run_for(Duration::sec(1.0));

  // The system still works afterwards.
  epc::Ue& ue = tb.make_ue(site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
}

TEST(MmeEdge, IdleTimerResetByActivity) {
  Testbed tb;
  auto& site = tb.add_site(2);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.node_template.app.profile.inactivity_timeout = Duration::sec(3.0);
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  for (auto& enb : site.enbs) pool.connect_enb(*enb);

  epc::Ue& ue = tb.make_ue(site, 0, 0.5);
  ue.attach();
  tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.connected());
  // Keep the device busy with handovers every 2 s: the 3 s inactivity
  // timer must keep resetting.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ue.handover(site.enb(i % 2 == 0 ? 1 : 0)));
    tb.run_for(Duration::sec(2.0));
    EXPECT_TRUE(ue.connected()) << "activity must defer the idle release";
  }
  tb.run_for(Duration::sec(4.0));
  EXPECT_FALSE(ue.connected()) << "quiet period must trigger the release";
}

TEST(MmeEdge, DetachOfUnknownDeviceIsIdempotent) {
  Testbed tb;
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  epc::Ue& ue = tb.make_ue(site, 0, 0.5);
  ue.attach();
  tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  pool.mme(0).app().remove_context(ue.guti()->key());  // context gone
  EXPECT_TRUE(ue.detach());
  tb.run_for(Duration::sec(2.0));
  EXPECT_FALSE(ue.registered());  // accepted anyway — device is clean
}

}  // namespace
}  // namespace scale
