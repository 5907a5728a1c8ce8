// ClusterVm plumbing shared by SIMPLE VMs, dMME nodes and SCALE MMPs:
// load reporting, reply tunneling, replica application, retirement.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using testbed::Testbed;

struct World {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  World() {
    site = &tb.add_site(1);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = 2;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    cluster->connect_enb(site->enb(0));
  }
};

TEST(ClusterVm, LoadReportsReachTheMlb) {
  World w;
  // Pin a known CPU backlog on MMP1 and let reports flow.
  w.cluster->mmp(0).cpu().consume(Duration::sec(2.0));
  w.tb.run_for(Duration::sec(1.0));
  // The MLB's view of MMP1 must exceed its view of (idle) MMP2 — the
  // load score includes queued seconds, so it can exceed 1.0.
  const double load1 = w.cluster->mlb().load_of(w.cluster->mmp(0).node());
  const double load2 = w.cluster->mlb().load_of(w.cluster->mmp(1).node());
  EXPECT_GT(load1, load2);
  EXPECT_GT(load1, 1.0);
}

TEST(ClusterVm, StaleReplicaPushIsIgnored) {
  World w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));
  ASSERT_TRUE(ue.registered());

  const std::uint64_t key = ue.guti()->key();
  core::MmpNode* holder = nullptr;
  for (auto& mmp : w.cluster->mmps())
    if (mmp->app().store().contains(key)) holder = mmp.get();
  ASSERT_NE(holder, nullptr);
  auto* ctx = holder->app().store().find(key);
  const std::uint32_t live_version = ctx->rec.version;
  ASSERT_GT(live_version, 0u);

  // Craft an outdated push (version 0) and deliver it directly.
  proto::ReplicaPush stale;
  stale.rec = ctx->rec;
  stale.rec.version = 0;
  stale.rec.tac = 4242;  // poison marker
  w.tb.fabric().send(w.cluster->mlb().node(), holder->node(),
                     proto::box(stale));
  w.tb.run_for(Duration::sec(1.0));

  EXPECT_EQ(holder->app().store().find(key)->rec.version, live_version);
  EXPECT_NE(holder->app().store().find(key)->rec.tac, 4242);
}

TEST(ClusterVm, ReplicaDeleteRemovesCopy) {
  World w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));
  const std::uint64_t key = ue.guti()->key();

  std::size_t copies = 0;
  for (auto& mmp : w.cluster->mmps())
    if (mmp->app().store().contains(key)) ++copies;
  ASSERT_EQ(copies, 2u);  // master + replica

  proto::ReplicaDelete del;
  del.guti = *ue.guti();
  for (auto& mmp : w.cluster->mmps())
    w.tb.fabric().send(w.cluster->mlb().node(), mmp->node(),
                       proto::box(del));
  w.tb.run_for(Duration::sec(1.0));
  for (auto& mmp : w.cluster->mmps())
    EXPECT_FALSE(mmp->app().store().contains(key));
}

TEST(ClusterVm, DetachCleansReplicaEverywhere) {
  World w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));
  const std::uint64_t key = ue.guti()->key();
  ASSERT_TRUE(ue.registered());

  ASSERT_TRUE(ue.detach());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_FALSE(ue.registered());
  for (auto& mmp : w.cluster->mmps())
    EXPECT_FALSE(mmp->app().store().contains(key))
        << "replica copies must not outlive the subscription";
}

TEST(ClusterVm, RequestCountersTrackProcedures) {
  World w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));
  ue.service_request();
  w.tb.run_for(Duration::sec(2.0));
  std::uint64_t handled = 0, pushed = 0;
  for (auto& mmp : w.cluster->mmps()) {
    handled += mmp->requests_handled();
    pushed += mmp->replicas_pushed();
  }
  EXPECT_EQ(handled, 2u);  // attach + service request
  EXPECT_GE(pushed, 2u);   // each completion replicated (plus idle sync)
}

}  // namespace
}  // namespace scale
