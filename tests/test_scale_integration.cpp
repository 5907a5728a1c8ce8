// End-to-end SCALE cluster behaviour: full procedures through MLB + MMPs,
// consistent-hash placement, asynchronous replication, replica consistency,
// forward-to-master, and fine-grained load balancing.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using epc::ContextRole;
using testbed::Testbed;

struct ScaleWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit ScaleWorld(std::size_t mmps = 2, std::size_t enbs = 2,
                      core::ScaleCluster::Config cfg = {}) {
    site = &tb.add_site(enbs);
    cfg.initial_mmps = mmps;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    for (auto& enb : site->enbs) cluster->connect_enb(*enb);
  }

  core::MmpNode* holder_of(std::uint64_t key, ContextRole role) {
    for (auto& mmp : cluster->mmps()) {
      auto* ctx = mmp->app().store().find(key);
      if (ctx != nullptr && ctx->role == role) return mmp.get();
    }
    return nullptr;
  }
};

TEST(ScaleIntegration, FullProcedureSuiteWorks) {
  ScaleWorld w(3);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);

  ASSERT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());

  ASSERT_TRUE(ue.handover(w.site->enb(1)));
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kHandover), 1u);

  w.tb.run_for(Duration::sec(7.0));  // fall idle
  ASSERT_FALSE(ue.connected());

  ASSERT_TRUE(ue.tracking_area_update());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kTrackingAreaUpdate), 1u);

  ASSERT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_TRUE(ue.connected());

  w.tb.run_for(Duration::sec(7.0));
  ASSERT_TRUE(ue.detach());
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_FALSE(ue.registered());
  EXPECT_EQ(w.cluster->registered_devices(), 0u);
  EXPECT_EQ(w.tb.failures(), 0u);
}

TEST(ScaleIntegration, MasterPlacedByRingAndReplicatedToNeighbor) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  // Run long enough for attach + async replication + idle-time bulk sync.
  w.tb.run_for(Duration::sec(10.0));
  ASSERT_TRUE(ue.registered());

  const std::uint64_t key = ue.guti()->key();
  std::vector<hash::RingNodeId> prefs;
  w.cluster->ring().preference_list(key, 2, prefs);
  ASSERT_EQ(prefs.size(), 2u);

  core::MmpNode* master = w.holder_of(key, ContextRole::kMaster);
  core::MmpNode* replica = w.holder_of(key, ContextRole::kReplica);
  ASSERT_NE(master, nullptr);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(master->node(), prefs[0]);
  EXPECT_EQ(replica->node(), prefs[1]);
}

TEST(ScaleIntegration, ReplicaSyncedOnIdleTransition) {
  ScaleWorld w(3);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));  // attach + idle sync
  ASSERT_FALSE(ue.connected());

  const std::uint64_t key = ue.guti()->key();
  core::MmpNode* master = w.holder_of(key, ContextRole::kMaster);
  core::MmpNode* replica = w.holder_of(key, ContextRole::kReplica);
  ASSERT_NE(master, nullptr);
  ASSERT_NE(replica, nullptr);
  const auto& mrec = master->app().store().find(key)->rec;
  const auto& rrec = replica->app().store().find(key)->rec;
  // Replica matches the master's post-idle state (version included).
  EXPECT_EQ(rrec.version, mrec.version);
  EXPECT_EQ(rrec.active, mrec.active);
  EXPECT_FALSE(rrec.active);
}

TEST(ScaleIntegration, ReplicaCanServeWhenMasterLoaded) {
  // §4.6: at Idle→Active the MLB picks the least loaded of {master,
  // replica}. Saturate the master; the service request must still complete
  // (served by the replica) with low delay.
  ScaleWorld w(2);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.9);
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));
  ASSERT_FALSE(ue.connected());

  const std::uint64_t key = ue.guti()->key();
  core::MmpNode* master = w.holder_of(key, ContextRole::kMaster);
  ASSERT_NE(master, nullptr);
  // Pin a huge CPU backlog on the master and let load reports propagate.
  master->cpu().consume(Duration::sec(30.0));
  w.tb.run_for(Duration::sec(1.0));

  w.tb.delays().clear();
  ASSERT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
  // Served without waiting out the master's 30 s backlog.
  EXPECT_LT(w.tb.delays().bucket("service_request").max(), 1000.0);
}

TEST(ScaleIntegration, StatelessVmForwardsToMaster) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.01);
  // Suppress replication so only the master holds state.
  w.cluster->policy().local_copies = 1;
  ue.attach();
  w.tb.run_for(Duration::sec(10.0));
  ASSERT_FALSE(ue.connected());

  const std::uint64_t key = ue.guti()->key();
  core::MmpNode* master = w.holder_of(key, ContextRole::kMaster);
  ASSERT_NE(master, nullptr);
  EXPECT_EQ(w.holder_of(key, ContextRole::kReplica), nullptr);

  // Make the master look heavily loaded so the MLB prefers the (stateless)
  // second preference; that VM must forward to the master (§4.6 task 2).
  master->cpu().consume(Duration::sec(2.0));
  w.tb.run_for(Duration::sec(1.0));
  const auto forwards_before = [&] {
    std::uint64_t n = 0;
    for (auto& mmp : w.cluster->mmps()) n += mmp->forwarded_to_master();
    return n;
  }();
  ASSERT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(4.0));
  std::uint64_t forwards_after = 0;
  for (auto& mmp : w.cluster->mmps())
    forwards_after += mmp->forwarded_to_master();
  EXPECT_TRUE(ue.connected());
  EXPECT_GT(forwards_after, forwards_before);
}

TEST(ScaleIntegration, TokensSpreadOneVmsReplicasAcrossOthers) {
  // §4.3.2 placement: the replicas of one VM's masters land on MANY other
  // VMs (tokens), unlike SIMPLE's single buddy (Fig. 9's root cause).
  ScaleWorld w(5);
  w.tb.make_ues(*w.site, 300, {0.9});
  w.tb.register_all(*w.site, Duration::sec(5.0), Duration::sec(10.0));

  auto& vm0 = *w.cluster->mmps()[0];
  const auto master_keys = vm0.app().store().keys_if(
      [](const mme::UeContext& c) { return c.role == ContextRole::kMaster; });
  ASSERT_GT(master_keys.size(), 20u);
  std::set<sim::NodeId> replica_holders;
  for (std::uint64_t key : master_keys) {
    for (auto& mmp : w.cluster->mmps()) {
      if (mmp->node() == vm0.node()) continue;
      const auto* ctx = mmp->app().store().find(key);
      if (ctx != nullptr && ctx->role == ContextRole::kReplica)
        replica_holders.insert(mmp->node());
    }
  }
  EXPECT_GE(replica_holders.size(), 3u)
      << "token-based placement must spread replicas, not pick one buddy";
}

TEST(ScaleIntegration, LoadSpreadsAcrossVms) {
  ScaleWorld w(4);
  auto ues = w.tb.make_ues(*w.site, 200, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  workload::OpenLoopDriver::Config cfg;
  cfg.rate_per_sec = 400.0;
  workload::OpenLoopDriver driver(w.tb.engine(), ues, cfg);
  driver.start(w.tb.engine().now() + Duration::sec(10.0));
  w.tb.run_for(Duration::sec(12.0));

  // Every VM took a nontrivial share of the requests.
  for (auto& mmp : w.cluster->mmps())
    EXPECT_GT(mmp->requests_handled(), 100u);
}

}  // namespace
}  // namespace scale
