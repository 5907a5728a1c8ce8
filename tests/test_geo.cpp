// Geo-multiplexing (§4.5.2): budgets and gossip, remote-DC choice, external
// replication, overload offload across DCs, and GeoReject self-healing.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using epc::ContextRole;
using testbed::Testbed;

// Two DCs, each with its own site (S-GW + eNB) and ScaleCluster, linked by
// a configurable inter-DC propagation delay.
struct GeoWorld {
  Testbed tb;
  std::vector<Testbed::Site*> sites;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;

  explicit GeoWorld(std::size_t dcs = 2,
                    Duration inter_dc = Duration::ms(20.0),
                    double budget_fraction = 0.1) {
    for (std::uint32_t dc = 0; dc < dcs; ++dc) {
      sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                   Duration::ms(1.0), dc));
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);  // disjoint GUTI spaces
      cfg.initial_mmps = 2;
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 100);
      cfg.geo.budget_fraction = budget_fraction;
      cfg.geo.gossip_interval = Duration::ms(200.0);
      cfg.provisioner.devices_per_vm = 100;  // small Sm in device units
      clusters.push_back(std::make_unique<core::ScaleCluster>(
          tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
      clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
      tb.assign_dc(clusters[dc]->mlb().node(), dc);
      for (auto& mmp : clusters[dc]->mmps())
        tb.assign_dc(mmp->node(), dc);
    }
    for (std::uint32_t a = 0; a < dcs; ++a) {
      for (std::uint32_t b = 0; b < dcs; ++b) {
        if (a == b) continue;
        tb.network().set_dc_latency(a, b, inter_dc);
        clusters[a]->geo().add_peer(b, clusters[b]->mlb().node(), inter_dc);
      }
    }
    for (auto& c : clusters) c->start();
  }
};

TEST(Geo, GossipPropagatesAvailableBudget) {
  GeoWorld w;
  w.clusters[1]->geo().set_budget(42.0);
  w.tb.run_for(Duration::sec(2.0));
  // DC0 learned DC1's Ŝ via gossip.
  EXPECT_GT(w.clusters[0]->geo().peer_available(1), 40.0);
  EXPECT_GT(w.clusters[1]->geo().gossips_sent(), 2u);
}

TEST(Geo, BudgetAccounting) {
  Testbed tb;
  auto& site = tb.add_site(1);
  core::GeoManager geo(tb.fabric(), /*local_mlb=*/1,
                       core::GeoManager::Config{});
  (void)site;
  geo.set_budget(2.0);
  EXPECT_TRUE(geo.accept_external());
  EXPECT_TRUE(geo.accept_external());
  EXPECT_FALSE(geo.accept_external());  // full
  EXPECT_DOUBLE_EQ(geo.available(), 0.0);
  geo.release_external();
  EXPECT_TRUE(geo.accept_external());
}

TEST(Geo, ChooseRemoteFavorsNearbyDcs) {
  Testbed tb;
  core::GeoManager geo(tb.fabric(), 1, core::GeoManager::Config{});
  geo.add_peer(1, 10, Duration::ms(5.0));
  geo.add_peer(2, 20, Duration::ms(50.0));
  // Both advertise budget.
  geo.on_gossip(proto::GeoBudgetGossip{1, 100.0});
  geo.on_gossip(proto::GeoBudgetGossip{2, 100.0});

  Rng rng(1);
  int near = 0, far = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto pick = geo.choose_remote(rng);
    ASSERT_TRUE(pick.has_value());
    (*pick == 1 ? near : far)++;
  }
  // p ∝ 1/D: 10:1 ratio expected — but both are picked (no hot-spotting).
  EXPECT_NEAR(static_cast<double>(near) / (near + far), 10.0 / 11.0, 0.02);
  EXPECT_GT(far, 0);
}

TEST(Geo, ChooseRemoteSkipsExhaustedDcs) {
  Testbed tb;
  core::GeoManager geo(tb.fabric(), 1, core::GeoManager::Config{});
  geo.add_peer(1, 10, Duration::ms(5.0));
  geo.add_peer(2, 20, Duration::ms(50.0));
  geo.on_gossip(proto::GeoBudgetGossip{1, 0.0});  // DC1 full
  geo.on_gossip(proto::GeoBudgetGossip{2, 10.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto pick = geo.choose_remote(rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 2u);
  }
  geo.on_gossip(proto::GeoBudgetGossip{2, 0.0});
  EXPECT_FALSE(geo.choose_remote(rng).has_value());
}

TEST(Geo, EpochPushesExternalReplicasOfHotDevices) {
  GeoWorld w;
  auto ues = w.tb.make_ues(*w.sites[0], 40, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(3.0), Duration::sec(8.0));
  // Seed high access probability (profiling database) and run an epoch.
  w.clusters[0]->for_each_master(
      [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
  w.tb.run_for(Duration::sec(1.0));  // gossip Ŝ around first
  const auto report = w.clusters[0]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));  // let pushes land

  EXPECT_GT(report.geo_pushes, 0u);
  // DC1 holds External contexts now.
  std::size_t external = 0;
  for (auto& mmp : w.clusters[1]->mmps())
    external += mmp->app().store().count(ContextRole::kExternal);
  EXPECT_GT(external, 0u);
  EXPECT_GT(w.clusters[1]->geo().used(), 0.0);
  (void)ues;
}

TEST(Geo, OverloadedMmpOffloadsToRemoteDcAndRequestCompletes) {
  GeoWorld w;
  auto ues = w.tb.make_ues(*w.sites[0], 40, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(3.0), Duration::sec(8.0));
  w.clusters[0]->for_each_master(
      [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
  w.tb.run_for(Duration::sec(1.0));
  w.clusters[0]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));

  // Saturate every DC0 MMP beyond the offload threshold.
  for (auto& mmp : w.clusters[0]->mmps())
    mmp->cpu().consume(Duration::sec(20.0));
  w.tb.run_for(Duration::sec(1.0));  // load reports / trackers update

  // Fire service requests; externally replicated ones should be served
  // remotely rather than queueing behind 20 s of local backlog.
  w.tb.delays().clear();
  std::size_t issued = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request())
      ++issued;
  w.tb.run_for(Duration::sec(8.0));

  std::uint64_t offloads = 0, served_remote = 0;
  for (auto& mmp : w.clusters[0]->mmps()) offloads += mmp->geo_offloads();
  for (auto& mmp : w.clusters[1]->mmps()) served_remote += mmp->geo_served();
  EXPECT_GT(offloads, 0u);
  EXPECT_GT(served_remote, 0u);
  // Remotely served requests finish in ~inter-DC RTT time, far below the
  // local 20 s backlog.
  ASSERT_TRUE(w.tb.delays().has("service_request"));
  EXPECT_LT(w.tb.delays().bucket("service_request").percentile(0.5), 2000.0);
  (void)issued;
}

TEST(Geo, MissingExternalReplicaBouncesHomeViaGeoReject) {
  GeoWorld w;
  auto ues = w.tb.make_ues(*w.sites[0], 10, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(2.0), Duration::sec(8.0));

  // Claim external replication WITHOUT actually pushing state: mark every
  // local copy (master and replica) as externally replicated at DC1.
  for (auto& mmp : w.clusters[0]->mmps())
    mmp->app().store().for_each(
        [](mme::UeContext& ctx) { ctx.rec.external_dc = 1; });
  for (auto& mmp : w.clusters[0]->mmps())
    mmp->cpu().consume(Duration::sec(10.0));
  w.tb.run_for(Duration::sec(1.0));

  std::size_t issued = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request())
      ++issued;
  w.tb.run_for(Duration::sec(20.0));

  std::uint64_t rejects = 0;
  for (auto& mmp : w.clusters[1]->mmps()) rejects += mmp->geo_rejects();
  EXPECT_GT(rejects, 0u);
  // Despite the bounce, every request is eventually served at home (the
  // devices may have cycled back to Idle by now — count completions).
  ASSERT_TRUE(w.tb.delays().has("service_request"));
  EXPECT_GE(w.tb.delays().bucket("service_request").count() + w.tb.failures(),
            issued);
  // And the bounced contexts self-healed: the stale external marker is
  // gone wherever the request was re-processed.
  std::size_t healed = 0;
  for (auto& mmp : w.clusters[0]->mmps())
    mmp->app().store().for_each([&](mme::UeContext& ctx) {
      if (ctx.rec.external_dc < 0) ++healed;
    });
  EXPECT_GT(healed, 0u);
}

TEST(Geo, PerVmQuotaConservesBudget) {
  Testbed tb;
  core::GeoManager geo(tb.fabric(), 1, core::GeoManager::Config{});
  geo.set_budget(10.0);
  EXPECT_EQ(geo.per_vm_external_quota(4), 3u);  // ceil(10/4)
  EXPECT_EQ(geo.per_vm_external_quota(0), 0u);
}

}  // namespace
}  // namespace scale
