// dMME baseline: stateless processing nodes + centralized state store.
#include <gtest/gtest.h>

#include <sstream>

#include "hash/md5.h"
#include "mme/dmme.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using testbed::Testbed;

struct DmmeWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<mme::DmmeStateStore> store;
  std::unique_ptr<mme::DmmeLb> lb;
  std::vector<std::unique_ptr<mme::DmmeNode>> nodes;

  explicit DmmeWorld(std::size_t node_count = 3, Testbed::Config tb_cfg = {})
      : tb(tb_cfg) {
    site = &tb.add_site(2);
    store = std::make_unique<mme::DmmeStateStore>(tb.fabric());
    mme::DmmeLb::Config lb_cfg;
    lb = std::make_unique<mme::DmmeLb>(tb.fabric(), lb_cfg);
    for (std::size_t i = 0; i < node_count; ++i) {
      mme::DmmeNode::Config cfg;
      cfg.base.sgw = site->sgw->node();
      cfg.base.hss = tb.hss().node();
      cfg.base.app.assign_guti_locally = false;
      cfg.base.app.mme_code = lb_cfg.mme_code;
      cfg.base.app.vm_code = static_cast<std::uint8_t>(i + 1);
      cfg.store = store->node();
      nodes.push_back(std::make_unique<mme::DmmeNode>(tb.fabric(), cfg));
      lb->add_node(*nodes.back());
    }
    for (auto& enb : site->enbs)
      enb->add_mme(lb->node(), lb_cfg.mme_code, 1.0);
  }
};

TEST(Dmme, AttachWritesStateToStore) {
  DmmeWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.registered());
  EXPECT_TRUE(ue.connected());
  EXPECT_EQ(w.store->size(), 1u);
  EXPECT_GE(w.store->writes(), 1u);
}

TEST(Dmme, AttachCompletesOverReliableTransport) {
  // The LB unwraps the transport shim; the node <-> state-store path stays
  // outside it.
  Testbed::Config tb_cfg;
  tb_cfg.transport.reliable = true;
  DmmeWorld w(3, tb_cfg);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(5.0));
  EXPECT_TRUE(ue.registered());
}

TEST(Dmme, NodeEvictsLocalCopyAtIdle) {
  DmmeWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));  // attach + fall idle
  ASSERT_TRUE(ue.registered());
  ASSERT_FALSE(ue.connected());
  // Stateless between Active runs: no node holds a local copy, only the
  // store does.
  std::size_t local = 0;
  for (auto& node : w.nodes) local += node->app().store().size();
  EXPECT_EQ(local, 0u);
  EXPECT_EQ(w.store->size(), 1u);
}

TEST(Dmme, ServiceRequestFetchesFromStore) {
  DmmeWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));
  ASSERT_FALSE(ue.connected());
  const std::uint64_t fetches_before = w.store->fetches();

  EXPECT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
  EXPECT_GT(w.store->fetches(), fetches_before);
}

TEST(Dmme, AnyNodeCanServeAnyDevice) {
  // Round-robin at the LB: successive Active runs of the same device land
  // on different nodes, which only works because state is central.
  DmmeWorld w(3);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));
  std::set<std::uint8_t> serving_codes;
  for (int round = 0; round < 6; ++round) {
    if (!ue.connected() && ue.service_request()) {
      w.tb.run_for(Duration::sec(1.0));
      serving_codes.insert(ue.mme_ue_id().mmp_id());
    }
    w.tb.run_for(Duration::sec(7.0));  // back to idle (and evicted)
  }
  EXPECT_GE(serving_codes.size(), 2u)
      << "round robin should rotate the serving node";
  EXPECT_TRUE(ue.registered());
}

TEST(Dmme, DetachDeletesFromStore) {
  DmmeWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  ue.detach();
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_FALSE(ue.registered());
  EXPECT_EQ(w.store->size(), 0u);
}

TEST(Dmme, UnknownDeviceServiceRequestRejected) {
  DmmeWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));
  ASSERT_FALSE(ue.connected());
  // Wipe the store behind the system's back.
  proto::ReplicaDelete del;
  del.guti = *ue.guti();
  w.tb.fabric().send(w.lb->node(), w.store->node(), proto::box(del));
  w.tb.run_for(Duration::sec(1.0));
  ASSERT_EQ(w.store->size(), 0u);

  // Auto-reattach (testbed failure sink) recovers the device afterwards.
  ue.service_request();
  w.tb.run_for(Duration::sec(5.0));
  EXPECT_TRUE(ue.registered());
  EXPECT_GE(w.tb.failures(), 1u);
}

TEST(Dmme, ConcurrentFetchesForSameDeviceCoalesce) {
  DmmeWorld w(1);
  auto ues = w.tb.make_ues(*w.site, 40, {0.8});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(8.0));
  const std::uint64_t fetches_before = w.store->fetches();
  std::size_t issued = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request())
      ++issued;
  w.tb.run_for(Duration::sec(3.0));
  // One fetch per device run, not per message.
  EXPECT_LE(w.store->fetches() - fetches_before, issued + 5);
  std::size_t connected = 0;
  for (epc::Ue* ue : ues)
    if (ue->connected()) ++connected;
  EXPECT_GE(connected, issued * 9 / 10);
}

TEST(Determinism, DmmeGoldenDigest) {
  // Pins the dMME front end: attach GUTIs and S6 answers, round-robin
  // Idle→Active picks, Active-mode S1AP/S11 relays (SR, TAU, handover path
  // switch), ClusterReply relays and the state-store round trips.
  DmmeWorld w;
  auto ues = w.tb.make_ues(*w.site, 150, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(6.0));
  workload::OpenLoopDriver::Config cfg;
  cfg.rate_per_sec = 100.0;
  cfg.mix.service_request = 0.5;
  cfg.mix.tau = 0.3;
  cfg.mix.handover = 0.2;
  workload::OpenLoopDriver driver(w.tb.engine(), ues, cfg);
  driver.set_handover_targets(w.site->enb_ptrs());
  driver.start(w.tb.engine().now() + Duration::sec(5.0));
  w.tb.run_for(Duration::sec(8.0));

  std::ostringstream os;
  os << w.tb.engine().events_processed() << '|'
     << w.tb.network().messages_sent() << '|' << w.tb.network().bytes_sent()
     << '|' << w.store->fetches() << ':' << w.store->writes() << ':'
     << w.store->size();
  for (const auto& node : w.nodes)
    os << '|' << int{node->vm_code()} << ':' << node->requests_handled()
       << ':' << node->fetches_issued() << ':' << node->writebacks();
  for (const epc::Ue* ue : ues) {
    if (!ue->guti()) continue;
    os << '|' << ue->guti()->m_tmsi << '.' << int{ue->mme_ue_id().mmp_id()}
       << (ue->connected() ? 'c' : 'i');
  }
  const auto delays = w.tb.delays().merged();
  os << '|' << delays.count() << ':' << delays.percentile(0.99);
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(os.str())),
            "36d217f3837da6f1edc4879d2cc1d218");
}

}  // namespace
}  // namespace scale
