// SIMPLE baseline (E3): per-device routing table at the LB, round-robin
// assignment, whole-VM pairwise replication to one buddy.
#include <gtest/gtest.h>

#include <sstream>

#include "hash/md5.h"
#include "mme/simple.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using testbed::Testbed;

struct SimpleWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<mme::SimpleLb> lb;
  std::vector<std::unique_ptr<mme::SimpleVm>> vms;

  explicit SimpleWorld(std::size_t vm_count, Testbed::Config tb_cfg = {},
                       std::size_t enbs = 1)
      : tb(tb_cfg) {
    site = &tb.add_site(enbs);
    mme::SimpleLb::Config lb_cfg;
    lb = std::make_unique<mme::SimpleLb>(tb.fabric(), lb_cfg);
    for (std::size_t i = 0; i < vm_count; ++i) {
      mme::ClusterVm::Config vm_cfg;
      vm_cfg.sgw = site->sgw->node();
      vm_cfg.hss = tb.hss().node();
      vm_cfg.app.assign_guti_locally = false;
      vm_cfg.app.mme_code = lb_cfg.mme_code;
      vm_cfg.app.vm_code = static_cast<std::uint8_t>(i + 1);
      vms.push_back(std::make_unique<mme::SimpleVm>(tb.fabric(), vm_cfg));
      lb->add_vm(*vms.back());
    }
    for (auto& enb : site->enbs)
      enb->add_mme(lb->node(), lb_cfg.mme_code, 1.0);
  }
};

TEST(SimpleBaseline, AttachThroughLbCompletes) {
  SimpleWorld w(3);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.registered());
  EXPECT_TRUE(ue.connected());
  EXPECT_EQ(w.lb->routing_table_size(), 1u);
}

TEST(SimpleBaseline, AttachCompletesOverReliableTransport) {
  // The LB must unwrap the transport shim like every other endpoint.
  Testbed::Config tb_cfg;
  tb_cfg.transport.reliable = true;
  SimpleWorld w(3, tb_cfg);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  EXPECT_TRUE(ue.attach());
  w.tb.run_for(Duration::sec(5.0));
  EXPECT_TRUE(ue.registered());
}

TEST(SimpleBaseline, RoundRobinSpreadsDevicesUniformly) {
  SimpleWorld w(3);
  w.tb.make_ues(*w.site, 90, {0.5});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(6.0));

  // ~30 masters per VM (round robin), modulo re-attach retries.
  for (auto& vm : w.vms) {
    const auto masters = vm->app().store().count(epc::ContextRole::kMaster);
    EXPECT_NEAR(static_cast<double>(masters), 30.0, 8.0);
  }
  EXPECT_EQ(w.lb->routing_table_size(), 90u);
}

TEST(SimpleBaseline, EveryContextReplicatedToBuddyOnly) {
  SimpleWorld w(3);
  w.tb.make_ues(*w.site, 30, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(10.0));

  // Pairwise replication: VM v's masters appear as replicas ONLY at v+1.
  for (std::size_t v = 0; v < w.vms.size(); ++v) {
    auto& vm = *w.vms[v];
    auto& buddy = *w.vms[(v + 1) % w.vms.size()];
    auto& other = *w.vms[(v + 2) % w.vms.size()];
    const auto master_keys = vm.app().store().keys_if(
        [](const mme::UeContext& c) {
          return c.role == epc::ContextRole::kMaster;
        });
    ASSERT_FALSE(master_keys.empty());
    for (std::uint64_t key : master_keys) {
      EXPECT_TRUE(buddy.app().store().contains(key))
          << "master of VM" << v << " missing at buddy";
      EXPECT_FALSE(other.app().store().contains(key))
          << "SIMPLE must not spread replicas beyond the buddy";
    }
  }
}

TEST(SimpleBaseline, RoutingTableGrowsWithPopulation) {
  // The scalability liability SCALE removes: one LB entry per device.
  SimpleWorld w(2);
  w.tb.make_ues(*w.site, 50, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(5.0));
  EXPECT_EQ(w.lb->routing_table_size(), 50u);
  w.tb.make_ues(*w.site, 25, {0.5});
  w.tb.register_all(*w.site, Duration::sec(2.0), Duration::sec(5.0));
  EXPECT_EQ(w.lb->routing_table_size(), 75u);
}

TEST(SimpleBaseline, ServiceRequestAfterIdleServedFromState) {
  SimpleWorld w(2);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(8.0));  // attach + idle
  ASSERT_TRUE(ue.registered());
  ASSERT_FALSE(ue.connected());
  EXPECT_TRUE(ue.service_request());
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_TRUE(ue.connected());
  EXPECT_EQ(ue.completed(proto::ProcedureType::kServiceRequest), 1u);
}

TEST(Determinism, SimpleGoldenDigest) {
  // Pins the SIMPLE front end: attach GUTIs and S6 answers, Active-mode
  // S1AP/S11 relays (SR, TAU, handover path switch), ClusterReply relays
  // and the buddy spill-over once a slowed VM reports overload.
  SimpleWorld w(3, {}, /*enbs=*/2);
  auto ues = w.tb.make_ues(*w.site, 150, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(6.0));
  w.vms[0]->cpu().set_speed_factor(0.02);
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
     << '|' << w.lb->routing_table_size();
  for (const auto& vm : w.vms)
    os << '|' << int{vm->vm_code()} << ':' << vm->requests_handled() << ':'
       << vm->app().store().size();
  for (const epc::Ue* ue : ues) {
    if (!ue->guti()) continue;
    os << '|' << ue->guti()->m_tmsi << '.' << int{ue->mme_ue_id().mmp_id()}
       << (ue->connected() ? 'c' : 'i');
  }
  const auto delays = w.tb.delays().merged();
  os << '|' << delays.count() << ':' << delays.percentile(0.99);
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(os.str())),
            "d0a4f0b3964d480c96e04d2e47d608f6");
}

}  // namespace
}  // namespace scale
