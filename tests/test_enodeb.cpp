// eNodeB emulator behaviours in isolation, observed through a scripted
// MME-side probe endpoint: static assignment rules, weighted selection,
// exclusion on redirect, S1 connection bookkeeping.
#include <gtest/gtest.h>

#include <map>

#include "epc/enodeb.h"
#include "epc/ue.h"
#include "testbed/testbed.h"

namespace scale::epc {
namespace {

class MmeProbe : public Endpoint {
 public:
  explicit MmeProbe(Fabric& fabric) : Endpoint(fabric) {}

  void receive(NodeId, const proto::PduRef& ref) override {
    const proto::Pdu& pdu = ref->value;
    if (const auto* s1ap = std::get_if<proto::S1apMessage>(&pdu)) {
      if (std::holds_alternative<proto::InitialUeMessage>(*s1ap))
        ++initial_count;
    }
  }

  int initial_count = 0;
};

struct World {
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB enb{fabric};
  MmeProbe mme_a{fabric};
  MmeProbe mme_b{fabric};
  MmeProbe mme_c{fabric};
};

std::unique_ptr<Ue> make_ue(World& w, proto::Imsi imsi) {
  Ue::Config cfg;
  cfg.imsi = imsi;
  cfg.secret_key = imsi * 7;
  cfg.guard_timeout = Duration::zero();  // disabled: probes never answer
  return std::make_unique<Ue>(w.engine, &w.enb, cfg);
}

TEST(EnodeB, WeightedSelectionFollowsWeights) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, /*weight=*/1.0);
  w.enb.add_mme(w.mme_b.node(), 2, /*weight=*/3.0);

  std::vector<std::unique_ptr<Ue>> ues;
  for (int i = 0; i < 2000; ++i) {
    ues.push_back(make_ue(w, 1000 + i));
    ues.back()->attach();  // unregistered → weighted pick
  }
  w.engine.run();
  const double share_b =
      static_cast<double>(w.mme_b.initial_count) /
      (w.mme_a.initial_count + w.mme_b.initial_count);
  EXPECT_NEAR(share_b, 0.75, 0.04);
}

TEST(EnodeB, GutiCodePinsRegisteredDevices) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 2, 1.0);

  // A TAU carries the GUTI; its MME code must fully determine the target.
  for (int i = 0; i < 50; ++i) {
    proto::NasTauRequest tau;
    tau.guti = proto::Guti{1, 1, /*code=*/2, static_cast<std::uint32_t>(i)};
    auto ue = make_ue(w, 5000 + i);
    // Force registered+idle state through the public radio API is heavy;
    // send via the initial-NAS entry point directly instead.
    w.enb.ue_initial_nas(*ue, proto::NasMessage{tau});
    w.engine.run();
  }
  EXPECT_EQ(w.mme_a.initial_count, 0);
  EXPECT_EQ(w.mme_b.initial_count, 50);
}

TEST(EnodeB, ExclusionOverridesGutiRoute) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 2, 1.0);

  proto::NasAttachRequest attach;
  attach.imsi = 777;
  attach.old_guti = proto::Guti{1, 1, /*code=*/1, 42};  // points at A
  auto ue = make_ue(w, 777);
  w.enb.ue_initial_nas(*ue, proto::NasMessage{attach},
                       /*exclude=*/w.mme_a.node());
  w.engine.run();
  EXPECT_EQ(w.mme_a.initial_count, 0);
  EXPECT_EQ(w.mme_b.initial_count, 1);
}

TEST(EnodeB, UnknownCodeFallsBackToWeightedPick) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);

  proto::NasServiceRequest sr;
  sr.mme_code = 99;  // no pool member has this code
  sr.m_tmsi = 5;
  auto ue = make_ue(w, 888);
  w.enb.ue_initial_nas(*ue, proto::NasMessage{sr});
  w.engine.run();
  EXPECT_EQ(w.mme_a.initial_count, 1);
}

TEST(EnodeB, SameCodeSplitsAcrossFrontEnds) {
  // Two "MMEs" with the same code (multiple MLB VMs of one pool): GUTI
  // routing must spread between them, not always pick the first.
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 1, 1.0);

  for (int i = 0; i < 600; ++i) {
    proto::NasTauRequest tau;
    tau.guti = proto::Guti{1, 1, 1, static_cast<std::uint32_t>(i)};
    auto ue = make_ue(w, 9000 + i);
    w.enb.ue_initial_nas(*ue, proto::NasMessage{tau});
    w.engine.run();
  }
  EXPECT_GT(w.mme_a.initial_count, 200);
  EXPECT_GT(w.mme_b.initial_count, 200);
}

TEST(EnodeB, ConnectionsEraseOnRelease) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  auto ue = make_ue(w, 4242);
  ue->attach();
  w.engine.run();
  ASSERT_EQ(w.enb.connection_count(), 1u);

  proto::UeContextReleaseCommand rel;
  rel.enb_id = w.enb.node();
  rel.enb_ue_id = ue->s1_conn();
  rel.cause = proto::ReleaseCause::kUserInactivity;
  w.fabric.send(w.mme_a.node(), w.enb.node(), proto::box(rel));
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 0u);
}

TEST(EnodeB, ReattachReplacesStaleConnection) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  auto ue = make_ue(w, 31337);
  ue->attach();
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 1u);
  // The probe never answers; a retry via the radio API must replace, not
  // leak, the S1 connection.
  proto::NasAttachRequest retry;
  retry.imsi = ue->imsi();
  w.enb.ue_initial_nas(*ue, proto::NasMessage{retry});
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 1u) << "stale S1 connection leaked";
}

TEST(EnodeB, RrcSupervisionReleasesStaleConnections) {
  // With supervision enabled, a connection whose MME never answers (dead
  // core node) is released locally and the UE returns to Idle.
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB::Config cfg;
  cfg.rrc_inactivity = Duration::sec(2.0);
  EnodeB enb(fabric, cfg);
  MmeProbe dead(fabric);
  enb.add_mme(dead.node(), 1, 1.0);

  Ue::Config ue_cfg;
  ue_cfg.imsi = 99;
  ue_cfg.secret_key = 1;
  ue_cfg.guard_timeout = Duration::zero();
  Ue ue(engine, &enb, ue_cfg);
  ue.attach();
  engine.run_until(Time::from_sec(0.5));
  ASSERT_EQ(enb.connection_count(), 1u);

  engine.run_until(Time::from_sec(5.0));
  EXPECT_EQ(enb.connection_count(), 0u);
  EXPECT_GE(enb.rrc_releases(), 1u);
  EXPECT_FALSE(ue.connected());
  // The sweep stops once no connections remain (the engine can drain).
  engine.run();
  EXPECT_TRUE(engine.idle());
}

TEST(EnodeB, RrcSupervisionSparesActiveConnections) {
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB::Config cfg;
  cfg.rrc_inactivity = Duration::sec(2.0);
  EnodeB enb(fabric, cfg);
  MmeProbe mme(fabric);
  enb.add_mme(mme.node(), 1, 1.0);

  Ue::Config ue_cfg;
  ue_cfg.imsi = 98;
  ue_cfg.secret_key = 1;
  ue_cfg.guard_timeout = Duration::zero();
  Ue ue(engine, &enb, ue_cfg);
  ue.attach();
  engine.run_until(Time::from_sec(0.5));
  ASSERT_EQ(enb.connection_count(), 1u);

  // Keep the connection chatty: uplink NAS every second.
  for (int i = 1; i <= 6; ++i) {
    engine.at(Time::from_sec(static_cast<double>(i)), [&]() {
      enb.ue_uplink_nas(ue, proto::NasMessage{proto::NasAttachComplete{}});
    });
  }
  engine.run_until(Time::from_sec(6.5));
  EXPECT_EQ(enb.connection_count(), 1u)
      << "activity must keep the RRC connection alive";
  EXPECT_EQ(enb.rrc_releases(), 0u);
}

}  // namespace
}  // namespace scale::epc
