// OverloadGovernor — watermark state machine, priority-ordered shedding,
// deterministic token-bucket backpressure, paging-defer clamping, and the
// governed cluster end to end (DESIGN.md §9).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cluster.h"
#include "core/overload.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using core::OverloadGovernor;
using core::PressureLevel;
using core::PressureSignals;
using core::TokenBucket;
using proto::ProcedureType;
using testbed::Testbed;

OverloadGovernor::Config governor_cfg() {
  OverloadGovernor::Config cfg;
  cfg.enabled = true;
  cfg.backlog_ref = Duration::ms(100.0);
  cfg.low_watermark = 0.5;
  cfg.high_watermark = 1.0;
  cfg.overload_watermark = 1.5;
  cfg.hysteresis = 0.2;
  cfg.inflight_ref = 100000;  // keep the score backlog-driven in these tests
  return cfg;
}

PressureSignals backlog_ms(double ms) {
  PressureSignals s;
  s.backlog = Duration::ms(ms);
  return s;
}

TEST(OverloadGovernor, WatermarkHysteresisDoesNotFlap) {
  OverloadGovernor g(governor_cfg());

  ASSERT_EQ(g.assess(backlog_ms(40.0)), PressureLevel::kNominal);
  ASSERT_EQ(g.assess(backlog_ms(60.0)), PressureLevel::kElevated);
  EXPECT_EQ(g.level_changes(), 1u);

  // Oscillation around the low watermark (0.5) stays inside the hysteresis
  // band [0.3, 0.5): the level must latch, not flap.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(g.assess(backlog_ms(45.0)), PressureLevel::kElevated);
    EXPECT_EQ(g.assess(backlog_ms(55.0)), PressureLevel::kElevated);
  }
  EXPECT_EQ(g.level_changes(), 1u);

  // Clearing the watermark by the hysteresis margin releases the band.
  EXPECT_EQ(g.assess(backlog_ms(25.0)), PressureLevel::kNominal);
  EXPECT_EQ(g.level_changes(), 2u);
}

TEST(OverloadGovernor, AscendsImmediatelyDescendsBandByBand) {
  OverloadGovernor g(governor_cfg());

  // A surge jumps straight to kOverload — protection must not lag.
  EXPECT_EQ(g.assess(backlog_ms(160.0)), PressureLevel::kOverload);

  // 0.85 clears the overload watermark (1.5 − 0.2) but not the high one
  // (1.0 − 0.2): descent stops at kHigh.
  EXPECT_EQ(g.assess(backlog_ms(85.0)), PressureLevel::kHigh);
  EXPECT_EQ(g.assess(backlog_ms(75.0)), PressureLevel::kElevated);
  EXPECT_EQ(g.assess(backlog_ms(20.0)), PressureLevel::kNominal);
}

TEST(OverloadGovernor, ShedsInPriorityOrderAcrossBands) {
  OverloadGovernor g(governor_cfg());

  // kElevated: only TAU is shed.
  auto d = g.admit(backlog_ms(60.0), ProcedureType::kTrackingAreaUpdate);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.level, PressureLevel::kElevated);
  EXPECT_TRUE(g.admit(backlog_ms(60.0), ProcedureType::kServiceRequest)
                  .admit);
  EXPECT_TRUE(g.admit(backlog_ms(60.0), ProcedureType::kAttach).admit);

  // kHigh: Service Request and Handover join; Attach still admitted.
  EXPECT_FALSE(g.admit(backlog_ms(110.0), ProcedureType::kServiceRequest)
                   .admit);
  EXPECT_FALSE(g.admit(backlog_ms(110.0), ProcedureType::kHandover)
                   .admit);
  EXPECT_TRUE(g.admit(backlog_ms(110.0), ProcedureType::kAttach).admit);

  // kOverload: Attach sheds last; Detach never (it frees state).
  EXPECT_FALSE(g.admit(backlog_ms(160.0), ProcedureType::kAttach).admit);
  EXPECT_TRUE(g.admit(backlog_ms(160.0), ProcedureType::kDetach).admit);

  EXPECT_EQ(g.shed_of(ProcedureType::kTrackingAreaUpdate), 1u);
  EXPECT_EQ(g.shed_of(ProcedureType::kServiceRequest), 1u);
  EXPECT_EQ(g.shed_of(ProcedureType::kHandover), 1u);
  EXPECT_EQ(g.shed_of(ProcedureType::kAttach), 1u);
  EXPECT_EQ(g.shed_of(ProcedureType::kDetach), 0u);
  EXPECT_EQ(g.shed_total(), 4u);
}

TEST(OverloadGovernor, ShedRankOrdersTauBeforeSrBeforeAttach) {
  const int tau = OverloadGovernor::shed_rank(
      ProcedureType::kTrackingAreaUpdate);
  const int sr = OverloadGovernor::shed_rank(ProcedureType::kServiceRequest);
  const int ho = OverloadGovernor::shed_rank(ProcedureType::kHandover);
  const int attach = OverloadGovernor::shed_rank(ProcedureType::kAttach);
  EXPECT_LT(tau, sr);
  EXPECT_EQ(sr, ho);
  EXPECT_LT(sr, attach);
  EXPECT_LT(attach, OverloadGovernor::shed_rank(ProcedureType::kPaging));
  EXPECT_LT(attach, OverloadGovernor::shed_rank(ProcedureType::kDetach));
}

TEST(OverloadGovernor, PagingDeferStretchesWithLevelAndCaps) {
  auto cfg = governor_cfg();
  cfg.max_paging_defer = Duration::ms(300.0);
  OverloadGovernor g(cfg);

  EXPECT_EQ(g.paging_defer(), Duration::zero());
  g.assess(backlog_ms(60.0));
  EXPECT_EQ(g.paging_defer(), Duration::ms(100.0));
  g.assess(backlog_ms(110.0));
  EXPECT_EQ(g.paging_defer(), Duration::ms(200.0));
  g.assess(backlog_ms(160.0));  // 100 * 2^2 = 400, capped at 300
  EXPECT_EQ(g.paging_defer(), Duration::ms(300.0));
}

TEST(OverloadGovernor, DisabledByDefault) {
  OverloadGovernor g{OverloadGovernor::Config{}};
  EXPECT_FALSE(g.enabled());
  EXPECT_EQ(g.level(), PressureLevel::kNominal);
}

TEST(OverloadTokenBucket, RefillIsDeterministicFromSimTime) {
  TokenBucket b(/*rate=*/10.0, /*burst=*/5.0, Time::zero());
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(b.try_take(Time::zero())) << "burst credit " << i;
  EXPECT_FALSE(b.try_take(Time::zero())) << "bucket must be dry";

  // Lazy refill is a pure function of elapsed sim time: 100 ms at 10/s
  // yields exactly one token.
  EXPECT_DOUBLE_EQ(b.available(Time::from_sec(0.1)), 1.0);
  EXPECT_TRUE(b.try_take(Time::from_sec(0.1)));
  EXPECT_FALSE(b.try_take(Time::from_sec(0.1)));

  // Refill caps at the burst size no matter how long the bucket idles.
  EXPECT_DOUBLE_EQ(b.available(Time::from_sec(1000.0)), 5.0);
}

// ---------------------------------------------------------------- cluster

struct GovernedWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit GovernedWorld(core::ScaleCluster::Config cfg,
                         bool reliable = false) {
    if (reliable) {
      epc::TransportConfig t;
      t.reliable = true;
      tb.fabric().set_transport(t);
    }
    site = &tb.add_site(2);
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    for (auto& enb : site->enbs) cluster->connect_enb(*enb);
  }
};

TEST(OverloadIntegration, GovernedClusterShedsDeferrableNeverAttach) {
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 2;
  cfg.vm_template.cpu_speed = 0.05;
  cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
  cfg.mmp_governor.enabled = true;
  cfg.mmp_governor.backlog_ref = Duration::ms(50.0);
  cfg.mmp_governor.low_watermark = 0.5;
  cfg.mmp_governor.high_watermark = 1.0;
  // Attach band unreachable: the ladder must stop at Service Request.
  cfg.mmp_governor.overload_watermark = 50.0;
  GovernedWorld w(cfg);

  auto ues = w.tb.make_ues(*w.site, 400, {0.8});
  w.tb.register_all(*w.site, Duration::sec(20.0), Duration::sec(6.0));

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 500.0;  // several times the slow pool's capacity
  drv.mix.service_request = 0.7;
  drv.mix.tau = 0.3;
  workload::OpenLoopDriver driver(w.tb.engine(), ues, drv);
  driver.start(w.tb.engine().now() + Duration::sec(3.0));
  w.tb.run_for(Duration::sec(4.0));

  std::uint64_t sheds = 0, sr_sheds = 0, tau_sheds = 0, attach_sheds = 0;
  for (const auto& mmp : w.cluster->mmps()) {
    sheds += mmp->overload_sheds();
    sr_sheds += mmp->sheds_of(ProcedureType::kServiceRequest);
    tau_sheds += mmp->sheds_of(ProcedureType::kTrackingAreaUpdate);
    attach_sheds += mmp->sheds_of(ProcedureType::kAttach);
  }
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(sr_sheds, 0u);
  EXPECT_GT(tau_sheds, 0u);
  EXPECT_EQ(attach_sheds, 0u)
      << "attach must not shed below the overload band";
  EXPECT_EQ(sheds, sr_sheds + tau_sheds);

  std::uint64_t rejects = 0, typed = 0;
  for (const auto& mlb : w.cluster->mlbs()) {
    rejects += mlb->overload_rejects();
    typed += mlb->overload_rejects_of(ProcedureType::kServiceRequest) +
             mlb->overload_rejects_of(ProcedureType::kTrackingAreaUpdate);
  }
  EXPECT_EQ(rejects, sheds) << "every shed reaches the MLB";
  EXPECT_EQ(typed, rejects) << "per-procedure reject counters must tally";

  // Load silenced: pressure decays via the utilization hook and every
  // governor relaxes back to nominal.
  w.tb.run_for(Duration::sec(5.0));
  for (const auto& mmp : w.cluster->mmps())
    EXPECT_EQ(mmp->governor().level(), PressureLevel::kNominal);
}

/// Stands in for the node a message is sent to and keeps every `T` it gets.
template <typename T>
struct WireProbe final : epc::Endpoint {
  explicit WireProbe(epc::Fabric& f) : epc::Endpoint(f) {}
  void receive(sim::NodeId, const proto::PduRef& ref) override {
    const proto::Pdu& pdu = ref->value;
    std::visit(
        [this](const auto& family) {
          std::visit(
              [this](const auto& m) {
                if constexpr (std::is_same_v<std::decay_t<decltype(m)>, T>)
                  seen.push_back(m);
              },
              family);
        },
        pdu);
  }
  std::vector<T> seen;
};

TEST(OverloadIntegration, ShedRejectsCarryA200MsBackoff) {
  // The binary shed and the governor write the same steer-away hint.
  for (const bool governed : {false, true}) {
    SCOPED_TRACE(governed ? "governed" : "binary");
    Testbed tb;
    WireProbe<proto::OverloadReject> mlb(tb.fabric());
    core::MmpNode::Config cfg;
    cfg.shed_backlog = Duration::ms(5.0);
    if (governed) cfg.governor = governor_cfg();  // 60 ms: TAU shed
    core::MmpNode mmp(tb.fabric(), cfg);
    mmp.attach_lb(mlb.node());
    mmp.cpu().consume(Duration::ms(60.0));

    proto::ClusterForward fwd;
    fwd.guti = proto::Guti{1, 1, 1, 42};
    fwd.inner = proto::box(
        proto::InitialUeMessage{.nas = proto::NasTauRequest{fwd.guti, 1}});
    mmp.receive(mlb.node(), proto::box(fwd));
    tb.run_for(Duration::ms(10.0));
    ASSERT_EQ(mlb.seen.size(), 1u);
    EXPECT_EQ(mlb.seen[0].level, governed ? 1 : 0);  // which path shed
    EXPECT_EQ(mlb.seen[0].backoff_us, 200'000u);
  }
}

TEST(OverloadIntegration, EdgeBackpressureSignalsA250MsWindow) {
  core::ScaleCluster::Config cfg;
  cfg.mlb.enb_bucket_rate = 1.0;
  cfg.mlb.enb_bucket_burst = 1.0;
  GovernedWorld w(cfg);
  WireProbe<proto::OverloadStart> enb(w.tb.fabric());
  core::Mlb& mlb = w.cluster->mlb();
  // An MMP inside a shed-backoff window puts the MLB under pressure; the
  // second initial then finds the eNB's one-token bucket dry.
  const proto::OverloadReject hint{.mmp_node = w.cluster->mmp(0).node(),
                                   .backoff_us = 10'000'000};
  mlb.receive(hint.mmp_node, proto::box(hint));
  for (std::uint32_t tmsi = 1; tmsi <= 2; ++tmsi)
    mlb.receive(enb.node(), proto::box(proto::InitialUeMessage{
        .nas = proto::NasServiceRequest{mlb.mme_code(), tmsi, 0}}));
  w.tb.run_for(Duration::ms(5.0));
  ASSERT_EQ(enb.seen.size(), 1u);
  EXPECT_EQ(enb.seen[0].window_us, 250'000u);
}

TEST(OverloadIntegration, PagingDeferClampedToTransportRetryHorizon) {
  core::ScaleCluster::Config cfg;
  cfg.mmp_governor.enabled = true;
  cfg.mmp_governor.max_paging_defer = Duration::sec(60.0);

  GovernedWorld reliable(cfg, /*reliable=*/true);
  const Duration horizon = reliable.tb.fabric().transport().retry_horizon();
  ASSERT_GT(horizon, Duration::zero());
  for (const auto& mmp : reliable.cluster->mmps()) {
    EXPECT_LE(mmp->governor().config().max_paging_defer, horizon)
        << "a deferred page must not outlive its own retransmissions";
  }

  // Without the reliable shim there is no horizon to respect.
  GovernedWorld plain(cfg, /*reliable=*/false);
  for (const auto& mmp : plain.cluster->mmps())
    EXPECT_EQ(mmp->governor().config().max_paging_defer, Duration::sec(60.0));
}

// --------------------------------------------------------------- ablation

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run_bench_json(const std::string& out_path) {
  const std::string cmd = std::string(SCALE_ABLATION_OVERLOAD_BIN) +
                          " --json " + out_path + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(OverloadAblation, JsonOutputIsByteIdenticalAcrossRuns) {
  const std::string a = ::testing::TempDir() + "ablation_overload_a.json";
  const std::string b = ::testing::TempDir() + "ablation_overload_b.json";
  ASSERT_EQ(run_bench_json(a), 0);
  ASSERT_EQ(run_bench_json(b), 0);
  const std::string ja = slurp(a);
  const std::string jb = slurp(b);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb) << "governed runs must be bit-reproducible";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace scale
