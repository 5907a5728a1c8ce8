// MLB unit behaviours: statelessness, GUTI assignment, ring routing,
// code-based Active-mode stickiness, the MmpLoadView, golden picks of the
// least-loaded-of-R rule, and the OverloadReject shed path (re-steer or
// drop).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using core::kNoLoadReport;
using core::least_loaded;
using core::MmpLoadView;
using core::PressureLevel;
using proto::ProcedureType;
using testbed::Testbed;

Time at_sec(double s) { return Time::zero() + Duration::sec(s); }

struct ScaleWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit ScaleWorld(std::size_t mmps = 2, std::size_t enbs = 2) {
    site = &tb.add_site(enbs);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = mmps;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    for (auto& enb : site->enbs) cluster->connect_enb(*enb);
  }
};

TEST(Mlb, MembershipBuildsRingAndCodeMap) {
  ScaleWorld w(3);
  EXPECT_EQ(w.cluster->mlb().ring().node_count(), 3u);
  // Ring nodes are the MMP fabric ids.
  for (auto& mmp : w.cluster->mmps())
    EXPECT_TRUE(w.cluster->mlb().ring().contains(mmp->node()));
}

TEST(Mlb, StaleMembershipVersionIgnored) {
  ScaleWorld w(2);
  std::vector<proto::RingUpdate::Member> empty;
  w.cluster->mlb().apply_membership(empty, /*version=*/0);
  EXPECT_EQ(w.cluster->mlb().ring().node_count(), 2u);
}

TEST(Mlb, AttachAssignsGutiWithMlbCode) {
  ScaleWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  // §4.3.1: the MLB assigns the GUTI; its MME code is the MLB's logical id.
  EXPECT_EQ(ue.guti()->mme_code, w.cluster->mlb().mme_code());
  EXPECT_GE(w.cluster->mlb().initial_routed(), 1u);
}

TEST(Mlb, DeviceLandsOnPreferenceListVm) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  const std::uint64_t key = ue.guti()->key();
  std::vector<hash::RingNodeId> prefs;
  w.cluster->ring().preference_list(key, 2, prefs);
  // The context must live on the master or the replica target VM.
  bool found = false;
  for (auto& mmp : w.cluster->mmps()) {
    if (mmp->app().store().contains(key)) {
      found = found || (mmp->node() == prefs[0] || mmp->node() == prefs[1]);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Mlb, ActiveModeRequestsStickToServingVm) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.connected());
  // The mme_ue_id the UE learned carries the serving VM's code; handover
  // (an Active-mode request) must be processed by that same VM.
  const std::uint8_t serving_code = ue.mme_ue_id().mmp_id();
  const auto before = w.cluster->mlb().sticky_routed();
  ue.handover(w.site->enb(1));
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kHandover), 1u);
  EXPECT_GT(w.cluster->mlb().sticky_routed(), before);
  EXPECT_EQ(ue.mme_ue_id().mmp_id(), serving_code);
}

TEST(Mlb, KeepsNoPerDeviceState) {
  // Register many devices: the MLB's memory is the ring plus a load scalar
  // per VM — nothing grows with the population (contrast with SimpleLb's
  // routing_table_size()). We verify indirectly: routing still works after
  // the ring is rebuilt from scratch, which would lose any per-device map.
  ScaleWorld w(3);
  auto ues = w.tb.make_ues(*w.site, 60, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(8.0));

  std::vector<proto::RingUpdate::Member> members;
  for (auto& mmp : w.cluster->mmps())
    members.push_back({mmp->node(), mmp->vm_code()});
  w.cluster->mlb().apply_membership(members, /*version=*/1000);

  std::size_t ok = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request()) ++ok;
  w.tb.run_for(Duration::sec(3.0));
  std::size_t connected = 0;
  for (epc::Ue* ue : ues)
    if (ue->connected()) ++connected;
  EXPECT_GT(ok, 40u);
  EXPECT_GE(connected, ok * 9 / 10);
}

// ------------------------------------------------------------ MmpLoadView

TEST(MmpLoadView, NeverReportedIsASentinelNotZero) {
  MmpLoadView view;
  EXPECT_FALSE(view.has_report(7));
  EXPECT_EQ(view.load_of(7), kNoLoadReport);
  // Steering comparisons are optimistic about unknowns (a fresh VM must
  // receive traffic immediately)...
  EXPECT_EQ(view.effective_load(7), 0.0);

  view.on_report(7, 0.0);
  // ...but the accessor distinguishes "reported load 0" from "never heard".
  EXPECT_TRUE(view.has_report(7));
  EXPECT_EQ(view.load_of(7), 0.0);
  EXPECT_EQ(view.load_of(8), kNoLoadReport);
}

TEST(MmpLoadView, LatestReportWins) {
  MmpLoadView view;
  view.on_report(1, 0.8);
  view.on_report(1, 0.2);
  EXPECT_DOUBLE_EQ(view.load_of(1), 0.2);
}

TEST(MmpLoadView, BackoffAndPoolAggregates) {
  MmpLoadView view;
  view.on_report(1, 0.4);
  view.on_report(2, 1.2);
  view.on_reject(2, at_sec(3.0));

  EXPECT_TRUE(view.in_backoff(2, at_sec(2.0)));
  EXPECT_FALSE(view.in_backoff(2, at_sec(3.0)));  // window end is exclusive
  EXPECT_FALSE(view.in_backoff(1, at_sec(2.0)));
  EXPECT_TRUE(view.any_backoff(at_sec(2.0)));
  EXPECT_FALSE(view.any_backoff(at_sec(4.0)));

  EXPECT_TRUE(view.any_load_at_least(1.2));
  EXPECT_FALSE(view.any_load_at_least(1.3));
}

// --------------------------------------------------------- least_loaded

TEST(RingLeastLoaded, GoldenPickSequence) {
  MmpLoadView view;
  const std::vector<hash::RingNodeId> prefs{1, 2, 3};
  const Time t = at_sec(1.0);

  // No reports: everything ties at optimistic 0 — first in list wins.
  EXPECT_EQ(least_loaded(prefs, view, t), 1u);

  view.on_report(1, 0.5);
  view.on_report(2, 0.1);
  view.on_report(3, 0.7);
  EXPECT_EQ(least_loaded(prefs, view, t), 2u);

  // A candidate in a shed-backoff window loses to any candidate outside.
  view.on_reject(2, at_sec(5.0));
  EXPECT_EQ(least_loaded(prefs, view, t), 1u);

  // All shed: least loaded among the shed class.
  view.on_reject(1, at_sec(5.0));
  view.on_reject(3, at_sec(5.0));
  EXPECT_EQ(least_loaded(prefs, view, t), 2u);

  // Backoff expiry restores the load order.
  EXPECT_EQ(least_loaded(prefs, view, at_sec(6.0)), 2u);
}

TEST(RingLeastLoaded, SingleCandidateShortCircuits) {
  MmpLoadView view;
  view.on_reject(1, at_sec(5.0));
  EXPECT_EQ(least_loaded({1}, view, at_sec(1.0)), 1u);
}

TEST(RingLeastLoaded, FreshVmOutranksAnyReportedLoad) {
  // "No report yet" is not "load 0" in the accessors, but steering is
  // deliberately optimistic: a VM that never reported beats one reporting
  // 0.3 — new capacity gets traffic before its first report lands.
  MmpLoadView view;
  view.on_report(1, 0.3);
  EXPECT_EQ(least_loaded({1, 2}, view, at_sec(1.0)), 2u);
}

// ----------------------------------------------------------- Mlb plumbing

TEST(MlbSteering, LoadOfBeforeFirstReportIsTheSentinel) {
  ScaleWorld w(3);
  const sim::NodeId mmp = w.cluster->mmp(0).node();
  // The cluster is built but no 100 ms report cycle has completed yet.
  EXPECT_FALSE(w.cluster->mlb().has_load_report(mmp));
  EXPECT_EQ(w.cluster->mlb().load_of(mmp), kNoLoadReport);

  w.tb.run_for(Duration::ms(350.0));
  EXPECT_TRUE(w.cluster->mlb().has_load_report(mmp));
  EXPECT_GE(w.cluster->mlb().load_of(mmp), 0.0);
}

TEST(MlbSteering, DefaultPolicyExportsNoSteeringMetrics) {
  // fig10's metric export must keep its key set: no "mlb.steer.*" keys.
  ScaleWorld w(3);
  w.tb.make_ue(*w.site, 0, 0.5).attach();
  w.tb.run_for(Duration::sec(1.0));
  obs::MetricsRegistry reg;
  w.cluster->mlb().export_metrics(reg, "mlb");
  EXPECT_TRUE(reg.names_with_prefix("mlb.steer.").empty());
}

/// A small cluster trajectory; the digest covers routing counters, per-VM
/// totals, and the merged delay distribution.
std::string run_digest() {
  Testbed::Config tcfg;
  tcfg.seed = 4242;
  Testbed tb(tcfg);
  auto& site = tb.add_site(2);
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 3;
  core::ScaleCluster cluster(tb.fabric(), site.sgw->node(), tb.hss().node(),
                             cfg);
  for (auto& enb : site.enbs) cluster.connect_enb(*enb);

  auto ues = tb.make_ues(site, 80, {0.8});
  tb.register_all(site, Duration::sec(3.0), Duration::sec(2.0));
  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 120.0;
  drv.mix.service_request = 0.6;
  drv.mix.tau = 0.4;
  workload::OpenLoopDriver driver(tb.engine(), ues, drv);
  driver.start(tb.engine().now() + Duration::ms(100.0));
  tb.run_for(Duration::sec(2.0));

  std::ostringstream os;
  os << tb.engine().events_processed() << '|' << tb.network().messages_sent()
     << '|' << driver.issued() << '|' << cluster.total_requests() << '|'
     << cluster.mlb().initial_routed() << '|'
     << cluster.mlb().sticky_routed();
  for (auto& mmp : cluster.mmps())
    os << '|' << mmp->requests_handled() << ':' << mmp->app().store().size();
  if (tb.delays().total_count() > 0) {
    const auto merged = tb.delays().merged();
    os << '|' << merged.count() << ':' << merged.percentile(0.99);
  }
  return os.str();
}

TEST(SteeringDeterminism, RingReplaysAcrossRuns) {
  const std::string base = run_digest();
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(run_digest(), base);
}

// -------------------------------------------------------------- shed path

/// A device whose R = 2 preference list is {shedder, alternative}.
struct ShedCase {
  proto::Guti guti;
  sim::NodeId shedder = 0;
  sim::NodeId alternative = 0;
};

ShedCase shed_case(ScaleWorld& w, std::uint32_t m_tmsi) {
  const core::Mlb& mlb = w.cluster->mlb();
  ShedCase c;
  c.guti = proto::Guti{1, 1, mlb.mme_code(), m_tmsi};
  std::vector<hash::RingNodeId> prefs;
  mlb.ring().preference_list(c.guti.key(), 2, prefs);
  c.shedder = prefs.at(0);
  c.alternative = prefs.at(1);
  return c;
}

/// Hand `rej` to the MLB as its shedding MMP would, and let the MLB's CPU
/// run the routing slice. All of this happens before the first 100 ms
/// LoadReport cycle, so the view holds only what the test feeds it.
void deliver(ScaleWorld& w, const proto::OverloadReject& rej) {
  w.cluster->mlb().receive(rej.mmp_node, proto::box(rej));
  w.tb.run_for(Duration::ms(1.0));
}

/// Put `mmp` inside a 10 s shed-backoff window (a pure backoff hint).
void back_off(ScaleWorld& w, sim::NodeId mmp) {
  proto::OverloadReject hint;
  hint.mmp_node = mmp;
  hint.backoff_us = 10'000'000;
  deliver(w, hint);
}

void report_load(ScaleWorld& w, sim::NodeId mmp, double load) {
  proto::LoadReport report;
  report.mmp_node = mmp;
  report.cpu_util = load;
  w.cluster->mlb().receive(mmp, proto::box(report));
}

/// A shed of `c.guti`'s request by `c.shedder`. backoff_us = 0 leaves the
/// shedder outside any backoff window, so only the exclusion rule keeps it
/// from winning the re-steer.
void shed(ScaleWorld& w, const ShedCase& c, ProcedureType p,
          PressureLevel level) {
  proto::InitialUeMessage init;
  init.nas = proto::NasServiceRequest{c.guti.mme_code, c.guti.m_tmsi, 0};
  proto::OverloadReject rej;
  rej.mmp_node = c.shedder;
  rej.origin = w.site->enb(0).node();
  rej.guti = c.guti;
  rej.procedure = static_cast<std::uint8_t>(p);
  rej.level = static_cast<std::uint8_t>(level);
  rej.inner = proto::box(init);
  deliver(w, rej);
}

/// resteered_to of every "shed_resteer" the MLB traced, in order.
std::vector<std::int64_t> resteer_targets(const obs::Tracer& tr) {
  std::vector<std::int64_t> out;
  const obs::Json doc = tr.to_json();
  for (const obs::Json& ev : doc.find("traceEvents")->elements()) {
    const obs::Json* name = ev.find("name");
    if (name != nullptr && name->as_string() == "shed_resteer")
      out.push_back(ev.find("args")->find("resteered_to")->as_int());
  }
  return out;
}

struct ShedWorld : ScaleWorld {
  obs::Tracer tracer;
  obs::Tracer* prev;
  explicit ShedWorld(std::size_t mmps = 3)
      : ScaleWorld(mmps), prev(obs::Tracer::install(&tracer)) {}
  ~ShedWorld() { obs::Tracer::install(prev); }
  std::uint64_t resteers() { return cluster->mlb().overload_resteers(); }
  std::uint64_t drops() { return cluster->mlb().overload_drops(); }
};

TEST(MlbShed, ResteerNeverTargetsTheShedderWhileAnAlternativeExists) {
  ShedWorld w;
  std::vector<std::int64_t> want;
  for (std::uint32_t tmsi = 1; tmsi <= 6; ++tmsi) {
    const ShedCase c = shed_case(w, tmsi);
    // Make the shedder the most attractive candidate by load and backoff:
    // the alternative is saturated and backing off, the shedder is idle.
    report_load(w, c.shedder, 0.0);
    report_load(w, c.alternative, 5.0);
    back_off(w, c.alternative);
    shed(w, c, ProcedureType::kServiceRequest, PressureLevel::kNominal);
    want.push_back(c.alternative);
  }
  EXPECT_EQ(w.resteers(), 6u);
  EXPECT_EQ(w.drops(), 0u);
  EXPECT_EQ(resteer_targets(w.tracer), want);
}

TEST(MlbShed, GraduatedSrTauShedIsDroppedWhenEveryAlternativeBacksOff) {
  ShedWorld w;
  const ShedCase c = shed_case(w, 7);
  back_off(w, c.alternative);
  for (const ProcedureType p :
       {ProcedureType::kServiceRequest, ProcedureType::kTrackingAreaUpdate}) {
    shed(w, c, p, PressureLevel::kElevated);
    shed(w, c, p, PressureLevel::kHigh);
  }
  EXPECT_EQ(w.drops(), 4u);
  EXPECT_EQ(w.resteers(), 0u);
}

TEST(MlbShed, LevelZeroShedAlwaysResteers) {
  ShedWorld w;
  const ShedCase c = shed_case(w, 9);
  // Every condition that drops a graduated shed holds: the alternative is
  // backing off and reports a load past the drop limit.
  back_off(w, c.alternative);
  report_load(w, c.alternative, 5.0);
  for (const ProcedureType p :
       {ProcedureType::kServiceRequest, ProcedureType::kTrackingAreaUpdate,
        ProcedureType::kHandover, ProcedureType::kAttach})
    shed(w, c, p, PressureLevel::kNominal);
  EXPECT_EQ(w.resteers(), 4u);
  EXPECT_EQ(w.drops(), 0u);
  EXPECT_EQ(resteer_targets(w.tracer),
            std::vector<std::int64_t>(4, c.alternative));
}

TEST(MlbShed, AttachShedBelowTheOverloadBandIsNeverDropped) {
  ShedWorld w;
  const ShedCase c = shed_case(w, 10);
  back_off(w, c.alternative);
  report_load(w, c.alternative, 5.0);
  shed(w, c, ProcedureType::kAttach, PressureLevel::kElevated);
  shed(w, c, ProcedureType::kAttach, PressureLevel::kHigh);
  EXPECT_EQ(w.resteers(), 2u);
  EXPECT_EQ(w.drops(), 0u);
  // At the kOverload band the same attach shed is droppable.
  shed(w, c, ProcedureType::kAttach, PressureLevel::kOverload);
  EXPECT_EQ(w.drops(), 1u);
}

TEST(MlbShed, NoAlternativeFallsBackToTheShedder) {
  ShedWorld w(1);
  const sim::NodeId only = w.cluster->mmp(0).node();
  ShedCase c;
  c.guti = proto::Guti{1, 1, w.cluster->mlb().mme_code(), 11};
  c.shedder = only;
  shed(w, c, ProcedureType::kServiceRequest, PressureLevel::kNominal);
  EXPECT_EQ(w.resteers(), 1u);
  EXPECT_EQ(resteer_targets(w.tracer), std::vector<std::int64_t>{only});
}

}  // namespace
}  // namespace scale
