// Figure 10 — large-scale simulations S1/S2 (§5.1).
//
//  (a) S1 — State management: 99th %tile connectivity delay vs replication
//      factor R under increasing load-skew scenarios L1..L4, with the
//      token-less "basic consistent hashing" baseline. R=2 captures most
//      of the benefit; tokens beat the token-less ring.
//  (b) S2 — Geo-multiplexing across 4 DCs: IND (always local), RDM1
//      (uniform replication, blind to the target DC's load), RDM2 (blind
//      to propagation delay), and SCALE (utilization- and delay-aware).
//
// Scaled-down substitution (documented in EXPERIMENTS.md): the paper uses
// 30 VMs / 80 K devices; we run 30 VMs with a proportionally loaded 24 K
// devices so the bench completes in seconds while preserving per-VM load
// and skew ratios. --quick shrinks populations and horizons for a smoke run.
#include <cstdlib>
#include <limits>
#include <set>

#include "obs/bench_main.h"
#include "scale_world.h"
#include "workload/arrivals.h"
#include "workload/scenarios.h"

namespace {

using namespace scale;
using testbed::Testbed;

// ---------------------------------------------------------------- Fig 10(a)

constexpr std::size_t kVms = 30;
constexpr double kCpuSpeed = 0.1;          // ≈150 SR/s per VM
constexpr double kClusterCapacity = kVms * 150.0;
constexpr std::size_t kDevices = 24000;

double s1_run(unsigned R, double hot_boost, unsigned tokens,
              std::uint64_t seed, bool quick) {
  const std::size_t devices = quick ? kDevices / 8 : kDevices;
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = kVms;
  cfg.ring_tokens = tokens;  // 5 = SCALE (paper), 1 = basic CH baseline
  cfg.policy.local_copies = R;
  cfg.vm_template.cpu_speed = kCpuSpeed;
  cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
  cfg.provisioner.devices_per_vm = 100000;  // provisioning out of the way
  bench::ScaleWorld w(cfg, /*enbs=*/2, seed);

  auto ues = w.tb.make_ues(*w.site, devices, {0.8});
  w.tb.register_all(*w.site, Duration::sec(quick ? 10.0 : 40.0),
                    Duration::sec(4.0));

  // Load skew: devices mastered on the first 20% of VMs are "hot" and get
  // `hot_boost` × the fair per-device share (workload::make_skewed_split).
  std::set<sim::NodeId> hot_vms;
  for (std::size_t i = 0; i < kVms / 5; ++i)
    hot_vms.insert(w.cluster->mmp(i).node());
  const auto split = workload::make_skewed_split(
      w.site->ue_ptrs(), 0.85 * kClusterCapacity, hot_boost,
      [&](const epc::Ue& ue) {
        return ue.guti().has_value() &&
               hot_vms.count(w.cluster->ring().owner(ue.guti()->key())) > 0;
      });

  w.tb.delays().clear();
  workload::OpenLoopDriver::Config hot_cfg;
  hot_cfg.rate_per_sec = split.hot_rate_per_sec;
  hot_cfg.mix.service_request = 0.7;
  hot_cfg.mix.tau = 0.3;
  hot_cfg.seed = seed + 1;
  workload::OpenLoopDriver hot_driver(w.tb.engine(), split.hot, hot_cfg);
  workload::OpenLoopDriver::Config cold_cfg = hot_cfg;
  cold_cfg.rate_per_sec = split.cold_rate_per_sec;
  cold_cfg.seed = seed + 2;
  workload::OpenLoopDriver cold_driver(w.tb.engine(), split.cold, cold_cfg);

  const Time t0 = w.tb.engine().now();
  hot_driver.start(t0 + Duration::sec(8.0));
  cold_driver.start(t0 + Duration::sec(8.0));
  w.tb.run_for(Duration::sec(quick ? 9.0 : 10.0));
  return w.tb.delays().merged().percentile(0.99);
}

void fig10a(obs::Report& rep, bool quick) {
  auto& sec = rep.section(
      "Fig 10(a): p99 delay (ms) vs replication factor, skew L1..L4");
  sec.columns({"R", "basicCH(L2)", "L1", "L2", "L3", "L4"});
  const double boosts[4] = {1.5, 2.5, 4.0, 6.0};
  // --quick: one replication factor is enough to smoke the S1 paths.
  for (unsigned R = 1; R <= (quick ? 1u : 4u); ++R) {
    std::vector<double> cols = {static_cast<double>(R)};
    cols.push_back(s1_run(R, boosts[1], /*tokens=*/1, 100 + R, quick));
    for (double boost : boosts)
      cols.push_back(s1_run(R, boost, /*tokens=*/5, 200 + R, quick));
    sec.row(cols);
  }
}

// ---------------------------------------------------------------- Fig 10(b)

enum class S2Mode { kInd, kRdm1, kRdm2, kScale };

// 4 DCs: DC1 & DC3 overloaded, DC2 & DC4 light.
//   RDM1: DC2 carries more background load than DC4 (equal delays) and the
//         uniform selector ignores it.
//   RDM2: DC2 is farther than DC4 (equal loads) and the selector ignores it.
//   SCALE: same adverse topology as RDM1+RDM2 combined; selection uses
//         Ŝ (load headroom) and 1/D weighting.
std::vector<double> s2_run(S2Mode mode, std::uint64_t seed, bool quick,
                           obs::MetricsRegistry* reg = nullptr) {
  Testbed::Config tcfg;
  tcfg.seed = seed;
  Testbed tb(tcfg);
  constexpr std::size_t kDcs = 4;
  constexpr std::size_t kVmsPerDc = 2;
  constexpr double kDcCapacity = kVmsPerDc * 380.0;

  // Propagation: DC2 far (150 ms, intercontinental) under RDM2/SCALE,
  // otherwise 15 ms.
  const bool far_dc2 = mode == S2Mode::kRdm2 || mode == S2Mode::kScale;
  // Background: DC2 busier (0.55) under RDM1/SCALE, otherwise 0.15.
  const bool busy_dc2 = mode == S2Mode::kRdm1 || mode == S2Mode::kScale;

  std::vector<Testbed::Site*> sites;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc)
    sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                 Duration::ms(1.0), dc));
  for (std::uint32_t a = 0; a < kDcs; ++a)
    for (std::uint32_t b = a + 1; b < kDcs; ++b) {
      const bool touches_dc2 = (a == 1 || b == 1);
      tb.network().set_dc_latency(
          a, b, (far_dc2 && touches_dc2) ? Duration::ms(150.0)
                                         : Duration::ms(15.0));
    }

  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    core::ScaleCluster::Config cfg;
    cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);  // disjoint GUTI spaces
    cfg.initial_mmps = kVmsPerDc;
    cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
    cfg.vm_template.cpu_speed = 0.25;
    cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(500.0);
    cfg.geo.gossip_interval = Duration::ms(300.0);
    // S (state slots/VM) is plentiful — this experiment isolates compute
    // multiplexing; Sm is sized to cover the whole hot population.
    cfg.geo.budget_fraction = 0.05;
    cfg.ring_tokens = 32;  // tight arcs: no VM owns an outsized share
    cfg.geo.selection = (mode == S2Mode::kScale)
                            ? core::GeoManager::Selection::kScale
                            : core::GeoManager::Selection::kUniform;
    cfg.provisioner.devices_per_vm = 40000;
    cfg.provisioner.min_vms = kVmsPerDc;   // pin capacity: the comparison is
    cfg.provisioner.max_vms = kVmsPerDc;   // about multiplexing, not scaling
    cfg.mmp_offload_threshold = 0.8;
    cfg.seed = seed + dc;
    clusters.push_back(std::make_unique<core::ScaleCluster>(
        tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
    clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
    tb.assign_dc(clusters[dc]->mlb().node(), dc);
    for (auto& mmp : clusters[dc]->mmps()) tb.assign_dc(mmp->node(), dc);
  }
  if (mode != S2Mode::kInd) {
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = 0; b < kDcs; ++b)
        if (a != b)
          clusters[a]->geo().add_peer(
              b, clusters[b]->mlb().node(),
              tb.network().dc_latency(a, b));
  }
  for (auto& c : clusters) c->start();

  std::vector<std::vector<epc::Ue*>> devices(kDcs);
  std::vector<PercentileSampler> per_dc(kDcs);
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    // A large population keeps the overload open-loop: the queue cannot
    // drain by throttling a small closed set of devices.
    devices[dc] = tb.make_ues(*sites[dc], quick ? 300 : 2000, {0.9});
    tb.register_all(*sites[dc], Duration::sec(quick ? 8.0 : 25.0),
                    Duration::sec(4.0));
    for (epc::Ue* ue : devices[dc])
      ue->set_completion_sink(
          [&per_dc, dc](epc::Ue&, proto::ProcedureType, Duration d) {
            per_dc[dc].add(d.to_ms());
          });
  }
  if (mode != S2Mode::kInd) {
    for (auto& c : clusters) {
      c->for_each_master(
          [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
      c->run_epoch();
    }
    tb.run_for(Duration::sec(2.0));
  }

  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    double factor = (dc == 0 || dc == 2) ? 1.7 : 0.3;
    if (dc == 1 && busy_dc2) factor = 1.3;  // DC2 ≈96% of its capacity
    workload::OpenLoopDriver::Config drv;
    drv.rate_per_sec = kDcCapacity * factor;
    // TAU-heavy mix keeps the offered load open-loop: an Idle device can
    // issue another TAU as soon as the previous one completes, so excess
    // demand shows up as queueing delay instead of suppressed arrivals.
    drv.mix.service_request = 0.2;
    drv.mix.tau = 0.8;
    drv.seed = seed * 13 + dc;
    drivers.push_back(std::make_unique<workload::OpenLoopDriver>(
        tb.engine(), devices[dc], drv));
    drivers.back()->start(tb.engine().now() +
                          Duration::sec(quick ? 8.0 : 26.0));
  }
  // Recurring epochs while the overload persists (§4.4: decisions recur
  // every epoch). The paper's persistent-overload scenario spans many
  // epochs, so the measurement covers the steady state after placement has
  // adapted to the observed loads (the busy DC's gossiped Ŝ is ~0 by then).
  if (mode != S2Mode::kInd) {
    for (double at : {4.0, 8.0}) {
      for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
        tb.engine().after(
            Duration::sec(at), [c = clusters[dc].get()]() { c->run_epoch(); });
      }
    }
  }
  tb.run_for(Duration::sec(quick ? 4.0 : 10.0));
  for (auto& sampler : per_dc) sampler.clear();  // steady state only
  tb.run_for(Duration::sec(quick ? 8.0 : 18.0));

  if (std::getenv("SCALE_BENCH_DEBUG") != nullptr) {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      std::uint64_t off = 0, served = 0, rej = 0, handled = 0;
      for (auto& m : clusters[dc]->mmps()) {
        off += m->geo_offloads();
        served += m->geo_served();
        rej += m->geo_rejects();
        handled += m->requests_handled();
      }
      std::printf("[dbg] mode=%d dc=%u handled=%llu off=%llu served=%llu "
                  "rej=%llu pushes=%llu p50=%.0f p90=%.0f p99=%.0f\n",
                  static_cast<int>(mode), dc,
                  static_cast<unsigned long long>(handled),
                  static_cast<unsigned long long>(off),
                  static_cast<unsigned long long>(served),
                  static_cast<unsigned long long>(rej),
                  static_cast<unsigned long long>(
                      clusters[dc]->last_epoch().geo_pushes),
                  per_dc[dc].empty() ? 0.0 : per_dc[dc].percentile(0.5),
                  per_dc[dc].empty() ? 0.0 : per_dc[dc].percentile(0.9),
                  per_dc[dc].empty() ? 0.0 : per_dc[dc].percentile(0.99));
    }
  }
  if (reg != nullptr) {
    tb.export_metrics(*reg);
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      const std::string dc_prefix = "dc." + std::to_string(dc);
      clusters[dc]->mlb().export_metrics(*reg, dc_prefix + ".mlb");
      for (std::size_t i = 0; i < clusters[dc]->mmp_count(); ++i)
        clusters[dc]->mmp(i).export_metrics(
            *reg, dc_prefix + ".mmp." + std::to_string(i));
    }
  }
  std::vector<double> out;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc)
    out.push_back(per_dc[dc].empty()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : per_dc[dc].percentile(0.99));
  return out;
}

void fig10b(obs::Report& rep, bool quick) {
  auto& sec = rep.section("Fig 10(b): per-DC p99 (ms), DC1/DC3 overloaded");
  sec.columns({"mode", "DC1", "DC2", "DC3", "DC4"});
  struct Case {
    const char* name;
    S2Mode mode;
  };
  // The SCALE case doubles as the metrics-registry showcase: its engine /
  // fabric / per-MMP counters land under "metrics" in the JSON document.
  obs::MetricsRegistry registry;
  for (const Case c : {Case{"IND", S2Mode::kInd}, Case{"RDM1", S2Mode::kRdm1},
                       Case{"RDM2", S2Mode::kRdm2},
                       Case{"SCALE", S2Mode::kScale}}) {
    const auto v = s2_run(c.mode, 5, quick,
                          c.mode == S2Mode::kScale ? &registry : nullptr);
    sec.row(c.name, v);
  }
  rep.attach_metrics(registry);
}

}  // namespace

int main(int argc, char** argv) {
  scale::obs::BenchMain bm(argc, argv, "fig10_simulation",
                           "S1/S2 — large-scale simulations");
  fig10a(bm.report(), bm.quick());
  fig10b(bm.report(), bm.quick());
  return bm.finish();
}
