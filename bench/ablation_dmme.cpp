// Ablation: SCALE vs dMME (§6 names this comparison as future work).
//
// Both systems get the same processing capacity (same VM count and speed).
// dMME keeps processing nodes stateless behind a centralized state store:
// every Idle→Active transaction pays a fetch round trip plus store CPU, and
// the store serializes ALL state traffic. SCALE co-locates state with
// compute via consistent hashing + replication. Sweep the offered rate and
// watch where each design's delay knee sits.
#include "mme/dmme.h"
#include "obs/bench_main.h"
#include "scale_world.h"
#include "workload/arrivals.h"

namespace {

using namespace scale;
using testbed::Testbed;

constexpr std::size_t kVms = 4;
constexpr double kCpuSpeed = 0.25;
constexpr std::size_t kDevices = 3000;
constexpr Duration kInactivity = Duration::ms(500.0);

struct Point {
  double p50;
  double p99;
};

Point run_dmme(double rate) {
  Testbed tb;
  auto& site = tb.add_site(1);
  // The store is a VM of the same class as the processing nodes (dMME
  // spends one of its VMs on state; SCALE gets an extra MMP instead).
  mme::DmmeStateStore store(tb.fabric(), kCpuSpeed);
  mme::DmmeLb::Config lb_cfg;
  mme::DmmeLb lb(tb.fabric(), lb_cfg);
  std::vector<std::unique_ptr<mme::DmmeNode>> nodes;
  for (std::size_t i = 0; i < kVms; ++i) {
    mme::DmmeNode::Config cfg;
    cfg.base.sgw = site.sgw->node();
    cfg.base.hss = tb.hss().node();
    cfg.base.cpu_speed = kCpuSpeed;
    cfg.base.app.assign_guti_locally = false;
    cfg.base.app.mme_code = lb_cfg.mme_code;
    cfg.base.app.vm_code = static_cast<std::uint8_t>(i + 1);
    cfg.base.app.profile.inactivity_timeout = kInactivity;
    cfg.store = store.node();
    nodes.push_back(std::make_unique<mme::DmmeNode>(tb.fabric(), cfg));
    lb.add_node(*nodes.back());
  }
  site.enb(0).add_mme(lb.node(), lb_cfg.mme_code, 1.0);

  tb.make_ues(site, kDevices, {0.8});
  tb.register_all(site, Duration::sec(25.0), Duration::sec(6.0));
  tb.delays().clear();

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = rate;
  drv.mix.service_request = 0.5;
  drv.mix.tau = 0.5;
  workload::OpenLoopDriver driver(tb.engine(), site.ue_ptrs(), drv);
  driver.start(tb.engine().now() + Duration::sec(10.0));
  tb.run_for(Duration::sec(12.0));

  const auto merged = tb.delays().merged();
  return Point{merged.percentile(0.5), merged.percentile(0.99)};
}

Point run_scale(double rate) {
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = kVms + 1;  // same total VM budget as dMME (incl. store)
  cfg.vm_template.cpu_speed = kCpuSpeed;
  cfg.vm_template.app.profile.inactivity_timeout = kInactivity;
  bench::ScaleWorld w(cfg, /*enbs=*/1);

  w.tb.make_ues(*w.site, kDevices, {0.8});
  w.tb.register_all(*w.site, Duration::sec(25.0), Duration::sec(6.0));
  w.tb.delays().clear();

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = rate;
  drv.mix.service_request = 0.5;
  drv.mix.tau = 0.5;
  workload::OpenLoopDriver driver(w.tb.engine(), w.site->ue_ptrs(), drv);
  driver.start(w.tb.engine().now() + Duration::sec(10.0));
  w.tb.run_for(Duration::sec(12.0));

  const auto merged = w.tb.delays().merged();
  return Point{merged.percentile(0.5), merged.percentile(0.99)};
}

}  // namespace

int main(int argc, char** argv) {
  scale::obs::BenchMain bm(argc, argv, "ablation_dmme",
                           "SCALE vs dMME (centralized state store)");
  auto& sec = bm.report().section(
      "delay vs offered rate (5 VMs each: dMME = 4 workers + 1 store, "
      "SCALE = 5 MMPs)");
  sec.columns({"req/s", "dmme_p50", "dmme_p99", "scale_p50", "scale_p99"});
  for (double rate : {200.0, 600.0, 1200.0, 1800.0, 2400.0, 3000.0}) {
    const auto d = run_dmme(rate);
    const auto s = run_scale(rate);
    sec.row({rate, d.p50, d.p99, s.p50, s.p99});
  }
  bm.report().note(
      "dMME's store round trip sets its delay floor and its store CPU caps "
      "throughput;\nSCALE keeps state next to compute (replicas) and scales "
      "past it.");
  return bm.finish();
}
