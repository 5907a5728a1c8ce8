#include "worlds.h"

#include "workload/arrivals.h"

namespace wholerun {

using namespace scale;
using testbed::Testbed;

std::vector<epc::Ue*> World::devices() {
  std::vector<epc::Ue*> out;
  for (std::size_t i = 0; i < tb_->site_count(); ++i)
    for (const auto& ue : tb_->site(i).ues) out.push_back(ue.get());
  return out;
}

namespace {

std::unique_ptr<Testbed> make_testbed(std::uint64_t seed) {
  Testbed::Config cfg;
  cfg.seed = seed;
  cfg.threads = 0;  // the single-engine world
  return std::make_unique<Testbed>(cfg);
}

// ------------------------------------------------------------- iot_periodic
//
// One DC, 4 MLBs and 16 MMPs, 10^5 low-wᵢ devices, each woken by
// PeriodicDriver on its own exponential period (the §4.5 smart-meter
// pattern). Every device holds a pending wake-up timer, so the engine heap is
// ~10^5 deep; every wake-up is an Idle→Active Service Request steered by MD5
// on the ring; the context store's working set is the whole population.
class IotPeriodic final : public World {
 public:
  static constexpr std::size_t kDevices = 100'000;
  static constexpr std::size_t kMmps = 16;
  static constexpr std::size_t kMlbs = 4;
  static constexpr std::size_t kEnbs = 8;
  static constexpr double kMeanPeriodSec = 20.0;  // 5,000 wake-ups/s

  void build(std::uint64_t seed) override {
    seed_ = seed;
    tb_ = make_testbed(seed);
    site_ = &tb_->add_site(kEnbs);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = kMmps;
    cfg.initial_mlbs = kMlbs;
    cfg.vm_template.cpu_speed = 1.0;
    // Short Active periods: a meter uploads and goes back to Idle, so few
    // wake-ups find their device still connected.
    cfg.vm_template.app.profile.inactivity_timeout = Duration::sec(1.0);
    cfg.provisioner.devices_per_vm = 1'000'000;  // no storage-driven scaling
    cfg.seed = seed * 31 + 7;
    clusters_.push_back(std::make_unique<core::ScaleCluster>(
        tb_->fabric(), site_->sgw->node(), tb_->hss().node(), cfg));
    for (auto& enb : site_->enbs) clusters_[0]->connect_enb(*enb);
  }

  void populate() override {
    tb_->make_ues(*site_, kDevices, {0.05});
    tb_->register_all(*site_, Duration::sec(40.0), Duration::sec(3.0));
  }

  void start_load(Time, Time until) override {
    workload::PeriodicDriver::Config d;
    d.mean_period = Duration::sec(kMeanPeriodSec);
    d.seed = seed_ * 131 + 1;
    driver_ = std::make_unique<workload::PeriodicDriver>(
        tb_->engine(), site_->ue_ptrs(), d);
    // The driver drops wake-ups past its horizon, which would drain the
    // pending set during the window; keep the horizon far away and stop the
    // driver just before `until` instead. (The stop event is scheduled
    // first, so it precedes any wake-up in the same microsecond.)
    driver_->start(Time::max());
    tb_->engine().at(until - Duration::us(1),
                     [d = driver_.get()]() { d->stop(); });
  }

  Arrivals arrivals() const override {
    return {driver_->issued(), driver_->issued()};
  }

  // PeriodicDriver draws each device's first wake-up uniformly over one
  // period and exponential gaps after it, so the wake-up rate ramps from
  // 5,000/s towards 10,000/s until the period has elapsed and then settles
  // at 5,000/s (the timeline shows it). The warm-up covers that ramp and
  // the backlog it leaves.
  Plan plan() const override {
    return {Duration::sec(26.0), Duration::sec(20.0), Duration::sec(1.0)};
  }

  std::string describe() const override {
    return "1 DC, 4 MLBs + 16 MMPs, 100000 devices (w=0.05), PeriodicDriver "
           "exponential period 20 s (5000 wake-ups/s)";
  }

 private:
  Testbed::Site* site_ = nullptr;
  std::unique_ptr<workload::PeriodicDriver> driver_;
};

// -------------------------------------------------------------- geo_offload
//
// The fig10(b) SCALE topology: four DCs with two MMPs each; DC1 and DC3 are
// overloaded, DC2 is busy and 150 ms from everyone, DC4 is light. The mix is
// TAU-heavy, epochs recur every 4 s, and geo selection is SCALE's. Cluster
// forwards, replica pushes, geo offloads and cross-DC latency set the tail;
// the population is small, so the engine heap stays shallow.
class GeoOffload final : public World {
 public:
  static constexpr std::uint32_t kDcs = 4;
  static constexpr std::size_t kVmsPerDc = 2;
  static constexpr double kDcCapacity = kVmsPerDc * 380.0;
  static constexpr std::size_t kDevicesPerDc = 2000;

  void build(std::uint64_t seed) override {
    seed_ = seed;
    tb_ = make_testbed(seed);
    for (std::uint32_t dc = 0; dc < kDcs; ++dc)
      sites_.push_back(&tb_->add_site(1, static_cast<proto::Tac>(dc + 1),
                                      Duration::ms(1.0), dc));
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = a + 1; b < kDcs; ++b)
        tb_->network().set_dc_latency(a, b, (a == 1 || b == 1)
                                                ? Duration::ms(150.0)
                                                : Duration::ms(15.0));

    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);
      cfg.initial_mmps = kVmsPerDc;
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
      cfg.vm_template.cpu_speed = 0.25;
      cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(500.0);
      cfg.geo.gossip_interval = Duration::ms(300.0);
      cfg.geo.budget_fraction = 0.05;
      cfg.geo.selection = core::GeoManager::Selection::kScale;
      cfg.ring_tokens = 32;
      cfg.provisioner.devices_per_vm = 40000;
      cfg.provisioner.min_vms = kVmsPerDc;
      cfg.provisioner.max_vms = kVmsPerDc;
      cfg.mmp_offload_threshold = 0.8;
      cfg.seed = seed * 7 + dc;
      clusters_.push_back(std::make_unique<core::ScaleCluster>(
          tb_->fabric(), sites_[dc]->sgw->node(), tb_->hss().node(), cfg));
      clusters_[dc]->connect_enb(*sites_[dc]->enbs[0]);
      tb_->assign_dc(clusters_[dc]->mlb().node(), dc);
      for (auto& mmp : clusters_[dc]->mmps()) tb_->assign_dc(mmp->node(), dc);
    }
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = 0; b < kDcs; ++b)
        if (a != b)
          clusters_[a]->geo().add_peer(b, clusters_[b]->mlb().node(),
                                       tb_->network().dc_latency(a, b));
    for (auto& c : clusters_) c->start();
  }

  void populate() override {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      tb_->make_ues(*sites_[dc], kDevicesPerDc, {0.9});
      tb_->register_all(*sites_[dc], Duration::sec(10.0), Duration::sec(3.0));
    }
    // Seed wᵢ as an operator profile would, then place geo replicas.
    for (auto& c : clusters_) {
      c->for_each_master(
          [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
      c->run_epoch();
    }
    tb_->run_for(Duration::sec(2.0));
  }

  void start_load(Time, Time until) override {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      // DC1/DC3 at 170% of local capacity, DC2 at 130%, DC4 at 30%.
      const double factor = (dc == 0 || dc == 2) ? 1.7 : dc == 1 ? 1.3 : 0.3;
      workload::OpenLoopDriver::Config d;
      d.rate_per_sec = kDcCapacity * factor;
      d.mix.service_request = 0.2;
      d.mix.tau = 0.8;
      d.seed = seed_ * 13 + dc;
      drivers_.push_back(std::make_unique<workload::OpenLoopDriver>(
          tb_->engine(), sites_[dc]->ue_ptrs(), d));
      drivers_.back()->start(until);
    }
    schedule_epochs(tb_->engine().now() + kEpoch, until);
  }

  Arrivals arrivals() const override {
    Arrivals a;
    for (const auto& d : drivers_) {
      a.generated += d->arrivals();
      a.issued += d->issued();
    }
    return a;
  }

  // The tail is set by bursty overload episodes (epochs, offload swings);
  // a long window averages enough of them that p99/p99.9 move only a few
  // percent from seed to seed. The warm-up spans several epochs.
  Plan plan() const override {
    return {Duration::sec(30.0), Duration::sec(150.0), Duration::sec(1.0)};
  }

  std::string describe() const override {
    return "4 DCs x 2 MMPs, 2000 devices/DC, Poisson TAU 0.8 / SR 0.2 at "
           "1292/988/1292/228 per s, DC2 150 ms away, epochs every 4 s, "
           "SCALE geo selection";
  }

 private:
  static constexpr Duration kEpoch = Duration::sec(4.0);

  void schedule_epochs(Time at, Time until) {
    if (at >= until) return;
    tb_->engine().at(at, [this, at, until]() {
      for (auto& c : clusters_) c->run_epoch();
      schedule_epochs(at + kEpoch, until);
    });
  }

  std::vector<Testbed::Site*> sites_;
  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers_;
};

// ------------------------------------------------------------- attach_churn
//
// One DC, 2 MLBs and 8 MMPs behind the OverloadGovernor, an
// attach/detach-heavy Poisson mix (HSS authentication, S-GW sessions, context
// insert/erase, replica create/delete) plus a synchronous MassAccessEvent
// burst in the middle of the window. Writes instead of reads, and the only
// workload where shedding and failed procedures are non-zero.
class AttachChurn final : public World {
 public:
  static constexpr std::size_t kDevices = 24'000;
  static constexpr std::size_t kMmps = 8;
  static constexpr std::size_t kMlbs = 2;
  static constexpr std::size_t kEnbs = 4;
  static constexpr double kRate = 3000.0;
  static constexpr std::size_t kBurst = 8000;

  void build(std::uint64_t seed) override {
    seed_ = seed;
    tb_ = make_testbed(seed);
    site_ = &tb_->add_site(kEnbs);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = kMmps;
    cfg.initial_mlbs = kMlbs;
    cfg.vm_template.cpu_speed = 0.5;
    cfg.vm_template.app.profile.inactivity_timeout = Duration::sec(1.0);
    cfg.provisioner.devices_per_vm = 1'000'000;
    cfg.mmp_governor.enabled = true;
    // Watermarks above the steady load: the governor sheds during the
    // burst, not the Poisson background.
    cfg.mmp_governor.backlog_ref = Duration::ms(150.0);
    cfg.mmp_governor.low_watermark = 0.85;
    cfg.mmp_governor.high_watermark = 0.95;
    cfg.mmp_governor.overload_watermark = 1.1;
    cfg.mmp_governor.hysteresis = 0.05;
    cfg.mlb.enb_bucket_rate = 1500.0;
    cfg.mlb.enb_bucket_burst = 200.0;
    cfg.seed = seed * 17 + 3;
    clusters_.push_back(std::make_unique<core::ScaleCluster>(
        tb_->fabric(), site_->sgw->node(), tb_->hss().node(), cfg));
    for (auto& enb : site_->enbs) clusters_[0]->connect_enb(*enb);
  }

  void populate() override {
    tb_->make_ues(*site_, kDevices, {0.3});
    tb_->register_all(*site_, Duration::sec(12.0), Duration::sec(3.0));
  }

  void start_load(Time window_start, Time until) override {
    workload::OpenLoopDriver::Config d;
    d.rate_per_sec = kRate;
    d.mix.attach = 0.3;
    d.mix.detach = 0.3;
    d.mix.service_request = 0.3;
    d.mix.tau = 0.1;
    d.seed = seed_ * 19 + 5;
    driver_ = std::make_unique<workload::OpenLoopDriver>(
        tb_->engine(), site_->ue_ptrs(), d);
    driver_->start(until);
    burst_ = std::make_unique<workload::MassAccessEvent>(
        tb_->engine(), site_->ue_ptrs(), seed_ * 23 + 11);
    burst_at_ = window_start + (until - window_start) * 0.5;
    burst_->schedule(burst_at_, kBurst, Duration::sec(2.0));
  }

  Arrivals arrivals() const override {
    // The burst's activations are generated once its start time is reached.
    const std::uint64_t burst =
        tb_->engine().now() >= burst_at_ ? kBurst : 0;
    return {driver_->arrivals() + burst, driver_->issued() + burst_->issued()};
  }

  Plan plan() const override {
    return {Duration::sec(5.0), Duration::sec(30.0), Duration::sec(0.5)};
  }

  std::string describe() const override {
    return "1 DC, 2 MLBs + 8 MMPs with OverloadGovernor, 24000 devices, "
           "Poisson 3000/s "
           "attach 0.3 / detach 0.3 / SR 0.3 / TAU 0.1, MassAccessEvent of "
           "8000 devices over 2 s mid-window";
  }

 private:
  Testbed::Site* site_ = nullptr;
  std::unique_ptr<workload::OpenLoopDriver> driver_;
  std::unique_ptr<workload::MassAccessEvent> burst_;
  Time burst_at_ = Time::max();
};

}  // namespace

std::unique_ptr<World> make_world(const std::string& name) {
  if (name == "iot_periodic") return std::make_unique<IotPeriodic>();
  if (name == "geo_offload") return std::make_unique<GeoOffload>();
  if (name == "attach_churn") return std::make_unique<AttachChurn>();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"iot_periodic", "geo_offload",
                                                 "attach_churn"};
  return names;
}

}  // namespace wholerun
