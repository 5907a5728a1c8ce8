// Reactive overload protection of the 3GPP pool baseline (§3.1-2): when an
// MME trips its threshold, devices are redirected with state transfers —
// extra signaling on both MMEs, the phenomenon behind Figs. 2(b,c).
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "hash/md5.h"
#include "mme/pool.h"
#include "obs/trace.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using testbed::Testbed;

struct OverloadWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<mme::MmePool> pool;

  OverloadWorld() {
    site = &tb.add_site(1);
    mme::MmePool::Config cfg;
    cfg.node_template.sgw = site->sgw->node();
    cfg.node_template.hss = tb.hss().node();
    cfg.node_template.overload_protection = true;
    cfg.node_template.overload_threshold = 0.85;
    // Slow MMEs (≈60 service requests/s) so a modest device population can
    // saturate one; short inactivity so devices cycle Idle→Active quickly.
    cfg.node_template.cpu_speed = 0.03;
    cfg.node_template.app.profile.inactivity_timeout = Duration::sec(1.0);
    cfg.initial_count = 2;
    pool = std::make_unique<mme::MmePool>(tb.fabric(), cfg);
    for (auto& enb : site->enbs) pool->connect_enb(*enb);
  }

  /// Register 200 devices over both MMEs, then hammer only MME1's for 10 s
  /// at several times its capacity. Returns MME1's devices.
  std::vector<epc::Ue*> overload_mme1() {
    auto ues = tb.make_ues(*site, 200, {0.8});
    tb.register_all(*site, Duration::sec(8.0), Duration::sec(8.0));
    std::vector<epc::Ue*> mme1_devices;
    for (epc::Ue* ue : ues)
      if (ue->registered() && ue->guti()->mme_code == pool->mme(0).mme_code())
        mme1_devices.push_back(ue);
    workload::OpenLoopDriver::Config cfg;
    cfg.rate_per_sec = 400.0;
    cfg.mix.service_request = 0.6;
    cfg.mix.tau = 0.4;  // TAUs keep load up even while devices are Active
    workload::OpenLoopDriver driver(tb.engine(), mme1_devices, cfg);
    driver.start(tb.engine().now() + Duration::sec(10.0));
    tb.run_for(Duration::sec(14.0));
    return mme1_devices;
  }
};

TEST(PoolOverload, OverloadedMmeShedsDevicesToPeer) {
  OverloadWorld w;
  const std::uint8_t code1 = w.pool->mme(0).mme_code();
  const std::vector<epc::Ue*> mme1_devices = w.overload_mme1();
  ASSERT_GT(mme1_devices.size(), 30u);

  // The overloaded MME shed devices, the peer installed transferred state.
  EXPECT_GT(w.pool->mme(0).devices_shed(), 0u);
  EXPECT_GT(w.pool->mme(1).transfers_received(), 0u);
  // Shed devices re-attached and now carry the peer's MME code.
  std::size_t moved = 0;
  for (epc::Ue* ue : mme1_devices)
    if (ue->registered() && ue->guti()->mme_code != code1) ++moved;
  EXPECT_GT(moved, 0u);
}

TEST(PoolOverload, RepeatedEnableKeepsOneTickChain) {
  obs::Tracer tracer;
  obs::Tracer* prev = obs::Tracer::install(&tracer);
  OverloadWorld w;  // the constructor already started the overload tick
  w.pool->enable_overload_protection(0.85);
  w.pool->enable_overload_protection(0.85);
  w.overload_mme1();
  obs::Tracer::install(prev);

  // A tick sheds its batch at one instant (a second tick chain would shed
  // another); the admission gate sheds one device per request.
  std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> sheds;
  const obs::Json doc = tracer.to_json();
  for (const obs::Json& ev : doc.find("traceEvents")->elements())
    if (const obs::Json* name = ev.find("name");
        name != nullptr && name->as_string() == "reactive_shed")
      ++sheds[{ev.find("tid")->as_int(), ev.find("ts")->as_int()}];
  std::size_t batches = 0;
  for (const auto& [mme_at, n] : sheds) {
    batches += n > 1 ? 1 : 0;
    EXPECT_LE(n, 8u) << "one tick sheds at most 8 devices";
  }
  EXPECT_GT(batches, 0u) << "the load must reach the shed batch";
}

TEST(Determinism, PoolOverloadGoldenDigest) {
  // Pins the overload tick, its shed batch and the pool's MME codes.
  OverloadWorld w;
  w.overload_mme1();
  std::ostringstream os;
  os << w.tb.engine().events_processed() << '|'
     << w.tb.network().messages_sent() << '|' << w.tb.network().bytes_sent();
  for (const auto& mme : w.pool->mmes())
    os << '|' << int{mme->mme_code()} << ':' << mme->devices_shed() << ':'
       << mme->transfers_received() << ':' << mme->app().store().size();
  for (const auto& ue : w.site->ues) {
    if (!ue->guti()) continue;
    os << '|' << int{ue->guti()->mme_code} << '.' << ue->guti()->m_tmsi
       << (ue->connected() ? 'c' : 'i');
  }
  const auto delays = w.tb.delays().merged();
  os << '|' << delays.count() << ':' << delays.percentile(0.99);
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(os.str())),
            "fb40a53d8befd67752a6487ffe7f0e8c");
}

TEST(PoolOverload, NoSheddingBelowThreshold) {
  OverloadWorld w;
  auto ues = w.tb.make_ues(*w.site, 50, {0.5});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  workload::OpenLoopDriver::Config cfg;
  cfg.rate_per_sec = 5.0;  // light load even for the slow MMEs
  workload::OpenLoopDriver driver(w.tb.engine(), ues, cfg);
  driver.start(w.tb.engine().now() + Duration::sec(8.0));
  w.tb.run_for(Duration::sec(10.0));

  EXPECT_EQ(w.pool->mme(0).devices_shed(), 0u);
  EXPECT_EQ(w.pool->mme(1).devices_shed(), 0u);
}

TEST(PoolOverload, ScaleOutOnlyCapturesUnregisteredDevices) {
  // Fig. 2(d): a pool member added at runtime cannot take over existing
  // registrations — their GUTIs keep routing to the original MME.
  Testbed tb;
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.initial_count = 1;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  auto registered = tb.make_ues(site, 60, {0.5});
  tb.register_all(site, Duration::sec(3.0), Duration::sec(6.0));
  const std::uint8_t old_code = pool.mme(0).mme_code();

  // Scale out with a strong selection weight for new registrations.
  auto& fresh_mme = pool.add_mme(/*weight=*/10.0);
  auto newcomers = tb.make_ues(site, 60, {0.5});
  tb.register_all(site, Duration::sec(3.0), Duration::sec(6.0));

  // Existing devices stayed on the old MME...
  for (epc::Ue* ue : registered) {
    ASSERT_TRUE(ue->registered());
    EXPECT_EQ(ue->guti()->mme_code, old_code);
  }
  // ...while most newcomers landed on the new one.
  std::size_t on_new = 0;
  for (epc::Ue* ue : newcomers)
    if (ue->registered() && ue->guti()->mme_code == fresh_mme.mme_code())
      ++on_new;
  EXPECT_GT(on_new, newcomers.size() / 2);
  EXPECT_GT(fresh_mme.app().store().size(), 0u);
}

}  // namespace
}  // namespace scale
