// Determinism: the whole stack — PRNG, event ordering, CPU queues, routing
// — must produce bit-identical trajectories for identical seeds, and
// different ones for different seeds. Every benchmark number rests on this.
#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.h"
#include "hash/md5.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using testbed::Testbed;

// Run a moderately busy SCALE scenario and produce a fingerprint of
// everything observable; a nonzero `shed_backlog` turns on binary shedding.
std::string run_fingerprint(std::uint64_t seed,
                            Duration shed_backlog = Duration::zero()) {
  Testbed::Config tcfg;
  tcfg.seed = seed;
  Testbed tb(tcfg);
  auto& site = tb.add_site(2);
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 3;
  cfg.seed = seed * 31;
  cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(800.0);
  cfg.mmp_shed_backlog = shed_backlog;
  core::ScaleCluster cluster(tb.fabric(), site.sgw->node(), tb.hss().node(),
                             cfg);
  for (auto& enb : site.enbs) cluster.connect_enb(*enb);

  auto ues = tb.make_ues(site, 300, {0.8});
  tb.register_all(site, Duration::sec(5.0), Duration::sec(4.0));
  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 400.0;
  drv.mix.service_request = 0.5;
  drv.mix.tau = 0.3;
  drv.mix.handover = 0.2;
  drv.seed = seed + 1;
  workload::OpenLoopDriver driver(tb.engine(), ues, drv);
  driver.set_handover_targets(site.enb_ptrs());
  driver.start(tb.engine().now() + Duration::sec(6.0));
  cluster.run_epoch();
  tb.run_for(Duration::sec(8.0));

  std::ostringstream os;
  os << tb.engine().events_processed() << '|'
     << tb.network().messages_sent() << '|' << tb.network().bytes_sent()
     << '|' << driver.issued() << '|' << cluster.total_requests() << '|'
     << cluster.mlb().initial_routed() << '|'
     << cluster.mlb().sticky_routed();
  for (auto& mmp : cluster.mmps())
    os << '|' << mmp->requests_handled() << ':'
       << mmp->app().store().size() << ':' << mmp->replicas_pushed();
  for (const auto& ue : site.ues) {
    os << '|' << (ue->registered() ? 1 : 0) << (ue->connected() ? 1 : 0);
    if (ue->guti()) os << ue->guti()->m_tmsi;
  }
  if (tb.delays().total_count() > 0) {
    const auto merged = tb.delays().merged();
    os << '|' << merged.count() << ':' << merged.percentile(0.5) << ':'
       << merged.percentile(0.99);
  }
  return os.str();
}

TEST(Determinism, IdenticalSeedsIdenticalTrajectories) {
  const std::string a = run_fingerprint(12345);
  const std::string b = run_fingerprint(12345);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_fingerprint(1), run_fingerprint(2));
}

TEST(Determinism, FingerprintGoldenDigest) {
  // Pins the complete same-seed trajectory, not just within-process
  // equality: any change to event ordering, routing, RNG draw order, or
  // container iteration moves this digest. Baseline set when
  // UeContextStore::for_each/keys_if switched from hash order to sorted
  // GUTI-key order (ScaleLint rule L2) — the trajectory is hash-layout-free
  // from then on, so the digest is stable by construction. If a PR changes
  // behavior *intentionally*, re-baseline this constant and say so in
  // CHANGES.md; if it moved and you didn't expect it, you broke replay.
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(run_fingerprint(12345))),
            "192a5ab5df0e500cc793e8d5684cd1b6");
}

TEST(Determinism, BinaryShedGoldenDigest) {
  // Pins the OverloadRejects, their backoff hint and the MLB's re-steers.
  const std::string fp = run_fingerprint(12345, Duration::us(200));
  EXPECT_NE(fp, run_fingerprint(12345)) << "the shed path must engage";
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(fp)),
            "a36c976f72bd620abe941c72e165bb77");
}

TEST(Determinism, TestbedRejectsAThreadCount) {
  // The simulator runs one engine (DESIGN.md §10); Config::threads survives
  // only as a field the WholeRun harness sets to 0.
  Testbed::Config tcfg;
  tcfg.threads = 1;
  EXPECT_THROW(Testbed{tcfg}, CheckError);
  tcfg.threads = 0;
  EXPECT_NO_THROW(Testbed{tcfg});
}

TEST(Determinism, RngSequenceStable) {
  // Golden values: changing the PRNG would silently re-randomize every
  // benchmark. If this fails intentionally, re-baseline EXPERIMENTS.md.
  Rng rng(0x5CA1E);
  EXPECT_EQ(rng.next_u64(), 0x7FC813E5AC22C081ull);
  EXPECT_EQ(rng.next_u64(), 0x141B44E4D2B9CB47ull);
  EXPECT_EQ(rng.next_below(1000), 735ull);
}

TEST(Determinism, Md5RingPlacementStable) {
  // GUTI → ring-position goldens (MD5 is standardized; these pin the
  // key-packing too).
  const proto::Guti g{310, 17, 3, 0xBEEF01};
  EXPECT_EQ(hash::md5_u64(g.key()), hash::md5_u64(g.key()));
  hash::ConsistentHashRing ring(5);
  for (hash::RingNodeId n = 1; n <= 10; ++n) ring.add_node(n);
  EXPECT_EQ(ring.owner(g.key()), ring.owner(g.key()));
  // Placement is insensitive to unrelated process state.
  std::vector<hash::RingNodeId> first;
  std::vector<hash::RingNodeId> second;
  ring.preference_list(g.key(), 3, first);
  hash::ConsistentHashRing ring2(5);
  for (hash::RingNodeId n = 10; n >= 1; --n) ring2.add_node(n);
  ring2.preference_list(g.key(), 3, second);
  EXPECT_EQ(second, first);
}

}  // namespace
}  // namespace scale
