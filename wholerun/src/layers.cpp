#include "layers.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "obs/registry.h"
#include "proto/codec.h"
#include "sim/engine.h"

namespace wholerun {

using namespace scale;

namespace {

// Keeps replayed results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Role { kEnb, kSgw, kHss, kMlb, kMmp };

struct Node {
  sim::NodeId id;
  Role role;
  std::uint32_t dc;
};

std::vector<Node> nodes_of(World& w) {
  testbed::Testbed& tb = w.tb();
  sim::Network& net = tb.network();
  std::vector<Node> out;
  auto add = [&](sim::NodeId id, Role r) {
    out.push_back({id, r, net.dc_of(id)});
  };
  add(tb.hss().node(), Role::kHss);
  for (std::size_t i = 0; i < tb.site_count(); ++i) {
    auto& site = tb.site(i);
    add(site.sgw->node(), Role::kSgw);
    for (const auto& enb : site.enbs) add(enb->node(), Role::kEnb);
  }
  for (const auto& c : w.clusters()) {
    for (const auto& mlb : c->mlbs()) add(mlb->node(), Role::kMlb);
    for (const auto& mmp : c->mmps()) add(mmp->node(), Role::kMmp);
  }
  return out;
}

std::size_t classify(const Node& a, const Node& b) {
  if (a.dc != b.dc) return kGeo;
  if (a.role == Role::kEnb && b.role == Role::kMlb) return kS1apUp;
  if (a.role == Role::kMlb && b.role == Role::kEnb) return kS1apDown;
  if (a.role == Role::kMlb && b.role == Role::kMmp) return kClusterFwd;
  if (a.role == Role::kMmp && b.role == Role::kMlb) return kClusterReply;
  if (a.role == Role::kMmp && b.role == Role::kMmp) return kMmpMmp;
  if (a.role == Role::kSgw || b.role == Role::kSgw) return kS11;
  if (a.role == Role::kHss || b.role == Role::kHss) return kS6;
  return kLinkClasses;  // no traffic expected on other pairs
}

}  // namespace

const std::vector<std::string>& link_class_names() {
  static const std::vector<std::string> names = {
      "s1ap_up", "s1ap_down", "cluster_fwd", "cluster_reply",
      "mmp_mmp", "s11",       "s6",          "geo"};
  return names;
}

Counters read_counters(World& w, bool with_links) {
  testbed::Testbed& tb = w.tb();
  Counters c;
  obs::MetricsRegistry reg;
  tb.engine().export_metrics(reg, "engine");
  c.events = tb.engine().events_processed();
  c.queue_depth = static_cast<std::uint64_t>(reg.gauge("engine.queue_depth"));
  c.msgs = tb.network().messages_sent();
  c.bytes = tb.network().bytes_sent();
  c.batched_pdus = tb.fabric().batched_pdus();
  c.late_arrivals = tb.fabric().late_arrivals();
  c.dead_drops = tb.fabric().dropped();
  c.hss_auth = tb.hss().auth_requests_served();
  for (std::size_t i = 0; i < tb.site_count(); ++i)
    for (const auto& enb : tb.site(i).enbs)
      c.paced_initials += enb->paced_initials();
  for (std::size_t ci = 0; ci < w.clusters().size(); ++ci) {
    core::ScaleCluster& cl = *w.clusters()[ci];
    for (const auto& mlb : cl.mlbs()) {
      c.initial_routed += mlb->initial_routed();
      c.sticky_routed += mlb->sticky_routed();
      c.mlb_overload_rejects += mlb->overload_rejects();
      c.cpu_busy_us.push_back(mlb->cpu().cumulative_busy().count_us());
      c.cpu_backlog_us.push_back(mlb->cpu().backlog().count_us());
    }
    for (const auto& mmp : cl.mmps()) {
      c.forwarded_to_master += mmp->forwarded_to_master();
      c.replicas_pushed += mmp->replicas_pushed();
      c.geo_offloads += mmp->geo_offloads();
      c.sheds += mmp->overload_sheds();
      c.mmp_requests.push_back(mmp->requests_handled());
      c.mmp_cluster.push_back(ci);
      c.cpu_busy_us.push_back(mmp->cpu().cumulative_busy().count_us());
      c.cpu_backlog_us.push_back(mmp->cpu().backlog().count_us());
    }
  }
  c.arrivals = w.arrivals();
  if (with_links) {
    c.link_msgs.assign(kLinkClasses, 0);
    const std::vector<Node> nodes = nodes_of(w);
    for (const Node& a : nodes)
      for (const Node& b : nodes) {
        if (a.id == b.id) continue;
        const std::size_t k = classify(a, b);
        if (k < kLinkClasses)
          c.link_msgs[k] += tb.network().messages_between(a.id, b.id);
      }
  }
  return c;
}

namespace {

template <typename T>
std::vector<T> minus(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out(a);
  for (std::size_t i = 0; i < out.size() && i < b.size(); ++i) out[i] -= b[i];
  return out;
}

}  // namespace

Counters diff(const Counters& later, const Counters& earlier) {
  Counters d = later;
  d.events -= earlier.events;
  d.msgs -= earlier.msgs;
  d.bytes -= earlier.bytes;
  d.batched_pdus -= earlier.batched_pdus;
  d.late_arrivals -= earlier.late_arrivals;
  d.dead_drops -= earlier.dead_drops;
  d.hss_auth -= earlier.hss_auth;
  d.paced_initials -= earlier.paced_initials;
  d.initial_routed -= earlier.initial_routed;
  d.sticky_routed -= earlier.sticky_routed;
  d.mlb_overload_rejects -= earlier.mlb_overload_rejects;
  d.forwarded_to_master -= earlier.forwarded_to_master;
  d.replicas_pushed -= earlier.replicas_pushed;
  d.geo_offloads -= earlier.geo_offloads;
  d.sheds -= earlier.sheds;
  d.mmp_requests = minus(later.mmp_requests, earlier.mmp_requests);
  d.cpu_busy_us = minus(later.cpu_busy_us, earlier.cpu_busy_us);
  d.arrivals.generated -= earlier.arrivals.generated;
  d.arrivals.issued -= earlier.arrivals.issued;
  d.link_msgs = minus(later.link_msgs, earlier.link_msgs);
  return d;
}

namespace {

/// Registered devices' GUTI keys, grouped by the cluster that serves them
/// (one site per cluster in multi-DC worlds, a single cluster otherwise).
std::vector<std::vector<std::uint64_t>> keys_by_cluster(World& w) {
  testbed::Testbed& tb = w.tb();
  std::vector<std::vector<std::uint64_t>> out(w.clusters().size());
  for (std::size_t i = 0; i < tb.site_count(); ++i) {
    const std::size_t ci = w.clusters().size() > 1 ? i : 0;
    for (const auto& ue : tb.site(i).ues)
      if (ue->guti()) out[ci].push_back(ue->guti()->key());
  }
  return out;
}

const proto::UeContextRecord* find_record(World& w, std::uint64_t key) {
  for (const auto& c : w.clusters())
    for (const auto& mmp : c->mmps())
      if (const epc::UeContext* ctx = mmp->app().store().find(key))
        return &ctx->rec;
  return nullptr;
}

proto::Pdu initial_tau(const proto::Guti& g, std::uint32_t i) {
  proto::InitialUeMessage m;
  m.enb_id = i % 8;
  m.enb_ue_id = i;
  m.tac = 1;
  m.nas = proto::NasTauRequest{g, 1};
  return proto::make_pdu(m);
}

/// One representative PDU of `cls` built from a live device's state.
proto::Pdu sample_pdu(std::size_t cls, const proto::UeContextRecord& rec,
                      std::uint32_t i) {
  switch (cls) {
    case kS1apUp: {
      proto::InitialUeMessage m;
      m.enb_id = rec.enb_id;
      m.enb_ue_id = i;
      m.tac = rec.tac;
      m.nas = proto::NasServiceRequest{rec.guti.mme_code, rec.guti.m_tmsi,
                                       static_cast<std::uint16_t>(i)};
      return proto::make_pdu(m);
    }
    case kS1apDown: {
      proto::DownlinkNasTransport m;
      m.enb_id = rec.enb_id;
      m.enb_ue_id = i;
      m.mme_ue_id = rec.mme_ue_id;
      m.nas = proto::NasTauAccept{};
      return proto::make_pdu(m);
    }
    case kClusterFwd: {
      proto::ClusterForward m;
      m.origin = rec.enb_id;
      m.guti = rec.guti;
      m.inner = proto::box(initial_tau(rec.guti, i));
      return proto::make_pdu(m);
    }
    case kClusterReply: {
      proto::DownlinkNasTransport d;
      d.enb_id = rec.enb_id;
      d.enb_ue_id = i;
      d.mme_ue_id = rec.mme_ue_id;
      d.nas = proto::NasTauAccept{};
      proto::ClusterReply m;
      m.target = rec.enb_id;
      m.inner = proto::box(proto::make_pdu(d));
      return proto::make_pdu(m);
    }
    case kMmpMmp: {
      proto::ReplicaPush m;
      m.rec = rec;
      return proto::make_pdu(m);
    }
    case kS11: {
      proto::ModifyBearerRequest m;
      m.sgw_teid = rec.sgw_teid;
      m.mme_teid = rec.mme_teid;
      m.enb_id = rec.enb_id;
      return proto::make_pdu(m);
    }
    case kS6: {
      proto::AuthInfoAnswer m;
      m.imsi = rec.imsi;
      m.hop_ref = i;
      m.rand = rec.kasme ^ i;
      m.autn = rec.kasme;
      m.xres = rec.kasme + i;
      return proto::make_pdu(m);
    }
    default: {
      proto::GeoForward m;
      m.origin = rec.enb_id;
      m.home_dc = rec.home_dc;
      m.home_mlb = 1;
      m.guti = rec.guti;
      m.inner = proto::box(initial_tau(rec.guti, i));
      return proto::make_pdu(m);
    }
  }
}

/// A 1024-PDU sample of the window's traffic: classes in proportion to their
/// window message counts, contents from live device records.
std::vector<proto::Pdu> pdu_mix(World& w,
                                const std::vector<std::uint64_t>& link_msgs,
                                std::uint64_t seed) {
  constexpr std::size_t kMix = 1024;
  std::vector<const proto::UeContextRecord*> recs;
  for (const auto& keys : keys_by_cluster(w))
    for (std::size_t i = 0; i < keys.size() && i < 64; ++i)
      if (const auto* r = find_record(w, keys[i])) recs.push_back(r);
  std::vector<proto::Pdu> mix;
  if (recs.empty()) return mix;
  std::uint64_t total = 0;
  for (const std::uint64_t m : link_msgs) total += m;
  if (total == 0) return mix;
  std::uint32_t n = 0;
  for (std::size_t cls = 0; cls < link_msgs.size(); ++cls) {
    if (link_msgs[cls] == 0) continue;
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(kMix) *
                                    static_cast<double>(link_msgs[cls]) /
                                    static_cast<double>(total)));
    for (std::size_t k = 0; k < count; ++k, ++n)
      mix.push_back(sample_pdu(cls, *recs[n % recs.size()], n));
  }
  Rng rng(seed);
  rng.shuffle(mix);
  return mix;
}

/// Run `body(i)` for i in [0, calls) and return nanoseconds per call.
template <typename Fn>
double per_call_ns(std::size_t calls, Fn&& body) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < calls; ++i) body(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

/// Hold model at a fixed pending-set size: each fired event schedules one
/// successor a random delay ahead, so the heap stays `pending` deep.
struct Hold {
  struct State {
    sim::Engine engine;
    Rng rng{1};
    std::uint64_t span_us = 1;
  };
  State* s;
  void operator()() const {
    s->engine.after(Duration::us(1 + static_cast<std::int64_t>(
                                         s->rng.next_below(s->span_us))),
                    Hold{s});
  }
};

}  // namespace

ReplayCosts replay_layers(World& w, const std::vector<std::uint64_t>& link_msgs,
                          std::uint64_t pending, std::uint64_t seed) {
  constexpr std::size_t kCalls = 400'000;
  ReplayCosts r;

  // proto: the window's PDU mix through the three codec entry points.
  const std::vector<proto::Pdu> mix = pdu_mix(w, link_msgs, seed);
  r.pdu_mix_size = mix.size();
  if (!mix.empty()) {
    std::vector<std::vector<std::uint8_t>> wire;
    for (const auto& p : mix) wire.push_back(proto::encode_pdu(p));
    r.ns_per_encode = per_call_ns(kCalls, [&](std::size_t i) {
      g_sink = g_sink + proto::encode_pdu_pooled(mix[i % mix.size()])->size();
    });
    r.ns_per_decode = per_call_ns(kCalls, [&](std::size_t i) {
      g_sink = g_sink + proto::decode_pdu(wire[i % wire.size()]).index();
    });
    r.ns_per_wire_size = per_call_ns(kCalls, [&](std::size_t i) {
      g_sink = g_sink + proto::wire_size(mix[i % mix.size()]);
    });
  }

  // hash: ring ownership of every registered GUTI, on its own cluster's ring.
  const auto keys = keys_by_cluster(w);
  using RingKey = std::pair<const hash::ConsistentHashRing*, std::uint64_t>;
  std::vector<RingKey> ring_keys;
  for (std::size_t ci = 0; ci < keys.size(); ++ci)
    for (const std::uint64_t k : keys[ci])
      ring_keys.emplace_back(&w.clusters()[ci]->ring(), k);
  if (!ring_keys.empty()) {
    r.ns_per_owner = per_call_ns(kCalls, [&](std::size_t i) {
      const auto& [ring, k] = ring_keys[i % ring_keys.size()];
      g_sink = g_sink + ring->owner(k);
    });
  }

  // epc store: every MMP looks up its cluster's keys (hits and misses, as
  // the forward-to-master path does).
  std::vector<std::pair<const epc::UeContextStore*, std::uint64_t>> finds;
  for (std::size_t ci = 0; ci < keys.size(); ++ci)
    for (const auto& mmp : w.clusters()[ci]->mmps())
      for (std::size_t i = 0; i < keys[ci].size() && i < 50'000; ++i)
        finds.emplace_back(&mmp->app().store(), keys[ci][i]);
  if (!finds.empty()) {
    Rng rng(seed ^ 0x5EED);
    rng.shuffle(finds);
    r.ns_per_find = per_call_ns(kCalls, [&](std::size_t i) {
      const auto& [store, k] = finds[i % finds.size()];
      g_sink = g_sink + (store->find(k) != nullptr ? 1 : 0);
    });
  }

  // sim engine: schedule-and-fire with the window's peak pending set.
  {
    Hold::State s;
    s.rng = Rng(seed ^ 0xE4E4);
    s.span_us = 2 * std::max<std::uint64_t>(pending, 1);
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(pending, 1); ++i)
      s.engine.after(Duration::us(1 + static_cast<std::int64_t>(
                                          s.rng.next_below(s.span_us))),
                     Hold{&s});
    const std::uint64_t fires = std::max<std::uint64_t>(1'000'000, 4 * pending);
    const std::int64_t t0 = now_ns();
    s.engine.run(fires);
    r.ns_per_event =
        static_cast<double>(now_ns() - t0) / static_cast<double>(fires);
  }
  return r;
}

}  // namespace wholerun
