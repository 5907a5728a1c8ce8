// perf_core — deterministic microbench of the simulator hot path: the event
// engine (schedule / fire / cancel, and a 10⁵-deep pending set with
// cancelled guard timers), the PDU codecs and a fabric hop, each reported as
// throughput (events/s, PDUs/s, bytes/s) *and* as an exact heap allocation
// count from an interposing counting allocator.
//
// The allocation counters are the perf trajectory's regression gate: they are
// a pure function of the (seeded, deterministic) workload and the toolchain,
// so tier1.sh can hard-fail when a change re-introduces per-event heap
// traffic — without the flakiness of comparing wall times in CI. Wall-clock
// numbers are reported for humans and for the BENCH_core.json trajectory,
// but never gated on.
//
// The scale_warm_sr_tau phase runs whole Service Request and TAU procedures
// on a small SCALE world (UE → eNodeB → MLB → MMP → S-GW, replica push and
// apply) after a warm-up round: its allocation count is 0, so any heap call
// that creeps back onto the per-procedure path fails the gate.
//
// The fig10_1m_capacity section is the MillionUE gate (ROADMAP item 2): a
// full ScaleCluster holding 10⁶ UE contexts (fig 10's world at the paper's
// original scale), measuring load rate, resident bytes per UE against the
// DESIGN.md §12 budget, a Service-Request storm through the MLB→MMP path,
// and a provisioning-epoch sweep. Peak-RSS and events/s baselines are gated
// by `bench_json_check --compare-capacity`. --quick runs the same phases at
// 100 K UEs for the sanitizer legs (numbers not comparable to baselines).
//
// scripts/bench_baseline.sh runs this with --json to (re)write the committed
// BENCH_core.json at the repo root; see EXPERIMENTS.md ("perf_core").
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/time.h"
#include "core/cluster.h"
#include "epc/fabric.h"
#include "obs/bench_main.h"
#include "proto/buffer_pool.h"
#include "proto/codec.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "testbed/crash_world.h"

// ------------------------------------------------------------------------
// Counting allocator interposer: every global new/delete in this binary is
// tallied. Relaxed atomics keep it valid even if a future bench goes
// multi-threaded; in today's single-threaded runs they cost nothing.
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                               (n + static_cast<std::size_t>(al) - 1) &
                                   ~(static_cast<std::size_t>(al) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace scale;

/// One measured phase: ops + wall time + allocator delta.
struct PhaseResult {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;  ///< payload bytes (codec phases), else 0
  std::int64_t wall_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  double mops_per_sec() const {
    return wall_ns > 0 ? static_cast<double>(ops) * 1e3 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
  double mb_per_sec() const {
    return wall_ns > 0 ? static_cast<double>(bytes) * 1e3 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
  double allocs_per_op() const {
    return ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops)
                   : 0.0;
  }
};

template <typename Fn>
PhaseResult run_phase(Fn&& body) {
  PhaseResult r;
  const std::uint64_t a0 = g_alloc_calls.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::int64_t t0 = wall_clock_ns();
  body(r);
  r.wall_ns = wall_clock_ns() - t0;
  r.allocs = g_alloc_calls.load(std::memory_order_relaxed) - a0;
  r.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
  return r;
}

// ---------------------------------------------------------------- workloads

/// Self-rescheduling timer lane: the dominant event shape in the simulator
/// (retransmit timers, inactivity timers, CPU completions). Capture is small
/// on purpose — it must ride the engine's inline action storage.
void tick(sim::Engine& eng, std::uint64_t& fired, std::uint64_t budget,
          std::uint32_t lane) {
  ++fired;
  if (fired >= budget) return;
  const std::int64_t delay =
      1 + static_cast<std::int64_t>((lane * 7u + fired % 13u) % 97u);
  eng.after(Duration::us(delay),
            [&eng, &fired, budget, lane] { tick(eng, fired, budget, lane); });
}

PhaseResult phase_engine_timer_ring(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    sim::Engine eng;
    std::uint64_t fired = 0;
    const std::uint64_t kBudget = 2'000'000 / div;
    constexpr std::uint32_t kLanes = 512;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane)
      eng.after(Duration::us(1 + lane % 29),
                [&eng, &fired, kBudget, lane] {
                  tick(eng, fired, kBudget, lane);
                });
    eng.run();
    r.ops = eng.events_processed();
  });
}

PhaseResult phase_engine_cancel_churn(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    sim::Engine eng;
    const std::uint64_t kRounds = 500'000 / div;
    std::uint64_t guard_fired = 0;
    std::uint64_t cancelled = 0;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      // The guard-timer idiom: arm a deadline, then the "response" arrives
      // first and cancels it — the hottest cancel() shape in the tree.
      const sim::EventId guard =
          eng.after(Duration::us(5), [&guard_fired] { ++guard_fired; });
      eng.after(Duration::us(1), [&eng, &cancelled, guard] {
        if (eng.cancel(guard)) ++cancelled;
      });
      eng.run();
    }
    r.ops = kRounds * 2;  // schedules per round (one fires, one cancels)
    if (cancelled != kRounds) r.ops = 0;  // impossible; poisons the report
  });
}

/// The pending-set shape of a large IoT population, which the timer ring
/// (512 entries, no cancels) hides: ~10⁵ armed far-future device wake-ups
/// (each re-arming one period later), a ring of near-term lanes doing the
/// work, and every lane tick arming a 30 s guard that its next tick
/// cancels — the Ue/MME guard-timer idiom, whose cancelled entries a queue
/// must reclaim long before their deadline or carry as dead weight.
struct DeepPending {
  static constexpr std::uint32_t kLanes = 256;
  sim::Engine eng;
  std::vector<sim::EventId> guards = std::vector<sim::EventId>(kLanes, 0);
  std::uint64_t ticks = 0;
  std::uint64_t budget = 0;
  std::uint64_t rng = 0x2545F4914F6CDD1Dull;

  std::uint64_t next() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  }
  void wake() {
    if (ticks < budget) eng.after(Duration::sec(2.0), [this] { wake(); });
  }
  void tick(std::uint32_t lane) {
    eng.cancel(guards[lane]);
    if (++ticks >= budget) return;
    guards[lane] = eng.after(Duration::sec(30.0), [] {});
    eng.after(Duration::us(1 + static_cast<std::int64_t>(
                                   (lane * 7u + ticks % 13u) % 97u)),
              [this, lane] { tick(lane); });
  }
};

PhaseResult phase_engine_deep_pending(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    DeepPending d;
    d.budget = 2'000'000 / div;
    const std::uint64_t kDevices = 100'000 / div;
    for (std::uint64_t i = 0; i < kDevices; ++i)
      d.eng.after(Duration::us(1'000 + static_cast<std::int64_t>(
                                           d.next() % 2'000'000)),
                  [&d] { d.wake(); });
    for (std::uint32_t lane = 0; lane < DeepPending::kLanes; ++lane)
      d.eng.after(Duration::us(1 + lane % 29), [&d, lane] { d.tick(lane); });
    d.eng.run();
    r.ops = d.eng.events_processed();
  });
}

proto::Pdu attach_pdu() {
  proto::NasAttachRequest nas;
  nas.imsi = 123456789012345ull;
  nas.old_guti = proto::Guti{310, 17, 3, 0xBEEF01};
  nas.tac = 7;
  return proto::make_pdu(
      proto::InitialUeMessage{9, 8, 7, proto::NasMessage{nas}});
}

proto::Pdu transfer_pdu() {
  proto::UeContextRecord rec;
  rec.imsi = 987654321012345ull;
  rec.guti = proto::Guti{310, 17, 3, 0xC0FFEE};
  rec.active = true;
  rec.version = 12;
  return proto::make_pdu(proto::StateTransfer{rec});
}

PhaseResult phase_codec_encode(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    const proto::Pdu a = attach_pdu();
    const proto::Pdu b = transfer_pdu();
    const std::uint64_t kIters = 400'000 / div;
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      proto::PooledBuffer buf = proto::encode_pdu_pooled(i % 2 == 0 ? a : b);
      bytes += buf->size();
    }
    r.ops = kIters;
    r.bytes = bytes;
  });
}

PhaseResult phase_codec_decode(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    const std::vector<std::uint8_t> a = proto::encode_pdu(attach_pdu());
    const std::vector<std::uint8_t> b = proto::encode_pdu(transfer_pdu());
    const std::uint64_t kIters = 200'000 / div;
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      const proto::Pdu pdu = proto::decode_pdu(i % 2 == 0 ? a : b);
      bytes += proto::wire_size(pdu);
    }
    r.ops = kIters;
    r.bytes = bytes;
  });
}

/// Ping-pong endpoint: every received PDU is sent straight back until the
/// hop budget is spent — the eNB→MLB→MMP delivery machinery (wire-size
/// accounting, fault check, engine event per hop) without protocol logic.
struct EchoEndpoint final : epc::Endpoint {
  sim::NodeId peer = 0;
  std::uint64_t* remaining = nullptr;

  explicit EchoEndpoint(epc::Fabric& f) : Endpoint(f) {}
  void receive(sim::NodeId, const proto::PduRef& ref) override {
    if (*remaining == 0) return;
    --*remaining;
    fabric_.send(node(), peer, ref);
  }
};

PhaseResult phase_fabric_hop(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    sim::Engine eng;
    sim::Network net;
    epc::Fabric fabric(eng, net);
    std::uint64_t remaining = 300'000 / div;
    EchoEndpoint a(fabric);
    EchoEndpoint b(fabric);
    a.peer = b.node();
    b.peer = a.node();
    a.remaining = &remaining;
    b.remaining = &remaining;
    fabric.send(a.node(), b.node(), proto::box(attach_pdu()));
    eng.run();
    r.ops = net.messages_sent();
    r.bytes = net.bytes_sent();
  });
}

PhaseResult phase_buffer_pool(std::uint64_t div) {
  return run_phase([div](PhaseResult& r) {
    const std::uint64_t kIters = 1'000'000 / div;
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      proto::PooledBuffer buf =
          proto::BufferPool::local().acquire(proto::kPduReserveBytes);
      buf->push_back(static_cast<std::uint8_t>(i & 0xFF));
      bytes += buf->capacity();
    }
    r.ops = kIters;
    r.bytes = bytes;
  });
}

/// Warmed procedures on a small SCALE world: 200 registered UEs on one
/// eNodeB, a 4-MMP cluster with two local copies. Each round staggers one
/// procedure per UE 2 ms apart, then runs past the 5 s inactivity timeout
/// so every UE is Idle again. Two SR+TAU rounds warm every table (eNB
/// connections, MMP transactions, S-GW sessions, fabric batches, engine
/// and pools) to its high-water size; the two measured rounds must then
/// make no heap call.
PhaseResult phase_warm_sr_tau() {
  constexpr std::size_t kUes = 200;
  constexpr Duration kStagger = Duration::ms(2.0);
  testbed::CrashWorld w(testbed::CrashWorld::Options{});
  const std::vector<epc::Ue*> ues =
      w.tb.make_ues(*w.site, kUes, std::vector<double>{0.5});
  if (w.tb.register_all(*w.site, Duration::sec(1.0)) != kUes)
    std::fprintf(stderr, "warm_sr_tau: not every UE registered\n");
  std::uint64_t completed = 0;
  for (epc::Ue* ue : ues)
    ue->set_completion_sink(
        [&completed](epc::Ue&, proto::ProcedureType, Duration) {
          ++completed;
        });
  const auto round = [&](bool tau) {
    for (std::size_t i = 0; i < ues.size(); ++i) {
      epc::Ue* ue = ues[i];
      w.tb.engine().after(kStagger * static_cast<double>(i), [ue, tau] {
        if (tau)
          ue->tracking_area_update();
        else
          ue->service_request();
      });
    }
    w.tb.run_for(kStagger * static_cast<double>(ues.size()) +
                 Duration::sec(6.0));
  };
  for (int i = 0; i < 2; ++i) {
    round(false);
    round(true);
  }
  const std::uint64_t warm = completed;
  return run_phase([&](PhaseResult& r) {
    for (int i = 0; i < 2; ++i) {
      round(false);
      round(true);
    }
    r.ops = completed - warm;
  });
}

// ------------------------------------------------------------- fig10 @ 1M

/// Kernel-reported memory figure from /proc/self/status ("VmRSS" = current
/// resident set, "VmHWM" = peak). Returns 0 where /proc is unavailable —
/// the capacity gates are skipped, not failed, on such platforms.
std::uint64_t proc_status_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  const std::size_t flen = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, flen) == 0 && line[flen] == ':') {
      std::sscanf(line + flen + 1, "%llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb) * 1024;
}

/// S-GW / HSS stand-in: the capacity world loads records without a live
/// data session (invalid sgw_teid), so Service Requests complete entirely
/// MME-side and these nodes only have to exist as fabric destinations.
struct SinkEndpoint final : epc::Endpoint {
  explicit SinkEndpoint(epc::Fabric& f) : Endpoint(f) {}
  std::uint64_t received = 0;
  void receive(sim::NodeId, const proto::PduRef&) override { ++received; }
};

/// The storm's eNodeB stand-in: fires seeded Service Requests at the MLB
/// and tallies the S1AP traffic the cluster sends back. No responses are
/// required — ICS responses and release completes are pure bookkeeping on
/// the MME side (see MmeApp::handle_s1ap).
struct StormEnb final : epc::Endpoint {
  explicit StormEnb(epc::Fabric& f) : Endpoint(f) {}
  sim::NodeId mlb = 0;
  std::uint64_t budget = 0;
  std::uint64_t sent = 0;
  std::uint32_t ues = 0;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  Duration interval = Duration::us(10);

  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  std::uint64_t releases = 0;

  void send_one() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    proto::NasServiceRequest sr;
    sr.mme_code = 1;
    sr.m_tmsi = 1 + static_cast<std::uint32_t>((rng >> 33) % ues);
    proto::InitialUeMessage msg;
    msg.enb_id = static_cast<std::uint32_t>(node());  // releases route back
    msg.enb_ue_id = static_cast<proto::EnbUeId>(sent + 1);
    msg.tac = 7;
    msg.nas = proto::NasMessage{sr};
    fabric_.send(node(), mlb, proto::box(msg));
    if (++sent < budget)
      fabric_.engine().after(interval, [this] { send_one(); });
  }

  void receive(sim::NodeId, const proto::PduRef& ref) override {
    const proto::Pdu& pdu = ref->value;
    const auto* s1 = std::get_if<proto::S1apMessage>(&pdu);
    if (s1 == nullptr) return;
    if (const auto* dl = std::get_if<proto::DownlinkNasTransport>(s1)) {
      if (std::holds_alternative<proto::NasServiceAccept>(dl->nas))
        ++accepts;
      else if (std::holds_alternative<proto::NasServiceReject>(dl->nas))
        ++rejects;
    } else if (std::holds_alternative<proto::UeContextReleaseCommand>(*s1)) {
      ++releases;
    }
  }
};

struct CapacityRow {
  const char* name;
  PhaseResult r;
  std::uint64_t peak_rss = 0;     ///< VmHWM after the phase
  double bytes_per_ue = 0.0;      ///< load row only (RSS delta / UEs)
};

struct CapacityOut {
  std::uint64_t ues = 0;
  std::vector<CapacityRow> rows;
  std::uint64_t footprint_bytes = 0;  ///< intrinsic store bytes (all VMs)
  std::uint64_t delivery_batches = 0;
  std::uint64_t batched_pdus = 0;
  std::uint64_t accepts = 0;
  std::uint64_t sent = 0;
  bool ok = true;
};

/// The fig10 world at the paper's original scale: 8 MMP VMs mastering 10⁶
/// contexts (bulk-loaded through MmeApp::adopt at their ring owner, the
/// migration/restore install path), then a 100 K SR/s storm through the
/// real MLB steering → MMP → ClusterReply path, then one provisioning
/// epoch (the wᵢ EWMA epoch_scan, β, Eq. 1 sizing, geo selection) over the
/// full population. --quick runs 100 K UEs / 20 K storm for sanitizers.
CapacityOut run_capacity(bool quick) {
  const std::uint64_t kUes = quick ? 100'000 : 1'000'000;
  const std::uint64_t kStorm = quick ? 20'000 : 200'000;
  constexpr double kBudgetBytesPerUe = 256.0;  // DESIGN.md §12 budget
  CapacityOut out;
  out.ues = kUes;

  sim::Engine eng;
  sim::Network net;
  epc::Fabric fabric(eng, net);

  SinkEndpoint sgw(fabric);
  SinkEndpoint hss(fabric);
  const sim::NodeId sgw_node = sgw.node();
  const sim::NodeId hss_node = hss.node();

  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 8;
  // Front-end and VM speeds sized so the 100 K SR/s storm runs the pool at
  // moderate utilization — this phase measures throughput, not the
  // overload knee (fig 8 / ablation_overload own that).
  cfg.mlb.cpu_speed = 50.0;
  cfg.vm_template.cpu_speed = 50.0;
  cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
  // Eq. 1 sizing that reproduces the running pool: V_S = ⌈β·R·K/S⌉ =
  // ⌈1·2·K/(K/4)⌉ = 8, and a per-VM request budget large enough that V_C
  // never binds — the epoch re-decides 8 VMs and migrates nothing.
  cfg.provisioner.devices_per_vm = kUes / 4;
  cfg.provisioner.requests_per_vm_epoch = 100'000'000;
  cfg.seed = 4242;
  core::ScaleCluster cluster(fabric, sgw_node, hss_node, cfg);

  std::unordered_map<sim::NodeId, core::MmpNode*> by_node;
  for (auto& mmp : cluster.mmps()) by_node[mmp->node()] = mmp.get();

  const std::uint64_t rss_before = proc_status_bytes("VmRSS");

  // ---- load: 10⁶ master contexts through adopt() at their ring owner.
  CapacityRow load{"fig10_1m_load", {}, 0, 0.0};
  load.r = run_phase([&](PhaseResult& r) {
    for (std::uint64_t i = 0; i < kUes; ++i) {
      proto::UeContextRecord rec;
      rec.imsi = 100'000'000'000'000ull + i;
      rec.guti = proto::Guti{1, 1, 1, static_cast<std::uint32_t>(i + 1)};
      rec.access_freq = 0.5;
      rec.home_dc = 0;
      rec.sgw_node = static_cast<std::uint32_t>(sgw_node);
      const sim::NodeId owner = cluster.ring().owner(rec.guti.key());
      by_node.at(owner)->app().adopt(rec, epc::ContextRole::kMaster);
    }
    r.ops = kUes;
  });
  const std::uint64_t rss_loaded = proc_status_bytes("VmRSS");
  load.peak_rss = proc_status_bytes("VmHWM");
  if (rss_loaded > rss_before)
    load.bytes_per_ue = static_cast<double>(rss_loaded - rss_before) /
                        static_cast<double>(kUes);
  out.rows.push_back(load);

  const std::uint64_t loaded = cluster.registered_devices();
  if (loaded != kUes) {
    std::fprintf(stderr, "capacity: loaded %llu of %llu contexts\n",
                 static_cast<unsigned long long>(loaded),
                 static_cast<unsigned long long>(kUes));
    out.ok = false;
  }
  if (!quick && load.bytes_per_ue > kBudgetBytesPerUe) {
    std::fprintf(stderr, "capacity: %.1f bytes/UE exceeds the %.0f budget\n",
                 load.bytes_per_ue, kBudgetBytesPerUe);
    out.ok = false;
  }

  // ---- storm: seeded Idle→Active requests through MLB steering. The
  // loaded records carry no S-GW session, so each SR completes MME-side
  // (restore → ICS + ServiceAccept) and idles out 400 ms later.
  StormEnb enb(fabric);
  enb.mlb = cluster.mlb().node();
  enb.budget = kStorm;
  enb.ues = static_cast<std::uint32_t>(kUes);
  enb.interval = Duration::us(10);  // 100 K SR/s offered
  const Duration storm_span =
      Duration::us(10.0 * static_cast<double>(kStorm));

  CapacityRow storm{"fig10_1m_storm", {}, 0, 0.0};
  const std::uint64_t ev0 = eng.events_processed();
  storm.r = run_phase([&](PhaseResult& r) {
    eng.after(Duration::us(1), [&enb] { enb.send_one(); });
    // The horizon covers the storm plus inactivity releases + drain.
    eng.run_until(eng.now() + storm_span + Duration::sec(3.0));
    r.ops = eng.events_processed() - ev0;
  });
  storm.peak_rss = proc_status_bytes("VmHWM");
  out.rows.push_back(storm);
  out.accepts = enb.accepts;
  out.sent = enb.sent;
  // A same-device SR racing an in-flight SR folds into one accept (the
  // second txn supersedes the first); with 2·10⁵ draws over 10⁶ devices
  // that is a handful of arrivals, hence the 99.5% floor.
  if (enb.sent != kStorm ||
      static_cast<double>(enb.accepts) <
          0.995 * static_cast<double>(kStorm)) {
    std::fprintf(stderr, "capacity: storm sent %llu, accepts %llu\n",
                 static_cast<unsigned long long>(enb.sent),
                 static_cast<unsigned long long>(enb.accepts));
    out.ok = false;
  }

  // ---- sweep: one full provisioning epoch over the 10⁶ population — the
  // epoch_scan wᵢ EWMA, β(x), Eq. 1 re-decision (stays at 8 VMs), Eq. 3
  // probability scale, and geo selection.
  CapacityRow sweep{"fig10_1m_sweep", {}, 0, 0.0};
  sweep.r = run_phase([&](PhaseResult& r) {
    const auto report = cluster.run_epoch();
    eng.run_until(eng.now() + Duration::ms(500.0));
    if (report.registered != loaded || report.decision.vms != 8) {
      std::fprintf(stderr, "capacity: epoch saw %llu devices, decided %u\n",
                   static_cast<unsigned long long>(report.registered),
                   report.decision.vms);
      out.ok = false;
    }
    r.ops = loaded;
  });
  sweep.peak_rss = proc_status_bytes("VmHWM");
  out.rows.push_back(sweep);

  for (auto& mmp : cluster.mmps()) {
    mmp->app().store().audit();
    out.footprint_bytes += mmp->app().store().footprint_bytes();
  }
  out.delivery_batches = fabric.delivery_batches();
  out.batched_pdus = fabric.batched_pdus();
  return out;
}

struct NamedPhase {
  const char* name;
  PhaseResult result;
};

}  // namespace

int main(int argc, char** argv) {
  obs::BenchMain bm(argc, argv, "perf_core",
                    "perf_core — engine/codec/fabric hot-path microbench");
  const std::uint64_t div = bm.quick() ? 10 : 1;

  // Warm the per-thread pools once so the measured phases see steady state —
  // the regime every long simulation runs in after its first few events.
  { auto warm = phase_buffer_pool(div); (void)warm; }

  // The capacity world runs before the microbench phases: blocks a phase
  // leaves in the per-thread pools are reused by whatever runs next, so
  // running it first keeps its allocation counts independent of which
  // microbench phases exist.
  const CapacityOut cap = run_capacity(bm.quick());

  const NamedPhase phases[] = {
      {"engine_timer_ring", phase_engine_timer_ring(div)},
      {"engine_cancel_churn", phase_engine_cancel_churn(div)},
      {"engine_deep_pending", phase_engine_deep_pending(div)},
      {"codec_encode", phase_codec_encode(div)},
      {"codec_decode", phase_codec_decode(div)},
      {"fabric_hop", phase_fabric_hop(div)},
      {"buffer_pool", phase_buffer_pool(div)},
      {"scale_warm_sr_tau", phase_warm_sr_tau()},
  };

  auto& thr = bm.report().section("throughput");
  thr.columns({"ops", "wall_ms", "Mops_per_s", "MB_per_s"});
  for (const auto& [name, r] : phases)
    thr.row(name, {static_cast<double>(r.ops),
                   static_cast<double>(r.wall_ns) / 1e6, r.mops_per_sec(),
                   r.mb_per_sec()});

  auto& alloc = bm.report().section("allocations");
  alloc.columns({"allocs", "alloc_bytes", "ops", "allocs_per_op"});
  for (const auto& [name, r] : phases)
    alloc.row(name, {static_cast<double>(r.allocs),
                     static_cast<double>(r.alloc_bytes),
                     static_cast<double>(r.ops), r.allocs_per_op()});
  for (const auto& row : cap.rows)
    alloc.row(row.name, {static_cast<double>(row.r.allocs),
                         static_cast<double>(row.r.alloc_bytes),
                         static_cast<double>(row.r.ops),
                         row.r.allocs_per_op()});

  auto& capsec = bm.report().section("fig10_1m_capacity");
  capsec.columns(
      {"ues", "ops", "wall_ms", "ops_per_s", "peak_rss_bytes", "bytes_per_ue"});
  for (const auto& row : cap.rows) {
    const double ops_per_s =
        row.r.wall_ns > 0 ? static_cast<double>(row.r.ops) * 1e9 /
                                static_cast<double>(row.r.wall_ns)
                          : 0.0;
    capsec.row(row.name,
               {static_cast<double>(cap.ues), static_cast<double>(row.r.ops),
                static_cast<double>(row.r.wall_ns) / 1e6, ops_per_s,
                static_cast<double>(row.peak_rss), row.bytes_per_ue});
  }

  bm.report().note(
      "allocs are deterministic for a given toolchain and are the CI "
      "regression gate (tier1.sh); wall times are informational only.\n"
      "fig10_1m_capacity holds 10^6 UE contexts on 8 MMP VMs (100k under "
      "--quick): bytes_per_ue gates the DESIGN.md \xC2\xA7""12 slab/SoA "
      "budget (<=256 B/UE resident); peak_rss_bytes and ops_per_s are "
      "baseline-gated via bench_json_check --compare-capacity. This run: " +
      std::to_string(cap.footprint_bytes / (cap.ues ? cap.ues : 1)) +
      " intrinsic store B/UE, " + std::to_string(cap.accepts) + "/" +
      std::to_string(cap.sent) + " SR accepts, " +
      std::to_string(cap.delivery_batches) + " delivery batches folding " +
      std::to_string(cap.batched_pdus) + " PDUs");

  const int rc = bm.finish();
  if (rc != 0) return rc;
  if (!cap.ok) {
    std::fprintf(stderr, "perf_core: fig10_1m capacity gate FAILED\n");
    return 3;
  }
  return 0;
}
