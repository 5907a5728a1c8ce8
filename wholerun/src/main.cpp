// WholeRun: one whole simulated world per process, timed end to end.
//
//   wholerun --workload <iot_periodic|geo_offload|attach_churn> --seed <n>
//            [--trace] [--spans <file>]
//
// One run = build the world, register its population, warm up with the load
// running, then measure a fixed simulated window, drain until every
// procedure has completed or failed, and check the outcome. Host times use
// std::chrono::steady_clock; simulated delays are exact for a seed.
//
// Untraced, the window runs with nothing but the slice loop around it.
// With --trace the benchmark also reads every layer's counters at each slice
// boundary (the timeline), records host spans (written to --spans at exit),
// and replays each layer's hot calls on the world's own state after the
// window to estimate where run_s went.
//
// The last stdout line is one JSON object with every raw figure; run.py
// turns it into the benchmark's metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/check.h"
#include "layers.h"
#include "worlds.h"

namespace {

using namespace wholerun;
using namespace scale;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", &kb);
      break;
    }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  int parent;
  std::int64_t start_ns;
  std::int64_t end_ns = 0;
};

/// Host spans from the benchmark's own code, kept in memory and written as a
/// Chrome trace at exit. Disabled recorders cost one branch per call.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), origin_(now_ns()) {}
  int open(std::string name, int parent) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), parent, now_ns()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<double>(s.start_ns - origin_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
    std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::int64_t origin_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------- ledger

/// Procedure outcomes, fed by every device's completion/failure sinks.
/// Delays are kept for procedures *started* inside the window, whenever
/// they complete (the drain lets late ones finish, so the tail is not
/// censored). A device starts a procedure when its arrival is due —
/// simulated time never runs late, so there is no generator lag.
struct Ledger {
  Time t0 = Time::max();
  Time t1 = Time::max();
  std::vector<std::int64_t> delays_us;
  std::uint64_t completed = 0;            ///< completions at or after t0
  std::uint64_t completed_in_window = 0;  ///< completions inside [t0, t1)
  std::uint64_t failed = 0;               ///< failures at or after t0
  /// Traced runs: every completion's delay since the last timeline row.
  bool keep_slice = false;
  std::vector<std::int64_t> slice_delays_us;
};

void wire_sinks(World& w, Ledger& ledger) {
  sim::Engine& eng = w.tb().engine();
  for (epc::Ue* ue : w.devices()) {
    ue->set_completion_sink(
        [&ledger, &eng](epc::Ue&, proto::ProcedureType, Duration d) {
          const Time now = eng.now();
          if (ledger.keep_slice) ledger.slice_delays_us.push_back(d.count_us());
          if (now < ledger.t0) return;
          ++ledger.completed;
          if (now < ledger.t1) ++ledger.completed_in_window;
          const Time start = now - d;
          if (start >= ledger.t0 && start < ledger.t1)
            ledger.delays_us.push_back(d.count_us());
        });
    // Replaces the testbed's sink, which would re-attach failed devices
    // behind the drivers' backs; a failure stays a failure.
    ue->set_failure_sink([&ledger, &eng](epc::Ue&, proto::ProcedureType) {
      if (eng.now() >= ledger.t0) ++ledger.failed;
    });
  }
}

std::uint64_t busy_devices(World& w) {
  std::uint64_t n = 0;
  for (epc::Ue* ue : w.devices()) n += ue->busy() ? 1 : 0;
  return n;
}

double percentile(const std::vector<std::int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_us.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(sorted_us[lo]) * (1.0 - frac) +
          static_cast<double>(sorted_us[hi]) * frac) /
         1000.0;
}

/// FNV-1a over the simulated outputs: identical digests mean identical
/// delay samples and layer counters.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
};

// ----------------------------------------------------------- timeline

struct SliceRow {
  const char* phase;
  double sim_end_s;
  double host_ms;
  std::uint64_t events;
  std::uint64_t pdus;
  std::uint64_t completed;
  std::uint64_t pending;
  double p99_ms;  ///< of procedures completed in the slice
};

// --------------------------------------------------------------- output

class JsonOut {
 public:
  void num(const char* key, double v) { add(key, fmt("%.10g", v)); }
  void count(const char* key, std::uint64_t v) {
    add(key, fmt("%" PRIu64, v));
  }
  void str(const char* key, const std::string& v) { add(key, "\"" + v + "\""); }
  void boolean(const char* key, bool v) { add(key, v ? "true" : "false"); }
  void nums(const char* key, const std::vector<double>& vs) {
    std::string list;
    for (const double v : vs) list += (list.empty() ? "" : ", ") + fmt("%.6g", v);
    add(key, "[" + list + "]");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  static std::string fmt(const char* f, auto v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
  }
  void add(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
  }
  std::string body_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--trace") {
      a.trace = true;
    } else if (i + 1 < argc && k == "--workload") {
      a.workload = argv[++i];
    } else if (i + 1 < argc && k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
      a.seed_set = true;
    } else if (i + 1 < argc && k == "--spans") {
      a.spans = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seed_set;
}

int run(const Args& args) {
  std::unique_ptr<World> world = make_world(args.workload);
  if (!world) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  World& w = *world;
  const Plan plan = w.plan();
  const bool traced = args.trace;
  Spans spans(traced);
  const int root = spans.open("run " + args.workload, -1);

  // ---- set-up: build, register, warm up -------------------------------
  const AllocCount alloc0 = alloc_now();
  const std::int64_t setup0 = now_ns();
  int sp = spans.open("build", root);
  w.build(args.seed);
  spans.close(sp);
  const std::int64_t built = now_ns();
  sp = spans.open("register", root);
  w.populate();
  spans.close(sp);
  const std::int64_t registered_at = now_ns();

  std::vector<epc::Ue*> devices = w.devices();
  std::uint64_t unregistered = 0;
  for (epc::Ue* ue : devices) unregistered += ue->registered() ? 0 : 1;

  Ledger ledger;
  ledger.keep_slice = traced;
  wire_sinks(w, ledger);
  sim::Engine& eng = w.tb().engine();
  const Time t_load = eng.now();
  ledger.t0 = t_load + plan.warmup;
  ledger.t1 = ledger.t0 + plan.window;
  w.start_load(ledger.t0, ledger.t1);

  std::vector<SliceRow> rows;
  Counters prev;
  if (traced) prev = read_counters(w, false);
  // Simulated CPU load of every MLB and MMP, sampled per window slice.
  struct CpuSlice {
    double util_max = 0, util_sum = 0, backlog_ms_max = 0;
    std::uint64_t samples = 0;
  } cpu;
  std::uint64_t peak_pending = 0;
  // Host ms of every window slice, untraced runs included: run.py combines
  // repetitions slice by slice.
  std::vector<double> window_slice_ms;
  window_slice_ms.reserve(static_cast<std::size_t>(plan.window.count_us() /
                                                   plan.slice.count_us()) +
                          1);
  // Steps the engine to `until` in plan.slice steps; traced runs record a
  // timeline row per slice.
  auto advance = [&](Time until, const char* phase, int parent) {
    while (eng.now() < until) {
      const Time next = std::min(until, eng.now() + plan.slice);
      const std::int64_t h0 = now_ns();
      const int s = spans.open(phase, parent);
      eng.run_until(next);
      spans.close(s);
      const std::int64_t h1 = now_ns();
      if (std::strcmp(phase, "window") == 0)
        window_slice_ms.push_back(static_cast<double>(h1 - h0) / 1e6);
      if (!traced) continue;
      const Counters c = read_counters(w, false);
      const Counters d = diff(c, prev);
      std::vector<std::int64_t>& slice = ledger.slice_delays_us;
      std::sort(slice.begin(), slice.end());
      rows.push_back({phase, next.to_sec(), static_cast<double>(h1 - h0) / 1e6,
                      d.events, d.msgs, slice.size(), c.queue_depth,
                      percentile(slice, 0.99)});
      slice.clear();
      if (std::strcmp(phase, "window") == 0) {
        peak_pending = std::max(peak_pending, c.queue_depth);
        const double slice_us = static_cast<double>(plan.slice.count_us());
        for (std::size_t m = 0; m < d.cpu_busy_us.size(); ++m) {
          const double u = static_cast<double>(d.cpu_busy_us[m]) / slice_us;
          const double backlog_ms =
              static_cast<double>(d.cpu_backlog_us[m]) / 1e3;
          cpu.util_max = std::max(cpu.util_max, u);
          cpu.util_sum += u;
          cpu.backlog_ms_max = std::max(cpu.backlog_ms_max, backlog_ms);
          ++cpu.samples;
        }
      }
      prev = c;
    }
  };

  sp = spans.open("warmup", root);
  advance(ledger.t0, "warmup", sp);
  spans.close(sp);
  const std::int64_t setup1 = now_ns();
  const AllocCount alloc_setup = alloc_now() - alloc0;

  // ---- measured window -------------------------------------------------
  const std::uint64_t busy0 = busy_devices(w);
  const Counters c0 = read_counters(w, traced);
  if (traced) prev = c0;
  const AllocCount alloc_w0 = alloc_now();
  sp = spans.open("window", root);
  const std::int64_t run0 = now_ns();
  advance(ledger.t1, "window", sp);
  const std::int64_t run1 = now_ns();
  spans.close(sp);
  const AllocCount alloc_window = alloc_now() - alloc_w0;
  const Counters dw = diff(read_counters(w, traced), c0);

  // ---- drain: every procedure started by t1 ends within the UE guard ---
  // (the testbed's default guard timeout is 30 s)
  sp = spans.open("drain", root);
  const std::int64_t drain0 = now_ns();
  eng.run_until(ledger.t1 + Duration::sec(31.0));
  const std::int64_t drain1 = now_ns();
  spans.close(sp);
  const Counters c2 = read_counters(w, false);
  const double rss_mb = peak_rss_mb();

  // ---- correctness checks ------------------------------------------------
  sp = spans.open("checks", root);
  const std::uint64_t busy_end = busy_devices(w);
  const std::uint64_t issued = c2.arrivals.issued - c0.arrivals.issued;
  const std::uint64_t generated =
      c2.arrivals.generated - c0.arrivals.generated;
  const std::uint64_t started = busy0 + issued;
  const std::uint64_t ended = ledger.completed + ledger.failed + busy_end;
  const std::uint64_t unaccounted =
      started > ended ? started - ended : ended - started;
  std::uint64_t audit_failures = 0;
  for (const auto& c : w.clusters())
    for (const auto& mmp : c->mmps()) {
      try {
        mmp->app().store().audit();
      } catch (const CheckError& e) {
        std::fprintf(stderr, "audit failed: %s\n", e.what());
        ++audit_failures;
      }
    }
  const std::uint64_t check_failures = unregistered + unaccounted + busy_end +
                                       c2.late_arrivals + c2.dead_drops +
                                       audit_failures;
  spans.close(sp);

  // ---- simulated results -------------------------------------------------
  std::vector<std::int64_t>& delays = ledger.delays_us;
  std::sort(delays.begin(), delays.end());
  const double run_s = static_cast<double>(run1 - run0) / 1e9;
  const double setup_s = static_cast<double>(setup1 - setup0) / 1e9;
  const std::uint64_t procs = ledger.completed_in_window;
  const std::uint64_t window_started_ok = delays.size();
  const double p = static_cast<double>(procs);
  const double ues = static_cast<double>(devices.size());
  auto share_of = [](std::uint64_t num, double den) {
    return ratio(static_cast<double>(num), den);
  };

  Digest dg;
  for (const std::int64_t d : delays) dg.add(static_cast<std::uint64_t>(d));
  for (const std::uint64_t v :
       {dw.events, dw.msgs, dw.bytes, dw.batched_pdus, dw.hss_auth,
        dw.paced_initials, dw.initial_routed, dw.sticky_routed,
        dw.mlb_overload_rejects, dw.forwarded_to_master, dw.replicas_pushed,
        dw.geo_offloads, dw.sheds, generated, issued, procs, ledger.completed,
        ledger.failed, c2.events, c2.msgs})
    dg.add(v);
  for (const std::uint64_t r : dw.mmp_requests) dg.add(r);

  JsonOut out;
  out.str("workload", args.workload);
  out.count("seed", args.seed);
  out.boolean("traced", traced);
  out.str("digest", [&] {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, dg.h);
    return std::string(buf);
  }());
  out.count("check_failures", check_failures);
  out.count("unregistered_after_setup", unregistered);
  out.count("unaccounted_procedures", unaccounted);
  out.count("busy_after_drain", busy_end);
  out.count("late_arrivals", c2.late_arrivals);
  out.count("dead_drops", c2.dead_drops);
  out.count("audit_failures", audit_failures);
  out.count("devices", devices.size());
  out.count("arrivals", generated);
  out.count("issued", issued);
  out.count("procs_completed_in_window", procs);
  out.count("window_started_completed", window_started_ok);
  out.count("failed_after_t0", ledger.failed);
  out.num("run_s", run_s);
  out.num("setup_s", setup_s);
  out.num("phase.build_s", static_cast<double>(built - setup0) / 1e9);
  out.num("phase.register_s", static_cast<double>(registered_at - built) / 1e9);
  out.num("phase.warmup_s", static_cast<double>(setup1 - registered_at) / 1e9);
  out.nums("window_slice_ms", window_slice_ms);
  out.num("drain_s", static_cast<double>(drain1 - drain0) / 1e9);
  out.num("procs_per_s", ratio(p, run_s));
  out.num("peak_rss_mb", rss_mb);
  out.num("delay_p50_ms", percentile(delays, 0.50));
  out.num("delay_p99_ms", percentile(delays, 0.99));
  out.num("delay_p999_ms", percentile(delays, 0.999));
  out.count("delay_samples", delays.size());
  const double gen = static_cast<double>(generated);
  out.num("failed_ratio", share_of(generated - window_started_ok, gen));
  out.num("completed_ratio", share_of(window_started_ok, gen));
  out.num("workload.issue_ratio", share_of(issued, gen));
  out.num("alloc.setup_per_ue", share_of(alloc_setup.calls, ues));
  out.num("alloc.setup_bytes_per_ue", share_of(alloc_setup.bytes, ues));
  out.num("alloc.per_proc", share_of(alloc_window.calls, p));
  out.num("alloc.bytes_per_proc", share_of(alloc_window.bytes, p));

  if (traced) {
    sp = spans.open("replay", root);
    const ReplayCosts rc = replay_layers(
        w, dw.link_msgs, std::max<std::uint64_t>(peak_pending, 1), args.seed);
    spans.close(sp);

    out.num("sim.engine.events_per_proc", share_of(dw.events, p));
    out.num("sim.engine.events_per_s", share_of(dw.events, run_s));
    out.count("sim.engine.peak_pending", peak_pending);
    out.num("sim.engine.ns_per_event", rc.ns_per_event);
    out.num("sim.network.msgs_per_proc", share_of(dw.msgs, p));
    out.num("sim.network.bytes_per_proc", share_of(dw.bytes, p));
    out.num("sim.cpu.util_max", cpu.util_max);
    out.num("sim.cpu.util_mean",
            ratio(cpu.util_sum, static_cast<double>(cpu.samples)));
    out.num("sim.cpu.backlog_ms_max", cpu.backlog_ms_max);
    out.num("proto.ns_per_encode", rc.ns_per_encode);
    out.num("proto.ns_per_decode", rc.ns_per_decode);
    out.num("proto.ns_per_wire_size", rc.ns_per_wire_size);
    out.count("proto.pdu_mix_size", rc.pdu_mix_size);
    out.num("hash.ns_per_owner", rc.ns_per_owner);
    out.num("hash.steers_per_proc", share_of(dw.initial_routed, p));
    out.num("epc.fabric.fold_ratio",
            share_of(dw.batched_pdus, static_cast<double>(dw.msgs)));
    out.count("epc.fabric.late_arrivals", c2.late_arrivals);
    out.count("epc.fabric.dead_drops", c2.dead_drops);
    std::uint64_t store_bytes = 0, contexts = 0;
    for (const auto& c : w.clusters())
      for (const auto& mmp : c->mmps()) {
        store_bytes += mmp->app().store().footprint_bytes();
        contexts += mmp->app().store().size();
      }
    out.num("epc.store.bytes_per_ue", share_of(store_bytes, ues));
    out.num("epc.store.ns_per_find", rc.ns_per_find);
    out.num("epc.store.contexts_per_ue", share_of(contexts, ues));
    out.num("epc.hss.auth_per_proc", share_of(dw.hss_auth, p));
    out.count("epc.enodeb.paced_initials", dw.paced_initials);
    const std::uint64_t routed = dw.sticky_routed + dw.initial_routed;
    out.num("core.mlb.sticky_ratio",
            share_of(dw.sticky_routed, static_cast<double>(routed)));
    // Max over clusters of (busiest MMP ÷ mean MMP) requests in the window.
    double imbalance = 0.0;
    for (std::size_t ci = 0; ci < w.clusters().size(); ++ci) {
      double mx = 0, sum = 0, n = 0;
      for (std::size_t m = 0; m < dw.mmp_requests.size(); ++m) {
        if (dw.mmp_cluster[m] != ci) continue;
        const double r = static_cast<double>(dw.mmp_requests[m]);
        mx = std::max(mx, r);
        sum += r;
        n += 1;
      }
      if (sum > 0) imbalance = std::max(imbalance, mx / (sum / n));
    }
    out.num("core.mlb.imbalance", imbalance);
    out.count("core.mlb.overload_rejects", dw.mlb_overload_rejects);
    out.num("core.mmp.forward_ratio", share_of(dw.forwarded_to_master, p));
    out.num("core.mmp.replica_pushes_per_proc",
            share_of(dw.replicas_pushed, p));
    out.num("core.mmp.geo_offload_ratio", share_of(dw.geo_offloads, p));
    out.count("core.mmp.sheds", dw.sheds);
    // Estimated host share of run_s per layer: window call count × replayed
    // per-call cost. Store lookups are counted as one per PDU an MMP
    // receives (forwards from the MLB and MMP-to-MMP traffic); ring lookups
    // count only the MLB's steers, so share.hash is a lower bound.
    const double run_ns = run_s * 1e9;
    const double s_sim = share_of(dw.events, run_ns) * rc.ns_per_event;
    const double s_proto = share_of(dw.msgs, run_ns) * rc.ns_per_wire_size;
    const double s_hash = share_of(dw.initial_routed, run_ns) * rc.ns_per_owner;
    const std::uint64_t finds =
        dw.link_msgs[kClusterFwd] + dw.link_msgs[kMmpMmp];
    const double s_epc = share_of(finds, run_ns) * rc.ns_per_find;
    out.num("share.sim", s_sim);
    out.num("share.proto", s_proto);
    out.num("share.hash", s_hash);
    out.num("share.epc", s_epc);
    out.num("share.unattributed", 1.0 - s_sim - s_proto - s_hash - s_epc);
    for (std::size_t k = 0; k < dw.link_msgs.size(); ++k) {
      const std::string key = "link." + link_class_names()[k];
      out.count(key.c_str(), dw.link_msgs[k]);
    }
  }
  spans.close(root);

  // ---- human-readable report ----------------------------------------------
  std::printf("workload %s seed %" PRIu64 ": %s\n", args.workload.c_str(),
              args.seed, w.describe().c_str());
  std::printf("delay percentiles (ms): p10 %.3f p25 %.3f p50 %.3f p75 %.3f "
              "p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
              percentile(delays, 0.10), percentile(delays, 0.25),
              percentile(delays, 0.50), percentile(delays, 0.75),
              percentile(delays, 0.90), percentile(delays, 0.99),
              percentile(delays, 0.999), percentile(delays, 1.0));
  std::printf("plan: warm-up %.1f s, window %.1f s, slice %.2f s (simulated)\n",
              plan.warmup.to_sec(), plan.window.to_sec(), plan.slice.to_sec());
  if (traced) {
    std::printf("%-7s %9s %9s %9s %8s %9s %9s %8s %9s\n", "phase", "sim_t_s",
                "host_ms", "events", "pdus", "completed", "pending", "ns/event",
                "p99_ms");
    for (const SliceRow& r : rows)
      std::printf("%-7s %9.2f %9.2f %9" PRIu64 " %8" PRIu64 " %9" PRIu64
                  " %9" PRIu64 " %8.1f %9.2f\n",
                  r.phase, r.sim_end_s, r.host_ms, r.events, r.pdus,
                  r.completed, r.pending,
                  ratio(r.host_ms * 1e6, static_cast<double>(r.events)),
                  r.p99_ms);
  }
  if (!args.spans.empty() && traced && !spans.write(args.spans))
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wholerun --workload <name> --seed <n> [--trace] "
                 "[--spans <file>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wholerun: %s\n", e.what());
    return 1;
  }
}
