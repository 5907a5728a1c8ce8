// Testbed — scenario assembly shared by the integration tests, the figure
// benches and the examples. Owns the simulation engine, network, fabric,
// one HSS, and any number of "sites" (a DC-worth of S-GW + eNodeBs + UEs).
// The control-plane under test (an MmePool, a SimpleLb cluster, or one
// ScaleCluster per site) is attached by the caller.
//
// Every UE's procedure completions are recorded into a DelayRecorder
// bucketed by procedure name — the paper's end-to-end "delay as perceived
// by the devices".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "epc/enodeb.h"
#include "epc/fabric.h"
#include "epc/hss.h"
#include "epc/sgw.h"
#include "epc/ue.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::testbed {

/// Synthetic tracer track range for per-UE procedure spans — keeps them
/// clear of real fabric NodeIds (which start at 1 and stay small).
inline constexpr std::uint64_t kUeTrackBase = 50'000;

class Testbed {
 public:
  struct Config {
    /// Re-attach automatically (after a short backoff) when a procedure
    /// fails and leaves the UE deregistered.
    bool auto_reattach = true;
    Duration reattach_backoff = Duration::ms(100.0);
    Duration ue_guard_timeout = Duration::sec(30.0);
    std::uint64_t seed = 1;
    /// Control-plane transport (retransmission shim). Applied to the
    /// fabric before any endpoint is built, so every node in the testbed
    /// sees the same setting. Default = pass-through (seed behaviour).
    epc::TransportConfig transport;
    /// Must be 0 (checked at construction): the simulator runs one engine
    /// (DESIGN.md §10). Kept because wholerun/src/worlds.cpp sets it.
    unsigned threads = 0;
  };

  struct Site {
    std::uint32_t dc_id = 0;
    std::unique_ptr<epc::Sgw> sgw;
    std::vector<std::unique_ptr<epc::EnodeB>> enbs;
    std::vector<std::unique_ptr<epc::Ue>> ues;

    epc::EnodeB& enb(std::size_t i) { return *enbs.at(i); }
    std::vector<epc::EnodeB*> enb_ptrs() const;
    std::vector<epc::Ue*> ue_ptrs() const;
  };

  explicit Testbed(Config cfg);
  Testbed() : Testbed(Config{}) {}

  sim::Engine& engine() { return engine_; }
  sim::Network& network() { return network_; }
  epc::Fabric& fabric() { return fabric_; }
  epc::Hss& hss() { return *hss_; }
  sim::DelayRecorder& delays() { return delays_; }

  /// Create a site: one S-GW plus `num_enbs` eNodeBs in tracking area
  /// `tac`, all placed in `dc_id` for network-latency purposes.
  Site& add_site(std::size_t num_enbs, proto::Tac tac = 1,
                 Duration radio_delay = Duration::ms(1.0),
                 std::uint32_t dc_id = 0,
                 Duration rrc_inactivity = Duration::zero());
  Site& site(std::size_t i) { return *sites_.at(i); }
  std::size_t site_count() const { return sites_.size(); }

  /// Place an externally created node (MLB, MMP, MME...) in a DC.
  void assign_dc(sim::NodeId node, std::uint32_t dc_id);

  /// Create a UE camped on site.enbs[enb_index], provisioned in the HSS,
  /// with completion/failure sinks wired into the recorder.
  epc::Ue& make_ue(Site& site, std::size_t enb_index, double access_freq);

  /// Bulk-create `count` UEs spread round-robin over the site's eNodeBs;
  /// wᵢ taken from `access` (recycled if shorter than count).
  std::vector<epc::Ue*> make_ues(Site& site, std::size_t count,
                                 const std::vector<double>& access);

  /// Attach every UE of the site, staggered uniformly over `window`, then
  /// run until the window plus `settle` has elapsed. Returns the number of
  /// registered UEs.
  std::size_t register_all(Site& site, Duration window,
                           Duration settle = Duration::sec(3.0));

  /// Advance simulated time.
  void run_for(Duration d);

  /// Convenience percentile lookup (ms) for one procedure bucket.
  double p99_ms(const std::string& bucket) const;
  double mean_ms(const std::string& bucket) const;
  double p99_ms(proto::ProcedureType p) const;
  double mean_ms(proto::ProcedureType p) const;

  std::uint64_t failures() const { return failures_; }

  /// Publish engine/network/fabric counters plus per-procedure UE delay
  /// buckets into `reg` ("engine.*", "network.*", "fabric.*", "ue.*").
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  Config cfg_;
  sim::Engine engine_;
  sim::Network network_;
  epc::Fabric fabric_;
  std::unique_ptr<epc::Hss> hss_;
  sim::DelayRecorder delays_;
  Rng rng_;
  std::vector<std::unique_ptr<Site>> sites_;
  proto::Imsi next_imsi_ = 100'000'000'000'000ull;
  std::uint64_t ue_count_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace scale::testbed
