#include "testbed/testbed.h"

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "proto/types.h"

namespace scale::testbed {

namespace {
/// One-way latency of every node pair a world does not configure.
constexpr Duration kDefaultLatency = Duration::us(500);
}  // namespace

std::vector<epc::EnodeB*> Testbed::Site::enb_ptrs() const {
  std::vector<epc::EnodeB*> out;
  out.reserve(enbs.size());
  for (const auto& e : enbs) out.push_back(e.get());
  return out;
}

std::vector<epc::Ue*> Testbed::Site::ue_ptrs() const {
  std::vector<epc::Ue*> out;
  out.reserve(ues.size());
  for (const auto& u : ues) out.push_back(u.get());
  return out;
}

Testbed::Testbed(Config cfg)
    : cfg_(cfg), network_(kDefaultLatency, cfg.seed ^ 0xABCD),
      fabric_(engine_, network_), rng_(cfg.seed) {
  SCALE_CHECK_MSG(cfg.threads == 0,
                  "Testbed::Config::threads must be 0: the simulator runs "
                  "one engine");
  // Must precede every endpoint: each ReliableChannel snapshots the
  // fabric's transport config at construction.
  fabric_.set_transport(cfg.transport);
  hss_ = std::make_unique<epc::Hss>(fabric_);
}

Testbed::Site& Testbed::add_site(std::size_t num_enbs, proto::Tac tac,
                                 Duration radio_delay, std::uint32_t dc_id,
                                 Duration rrc_inactivity) {
  SCALE_CHECK(num_enbs >= 1);
  auto site = std::make_unique<Site>();
  site->dc_id = dc_id;
  site->sgw = std::make_unique<epc::Sgw>(fabric_);
  network_.set_node_dc(site->sgw->node(), dc_id);
  for (std::size_t i = 0; i < num_enbs; ++i) {
    epc::EnodeB::Config enb_cfg;
    enb_cfg.tac = tac;
    enb_cfg.radio_delay = radio_delay;
    enb_cfg.rrc_inactivity = rrc_inactivity;
    enb_cfg.seed = rng_.next_u64();
    site->enbs.push_back(std::make_unique<epc::EnodeB>(fabric_, enb_cfg));
    network_.set_node_dc(site->enbs.back()->node(), dc_id);
  }
  sites_.push_back(std::move(site));
  return *sites_.back();
}

void Testbed::assign_dc(sim::NodeId node, std::uint32_t dc_id) {
  network_.set_node_dc(node, dc_id);
}

epc::Ue& Testbed::make_ue(Site& site, std::size_t enb_index,
                          double access_freq) {
  epc::Ue::Config ue_cfg;
  ue_cfg.imsi = next_imsi_++;
  ue_cfg.secret_key = rng_.next_u64();
  ue_cfg.access_freq = access_freq;
  ue_cfg.guard_timeout = cfg_.ue_guard_timeout;
  auto ue = std::make_unique<epc::Ue>(engine_, site.enbs.at(enb_index).get(),
                                      ue_cfg);
  hss_->provision_subscriber(ue_cfg.imsi, ue_cfg.secret_key);

  // Per-UE tracer lane for end-to-end procedure spans, disjoint from the
  // fabric NodeId tracks the hop-level events use.
  const std::uint64_t track = kUeTrackBase + ue_count_++;
  const proto::Imsi imsi = ue_cfg.imsi;
  if (obs::Tracer* tr = obs::Tracer::current())
    tr->set_track_name(track, "ue." + std::to_string(imsi));

  ue->set_completion_sink(
      [this, track, imsi](epc::Ue&, proto::ProcedureType p, Duration delay) {
        delays_.record(p, delay);
        if (obs::Tracer* tr = obs::Tracer::current()) {
          obs::Json args = obs::Json::object();
          args.set("imsi", imsi);
          tr->complete(track, proto::procedure_name(p),
                       engine_.now() - delay, delay, std::move(args));
        }
      });
  ue->set_failure_sink([this](epc::Ue& failed, proto::ProcedureType) {
    ++failures_;
    if (cfg_.auto_reattach && !failed.registered()) {
      engine_.after(cfg_.reattach_backoff, [&failed]() {
        if (!failed.registered() && !failed.busy()) failed.attach();
      });
    }
  });

  site.ues.push_back(std::move(ue));
  return *site.ues.back();
}

std::vector<epc::Ue*> Testbed::make_ues(Site& site, std::size_t count,
                                        const std::vector<double>& access) {
  SCALE_CHECK(!access.empty());
  std::vector<epc::Ue*> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t enb_index = i % site.enbs.size();
    out.push_back(&make_ue(site, enb_index, access[i % access.size()]));
  }
  return out;
}

std::size_t Testbed::register_all(Site& site, Duration window,
                                  Duration settle) {
  SCALE_CHECK(window > Duration::zero());
  const Time start = engine_.now();
  for (std::size_t i = 0; i < site.ues.size(); ++i) {
    epc::Ue* ue = site.ues[i].get();
    const Duration offset =
        window * (static_cast<double>(i) /
                  static_cast<double>(std::max<std::size_t>(1, site.ues.size())));
    engine_.at(start + offset, [ue]() {
      if (!ue->registered() && !ue->busy()) ue->attach();
    });
  }
  engine_.run_until(start + window + settle);
  std::size_t registered = 0;
  for (const auto& ue : site.ues)
    if (ue->registered()) ++registered;
  return registered;
}

void Testbed::run_for(Duration d) { engine_.run_until(engine_.now() + d); }

double Testbed::p99_ms(const std::string& bucket) const {
  if (!delays_.has(bucket)) return 0.0;
  return delays_.bucket(bucket).percentile(0.99);
}

double Testbed::mean_ms(const std::string& bucket) const {
  if (!delays_.has(bucket)) return 0.0;
  return delays_.bucket(bucket).mean();
}

double Testbed::p99_ms(proto::ProcedureType p) const {
  return p99_ms(std::string(proto::procedure_name(p)));
}

double Testbed::mean_ms(proto::ProcedureType p) const {
  return mean_ms(std::string(proto::procedure_name(p)));
}

void Testbed::export_metrics(obs::MetricsRegistry& reg) const {
  engine_.export_metrics(reg, "engine");
  network_.export_metrics(reg, "network");
  fabric_.export_metrics(reg, "fabric");
  delays_.export_metrics(reg, "ue");
  reg.set_counter("ue.failures", failures_);
}

}  // namespace scale::testbed
