#include "core/geo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "common/check.h"
#include "proto/pdu.h"

namespace scale::core {

namespace {
/// Peer DCs a manager tracks at most (choose_remote() weighs them on the
/// stack).
constexpr std::size_t kMaxPeers = 32;
}  // namespace

GeoManager::GeoManager(Fabric& fabric, NodeId local_mlb, Config cfg)
    : fabric_(fabric), local_mlb_(local_mlb), cfg_(cfg) {}

void GeoManager::add_peer(std::uint32_t dc_id, NodeId mlb,
                          Duration propagation) {
  SCALE_CHECK(dc_id != cfg_.dc_id);
  SCALE_CHECK_MSG(peers_.size() < kMaxPeers, "too many peer DCs");
  peers_.push_back(PeerDc{dc_id, mlb, propagation, 0.0});
}

NodeId GeoManager::mlb_of_dc(std::uint32_t dc) const {
  if (dc == cfg_.dc_id) return local_mlb_;
  for (const auto& p : peers_)
    if (p.dc_id == dc) return p.mlb;
  return 0;
}

void GeoManager::send_to_peers(const proto::PduRef& pdu) {
  for (const auto& p : peers_) fabric_.send(local_mlb_, p.mlb, pdu);
}

double GeoManager::peer_available(std::uint32_t dc) const {
  for (const auto& p : peers_)
    if (p.dc_id == dc) return p.known_available;
  return 0.0;
}

void GeoManager::start_gossip() {
  if (gossiping_) return;
  gossiping_ = true;
  fabric_.engine().after(cfg_.gossip_interval, [this] { gossip_tick(); });
}

void GeoManager::gossip_tick() {
  proto::GeoBudgetGossip gossip;
  gossip.dc_id = cfg_.dc_id;
  gossip.available_budget = available();
  gossip.cpu_load = load_probe_ ? load_probe_() : 0.0;
  gossip.backlog_sec = backlog_probe_ ? backlog_probe_() : 0.0;
  gossips_sent_ += peers_.size();
  send_to_peers(proto::box(gossip));  // one box for every peer
  fabric_.engine().after(cfg_.gossip_interval, [this] { gossip_tick(); });
}

void GeoManager::set_budget(double sm) {
  SCALE_CHECK(sm >= 0.0);
  budget_ = sm;
}

bool GeoManager::accept_external() {
  if (used_ + 1.0 > budget_) return false;
  used_ += 1.0;
  return true;
}

void GeoManager::release_external() { used_ = std::max(0.0, used_ - 1.0); }

std::optional<std::uint32_t> GeoManager::choose_remote(Rng& rng) const {
  if (peers_.empty()) return std::nullopt;
  if (cfg_.selection == Selection::kUniform) {
    // Baseline: fixed uniform spread, blind to budget and distance.
    return peers_[static_cast<std::size_t>(rng.next_below(peers_.size()))]
        .dc_id;
  }
  std::array<double, kMaxPeers> weights{};
  std::array<const PeerDc*, kMaxPeers> eligible{};
  std::size_t n = 0;
  for (const auto& p : peers_) {
    if (p.known_available <= 0.0) continue;
    const double delay_sec = std::max(1e-6, p.propagation.to_sec());
    eligible[n] = &p;
    weights[n++] = 1.0 / delay_sec;
  }
  if (n == 0) return std::nullopt;
  return eligible[rng.weighted_index(std::span(weights).first(n))]->dc_id;
}

std::uint64_t GeoManager::per_vm_external_quota(std::size_t vm_count) const {
  if (vm_count == 0) return 0;
  return static_cast<std::uint64_t>(
      std::ceil(budget_ / static_cast<double>(vm_count)));
}

bool GeoManager::peer_accepting(std::uint32_t dc) const {
  if (cfg_.selection == Selection::kUniform) return true;  // baseline: blind
  for (const auto& p : peers_)
    if (p.dc_id == dc) return p.known_load < kLoadCeiling;
  return false;
}

double GeoManager::peer_queue_cost(std::uint32_t dc) const {
  for (const auto& p : peers_) {
    if (p.dc_id != dc) continue;
    if (cfg_.selection != Selection::kUniform &&
        p.known_load >= kLoadCeiling)
      return std::numeric_limits<double>::infinity();
    // Three one-way legs beyond a local request (forward, S11 to the home
    // S-GW, reply) is the marginal propagation cost of remote processing.
    return p.known_backlog + 3.0 * p.propagation.to_sec();
  }
  return std::numeric_limits<double>::infinity();
}

void GeoManager::on_gossip(const proto::GeoBudgetGossip& gossip) {
  for (auto& p : peers_) {
    if (p.dc_id == gossip.dc_id) {
      p.known_available = gossip.available_budget;
      p.known_load = gossip.cpu_load;
      p.known_backlog = gossip.backlog_sec;
    }
  }
}

}  // namespace scale::core
