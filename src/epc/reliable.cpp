#include "epc/reliable.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::epc {

ReliableChannel::ReliableChannel(Fabric& fabric, NodeId self)
    : fabric_(fabric), self_(self), cfg_(fabric.transport()) {}

void ReliableChannel::send(NodeId to, proto::PduRef pdu) {
  if (!cfg_.reliable) {
    fabric_.send(self_, to, std::move(pdu));
    return;
  }
  const std::uint64_t seq = ++next_seq_[to];
  Pending p{std::move(pdu), /*attempt=*/0, cfg_.rto_initial};
  transmit(to, seq, p);
  arm_timer(to, seq, p.rto);
  pending_[to].emplace(seq, std::move(p));
}

void ReliableChannel::send_unreliable(NodeId to, proto::PduRef pdu) {
  fabric_.send(self_, to, std::move(pdu));
}

void ReliableChannel::transmit(NodeId to, std::uint64_t seq,
                               const Pending& p) {
  fabric_.send(self_, to,
               proto::box(proto::TransportData{
                   .seq = seq, .attempt = p.attempt, .inner = p.inner}));
}

void ReliableChannel::arm_timer(NodeId to, std::uint64_t seq, Duration rto) {
  // No cancellation: the timer fires and finds the entry gone when the ack
  // beat it — cheaper than tracking EventIds per segment.
  fabric_.engine().after(rto, [this, to, seq]() { on_timeout(to, seq); });
}

void ReliableChannel::on_timeout(NodeId to, std::uint64_t seq) {
  const auto peer_it = pending_.find(to);
  if (peer_it == pending_.end()) return;
  const auto it = peer_it->second.find(seq);
  if (it == peer_it->second.end()) return;  // acked in the meantime
  // A crashed endpoint stops talking: its association is gone, and
  // retransmitting from a dead NodeId would resurrect it on the wire.
  if (!fabric_.is_registered(self_)) {
    peer_it->second.erase(it);
    return;
  }
  Pending& p = it->second;
  if (p.attempt >= cfg_.max_retransmits) {
    ++abandoned_;
    SCALE_DEBUG("abandoned seq " << seq << " " << self_ << " -> " << to
                                 << " after " << p.attempt << " retransmits");
    if (obs::Tracer* tr = obs::Tracer::current()) {
      obs::Json args = obs::Json::object();
      args.set("peer", to);
      args.set("seq", seq);
      args.set("attempts", p.attempt);
      tr->instant(self_, "rto_abandon", fabric_.engine().now(),
                  std::move(args));
    }
    peer_it->second.erase(it);
    return;
  }
  ++p.attempt;
  ++retransmits_;
  p.rto = std::min(p.rto * cfg_.rto_backoff, cfg_.rto_max);
  if (obs::Tracer* tr = obs::Tracer::current()) {
    obs::Json args = obs::Json::object();
    args.set("peer", to);
    args.set("seq", seq);
    args.set("attempt", p.attempt);
    args.set("rto_ms", p.rto.to_ms());
    tr->instant(self_, "rto_retransmit", fabric_.engine().now(),
                std::move(args));
  }
  transmit(to, seq, p);
  arm_timer(to, seq, p.rto);
}

bool ReliableChannel::register_seq(PeerRx& rx, std::uint64_t seq) {
  if (seq <= rx.cum) return false;
  if (!rx.above.insert(seq).second) return false;
  // Advance the cumulative watermark over any now-contiguous prefix.
  auto it = rx.above.begin();
  while (it != rx.above.end() && *it == rx.cum + 1) {
    ++rx.cum;
    it = rx.above.erase(it);
  }
  return true;
}

const proto::PduRef* ReliableChannel::unwrap(NodeId from,
                                             const proto::PduRef& pdu) {
  const auto* cluster = std::get_if<proto::ClusterMessage>(&pdu->value);
  if (cluster == nullptr) return &pdu;
  if (const auto* ack = std::get_if<proto::TransportAck>(cluster)) {
    const auto peer_it = pending_.find(from);
    if (peer_it != pending_.end()) peer_it->second.erase(ack->seq);
    return nullptr;
  }
  if (const auto* data = std::get_if<proto::TransportData>(cluster)) {
    // Ack unconditionally: the duplicate we are about to suppress may be a
    // retransmission caused by our earlier ack getting dropped.
    send_unreliable(from, proto::box(proto::TransportAck{.seq = data->seq}));
    if (!register_seq(rx_[from], data->seq)) {
      ++dups_suppressed_;
      return nullptr;
    }
    return &data->inner;
  }
  return &pdu;
}

void ReliableChannel::export_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  reg.set_counter(prefix + ".retransmits", retransmits_);
  reg.set_counter(prefix + ".abandoned", abandoned_);
  reg.set_counter(prefix + ".dups_suppressed", dups_suppressed_);
}

}  // namespace scale::epc
