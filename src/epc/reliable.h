// SCTP-like reliability shim for control-plane associations.
//
// The paper's prototype rides on SCTP ("SCTP connections using an interface
// similar to S1AP", §5), which the seed fabric abstracted away as exactly-once
// delivery. With the FaultPlane able to drop/duplicate/reorder PDUs, every
// entity that must survive chaos owns one ReliableChannel per node: sends are
// wrapped in sequence-numbered TransportData segments, each segment is acked
// (TransportAck) and retransmitted on an exponentially backed-off timer until
// acked or abandoned, and the receive side deduplicates by sequence number so
// retransmitted or fault-duplicated PDUs never double-execute a procedure.
//
// With TransportConfig::reliable == false (the default) the shim is a strict
// pass-through: send() forwards to the fabric unwrapped and unwrap() returns
// the PDU untouched, so the clean-path message/byte counts are identical to
// a build without the shim.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>

#include "epc/fabric.h"
#include "proto/pdu.h"

namespace scale::epc {

class ReliableChannel {
 public:
  /// Snapshots the fabric's TransportConfig — set it before building the
  /// world. `self` is the owning endpoint's NodeId (sender of segments and
  /// acks).
  ReliableChannel(Fabric& fabric, NodeId self);

  bool enabled() const { return cfg_.reliable; }

  /// Reliable send: wrapped, sequenced, retransmitted until acked or
  /// abandoned after max_retransmits attempts. Every (re)transmission's
  /// TransportData carries `pdu` itself as its inner box. Pass-through when
  /// disabled.
  void send(NodeId to, proto::PduRef pdu);

  /// Fire-and-forget send bypassing the shim even when enabled — used for
  /// acks (an ack of an ack would regress) and periodic load reports, which
  /// are superseded by the next report anyway.
  void send_unreliable(NodeId to, proto::PduRef pdu);

  /// Filter an incoming PDU through the shim. Returns nullptr when the PDU
  /// was consumed (a TransportAck, or a duplicate segment) — the caller must
  /// stop processing. Otherwise returns the application PDU's box: either
  /// `pdu` itself (unwrapped traffic) or the segment's inner box, which
  /// `pdu` keeps alive for the caller's receive() scope (copy the PduRef to
  /// keep it longer).
  [[nodiscard]] const proto::PduRef* unwrap(NodeId from,
                                            const proto::PduRef& pdu);

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t abandoned() const { return abandoned_; }
  std::uint64_t duplicates_suppressed() const { return dups_suppressed_; }

  /// Publish shim counters under `prefix` (".retransmits", ".abandoned",
  /// ".dups_suppressed"). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  struct Pending {
    proto::PduRef inner;
    std::uint32_t attempt = 0;
    Duration rto;
  };
  /// Receive-side dedup per peer: cumulative watermark + out-of-order set,
  /// the same shape as an SCTP SACK's cumulative TSN + gap blocks.
  struct PeerRx {
    std::uint64_t cum = 0;             // all seqs <= cum already delivered
    std::set<std::uint64_t> above;     // delivered seqs > cum
  };

  void transmit(NodeId to, std::uint64_t seq, const Pending& p);
  void arm_timer(NodeId to, std::uint64_t seq, Duration rto);
  void on_timeout(NodeId to, std::uint64_t seq);
  /// Returns false if `seq` was already delivered from this peer.
  [[nodiscard]] static bool register_seq(PeerRx& rx, std::uint64_t seq);

  Fabric& fabric_;
  NodeId self_;
  TransportConfig cfg_;
  std::unordered_map<NodeId, std::uint64_t> next_seq_;
  std::unordered_map<NodeId, std::unordered_map<std::uint64_t, Pending>>
      pending_;
  std::unordered_map<NodeId, PeerRx> rx_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t dups_suppressed_ = 0;
};

}  // namespace scale::epc
