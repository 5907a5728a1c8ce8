// S-GW — Serving Gateway (§2): terminates S11 from the MME side and anchors
// the per-device data path. The control-plane behaviours that matter here:
// session create/modify/release/delete, and DownlinkDataNotification when a
// downlink packet arrives for an Idle device (which triggers MME paging).
#pragma once

#include <cstdint>

#include "epc/fabric.h"
#include "epc/flat_index.h"
#include "epc/reliable.h"
#include "sim/cpu.h"

namespace scale::epc {

class Sgw : public Endpoint {
 public:
  explicit Sgw(Fabric& fabric);

  sim::CpuModel& cpu() { return cpu_; }
  const ReliableChannel& transport() const { return rel_; }

  void receive(NodeId from, const proto::PduRef& pdu) override;

  /// Simulate arrival of a downlink packet for the device with this S-GW
  /// TEID. If its bearer is released (device Idle) a DownlinkDataNotifica-
  /// tion goes to the control node that created the session. Returns false
  /// if the session is unknown.
  bool inject_downlink_data(proto::Teid sgw_teid);

  /// The S-GW TEID of the IMSI's newest live session (the highest TEID,
  /// since TEIDs are issued in increasing order); invalid if the IMSI has
  /// none. A linear scan over sessions: test/bench convenience only.
  proto::Teid teid_for(proto::Imsi imsi) const;

  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t ddn_sent() const { return ddn_sent_; }

 private:
  struct Session {
    proto::Imsi imsi = 0;
    proto::Teid mme_teid;
    NodeId control_node = 0;  ///< who created the session (MME or MLB)
    std::uint32_t enb_id = 0;
    bool bearer_active = false;
  };

  void handle_s11(NodeId from, const proto::S11Message& msg);

  ReliableChannel rel_;
  sim::CpuModel cpu_;
  FlatMap<std::uint32_t, Session> sessions_;  // by sgw teid
  std::uint32_t next_teid_ = 1;
  std::uint64_t ddn_sent_ = 0;
};

}  // namespace scale::epc
