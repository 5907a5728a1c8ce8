// eNodeB emulator — the higher-layer behaviours of a base station that the
// control-plane evaluation needs (the paper likewise uses OpenEPC's eNodeB
// emulator, §5):
//
//  * terminates the radio side: UEs exchange NAS with it over a fixed radio
//    delay, never touching the fabric directly;
//  * S1AP client towards the MME pool: *static device assignment* — an
//    unregistered device is weighted-randomly assigned an MME; a registered
//    device's requests always follow its GUTI's MME code (§3.1-1). Under
//    SCALE the "pool" is a single MLB, which neutralizes this behaviour;
//  * per-UE S1 logical connections (eNB-UE-S1AP id ↔ MME-UE-S1AP id);
//  * paging: idle UEs camp here keyed by M-TMSI;
//  * X2-style handover target: sends PathSwitchRequest on behalf of an
//    arriving UE.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "epc/fabric.h"
#include "epc/flat_index.h"
#include "epc/parking_lot.h"
#include "epc/reliable.h"
#include "proto/pdu.h"

namespace scale::epc {

class Ue;

class EnodeB : public Endpoint {
 public:
  struct Config {
    proto::Tac tac = 1;
    /// One-way UE <-> eNB radio/RRC delay.
    Duration radio_delay = Duration::ms(1);
    /// eNB-local RRC supervision: a connection with no signaling for this
    /// long is released locally (cause: user inactivity) even if the MME
    /// never answers — how real eNodeBs clean up after a dead core node.
    /// zero() disables it (the MME inactivity timer then owns releases).
    Duration rrc_inactivity = Duration::zero();
    std::uint64_t seed = 7;
  };

  EnodeB(Fabric& fabric, Config cfg);
  explicit EnodeB(Fabric& fabric) : EnodeB(fabric, Config{}) {}

  proto::Tac tac() const { return cfg_.tac; }

  // --- MME pool management (S1 setup) ---------------------------------
  /// Register an MME (or MLB) this eNodeB connects to. `mme_code` is the
  /// GUTI MME-code requests are routed on; `weight` biases selection of
  /// unregistered devices (3GPP "relative MME capacity").
  void add_mme(NodeId mme, std::uint8_t mme_code, double weight = 1.0);
  void remove_mme(NodeId mme);

  /// Spacing between Initial UE messages while an MME OverloadStart pacing
  /// window is active (S1AP overload backoff; default 2 ms). The window
  /// itself only opens when the core sends OverloadStart; zero() ignores
  /// it. Benchmarks match it to pool capacity.
  void set_overload_pace(Duration pace) { overload_pace_ = pace; }

  // --- UE-facing radio interface --------------------------------------
  /// First NAS message of a procedure: opens an S1 connection, selects the
  /// MME (static assignment rules) and sends InitialUeMessage.
  /// `exclude_mme` skips a pool member (UE redirected off an overloaded
  /// MME re-attaches elsewhere).
  void ue_initial_nas(Ue& ue, proto::NasMessage nas,
                      std::optional<NodeId> exclude_mme = std::nullopt);

  /// NAS on the existing S1 connection (auth response, attach complete...).
  void ue_uplink_nas(Ue& ue, proto::NasMessage nas);

  /// Handover target side: UE arrives from `source`; sends
  /// PathSwitchRequest to the UE's serving MME.
  void ue_arrive_handover(Ue& ue);

  /// Idle-mode camping for paging (keyed by M-TMSI).
  void camp(Ue& ue);
  void decamp(Ue& ue);

  /// Tear down the UE's S1 connection locally (handover source side).
  void drop_connection(Ue& ue);

  void receive(NodeId from, const proto::PduRef& pdu) override;

  std::size_t connection_count() const { return conns_.size(); }
  std::uint64_t paging_hits() const { return paging_hits_; }
  std::uint64_t rrc_releases() const { return rrc_releases_; }
  /// Initials delayed onto the pacing grid by an OverloadStart window.
  std::uint64_t paced_initials() const { return paced_initials_; }
  const ReliableChannel& transport() const { return rel_; }

 private:
  struct MmeEntry {
    NodeId node = 0;
    std::uint8_t code = 0;
    double weight = 1.0;
  };

  /// A UE's NAS message on the uplink radio leg (parked in radio_ while
  /// the radio delay runs).
  struct Uplink {
    proto::NasMessage nas;
    std::optional<NodeId> exclude_mme;
  };

  struct Conn {
    Ue* ue = nullptr;
    NodeId mme_node = 0;
    proto::MmeUeId mme_ue_id;  // learned from the first downlink
    Time last_activity;
  };

  void ensure_rrc_sweep();
  void rrc_sweep();
  NodeId select_mme(const proto::NasMessage& nas,
                    std::optional<NodeId> exclude);
  NodeId route_by_code(std::uint8_t code);
  NodeId weighted_pick(std::optional<NodeId> exclude);
  /// Fills weights_ with the weights of the members `take` accepts.
  template <class Pred>
  void collect_weights(Pred take);
  /// The `k`-th member (0-based) that `take` accepts.
  template <class Pred>
  NodeId nth_member(std::size_t k, Pred take) const;
  /// Radio leg eNB -> UE of the NAS inside `pdu`, a DownlinkNasTransport
  /// box.
  void to_ue(Ue& ue, proto::PduRef pdu);
  /// `pdu` holds `msg`.
  void handle_s1ap(NodeId from, const proto::PduRef& pdu,
                   const proto::S1apMessage& msg);
  /// Open the S1 connection and send the InitialUeMessage of the Uplink
  /// parked under `parked` (post-pacing).
  void send_initial(Ue& ue, std::uint32_t parked);

  Config cfg_;
  ReliableChannel rel_;
  Rng rng_;
  std::vector<MmeEntry> mmes_;
  std::vector<double> weights_;  ///< MME-selection scratch, reused
  ParkingLot<Uplink> radio_;     ///< uplink NAS in flight on the radio leg
  FlatMap<proto::EnbUeId, Conn> conns_;
  FlatMap<std::uint32_t, Ue*> camped_;  // m_tmsi -> idle UE
  proto::EnbUeId next_ue_id_ = 1;
  bool rrc_sweep_running_ = false;
  /// OverloadStart pacing state: initials arriving before the deadline are
  /// spread overload_pace_ apart on a shared grid.
  Duration overload_pace_ = Duration::ms(2.0);
  Time mme_backoff_until_ = Time::zero();
  Time next_paced_slot_ = Time::zero();
  std::uint64_t paced_initials_ = 0;
  std::uint64_t paging_hits_ = 0;
  std::uint64_t rrc_releases_ = 0;
};

}  // namespace scale::epc
