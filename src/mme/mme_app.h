// MmeApp — the MME "application": per-device procedure state machines over
// the UeContextStore. This is the protocol brain shared by
//
//   * mme::MmeNode         — a classic standalone 3GPP MME (baseline),
//   * mme::SimpleVm        — a VM of the SIMPLE virtual-MME baseline,
//   * mme::DmmeNode        — a stateless dMME processing node,
//   * core::MmpNode        — a SCALE MMP VM.
//
// Every one of them is an mme::MmeHost (mme/mme_host.h), which implements
// MmeApp::Host: the app sends and consults policy only through that
// interface and never touches the fabric, so the same FSMs run identically
// whether replies go straight to the eNodeB or are tunneled through an MLB.
//
// Every inbound message costs CPU (ServiceProfile) on the host-provided
// CpuModel, so overload manifests as queueing delay exactly as on real
// hardware (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "epc/flat_index.h"
#include "epc/ue_context.h"
#include "mme/service_profile.h"
#include "proto/pdu.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale::mme {

using epc::ContextRole;
using epc::UeContext;
using epc::UeContextStore;
using sim::NodeId;

class MmeApp {
 public:
  /// The node an MmeApp runs on: its I/O (required) and its policy points
  /// (defaults do nothing).
  class Host {
   public:
    virtual ~Host() = default;

    /// Send an S1AP message to an eNodeB.
    virtual void to_enb(NodeId enb, proto::S1apMessage msg) = 0;
    /// Send an S11 message to the device's S-GW. The context is passed so
    /// hosts can target the device's *home* S-GW when processing a
    /// geo-replicated device from another DC (rec.sgw_node).
    virtual void to_sgw(const UeContext& ctx, proto::S11Message msg) = 0;
    /// Send an S6 message to the HSS.
    virtual void to_hss(proto::S6Message msg) = 0;

    /// eNodeBs to page for a tracking area.
    virtual std::vector<NodeId> paging_enbs(proto::Tac) const { return {}; }
    /// Extra delay before the paging fan-out (zero pages immediately).
    /// Overload governors stretch paging retries through this.
    virtual Duration paging_defer() const { return Duration::zero(); }
    /// Admission gate, called before processing an InitialUeMessage. Return
    /// false if the host consumed the request (e.g. 3GPP overload redirect).
    virtual bool admit(NodeId /*enb*/, const proto::InitialUeMessage&,
                       UeContext* /*existing*/) {
      return true;
    }
    /// Called after a procedure other than detach completes on a context
    /// (replication point — §5: "the master MMP replicates the state of a
    /// device after it processes its initial attach request").
    virtual void after_procedure(UeContext&, proto::ProcedureType) {}
    /// Called when a device transitions Active → Idle (bulk replica sync
    /// point, E2).
    virtual void on_idle(UeContext&) {}
    /// Called just before a detached context is erased.
    virtual void before_detach(UeContext&) {}
  };

  struct Config {
    std::uint8_t mme_code = 1;  ///< logical MME id inside assigned GUTIs
    std::uint8_t vm_code = 1;   ///< VM id embedded in MmeUeId/Teid (§5)
    std::uint16_t plmn = 1;
    std::uint16_t mme_group = 1;
    ServiceProfile profile;
    /// Classic MMEs assign GUTIs themselves; SCALE MMPs receive them from
    /// the MLB (ClusterForward.guti).
    bool assign_guti_locally = true;
    std::uint32_t home_dc = 0;
    /// When false the inactivity timer never fires (workloads that manage
    /// Idle transitions explicitly).
    bool enable_inactivity_timer = true;
  };

  struct Counters {
    std::array<std::uint64_t, proto::kProcedureTypeCount> procedures{};
    std::uint64_t auth_failures = 0;
    std::uint64_t rejects_sent = 0;
    std::uint64_t pagings_sent = 0;
    std::uint64_t pagings_deferred = 0;
    std::uint64_t idle_transitions = 0;
  };

  /// `host` must outlive the app. `hop_ref` is the echo tag for S6 answers
  /// (Diameter hop-by-hop id): hosts pass their NodeId so proxies can route
  /// answers back statelessly. `sgw_node` is the S-GW recorded into new
  /// contexts for geo routing.
  MmeApp(sim::Engine& engine, sim::CpuModel& cpu, Config cfg, Host& host,
         NodeId hop_ref, NodeId sgw_node);

  UeContextStore& store() { return store_; }
  const UeContextStore& store() const { return store_; }
  const Config& config() const { return cfg_; }
  const Counters& counters() const { return counters_; }

  // --- protocol entry points -------------------------------------------
  /// `guti_hint`: the GUTI the MLB assigned/used for routing (SCALE), or
  /// nullptr for classic operation.
  void handle_s1ap(NodeId enb_node, const proto::S1apMessage& msg,
                   const proto::Guti* guti_hint = nullptr);
  void handle_s11(const proto::S11Message& msg);
  void handle_s6(const proto::S6Message& msg);

  // --- state administration (replication / transfer / migration) --------
  /// Install a context owned elsewhere (replica, transfer, geo). Replaces
  /// any existing copy with an older version.
  UeContext* adopt(const proto::UeContextRecord& rec, ContextRole role);
  /// Remove a context and any transaction on it (disarming timers).
  void remove_context(std::uint64_t guti_key);
  /// True if a procedure transaction is in flight for this context.
  bool has_transaction(std::uint64_t guti_key) const {
    return txns_.contains(guti_key);
  }

  /// Number of procedure transactions currently in flight (an overload
  /// pressure signal: each holds context + timers until it completes).
  std::size_t in_flight() const { return txns_.size(); }

 private:
  /// Fresh GUTI from this MME's identity space.
  proto::Guti allocate_guti();
  /// Reconstruct a GUTI from an S-TMSI (pool constants + code + M-TMSI).
  proto::Guti guti_from_s_tmsi(std::uint8_t code, std::uint32_t m_tmsi) const;

  struct Txn {
    proto::ProcedureType type = proto::ProcedureType::kAttach;
    NodeId enb_node = 0;
    proto::EnbUeId enb_ue_id = 0;
    // handover:
    NodeId old_enb_node = 0;
    proto::EnbUeId old_enb_ue_id = 0;
    // auth material in flight:
    std::uint64_t xres = 0;
    bool skip_auth = false;
  };

  // NAS-level initial handlers, behind the host's admission gate.
  void handle_initial(NodeId enb, const proto::InitialUeMessage& msg,
                      const proto::Guti* guti_hint);
  void start_attach(NodeId enb, const proto::InitialUeMessage& msg,
                    const proto::NasAttachRequest& nas,
                    const proto::Guti* guti_hint);
  void start_service_request(NodeId enb, const proto::InitialUeMessage& msg,
                             const proto::NasServiceRequest& nas,
                             const proto::Guti* guti_hint = nullptr);
  void start_tau(NodeId enb, const proto::InitialUeMessage& msg,
                 const proto::NasTauRequest& nas);
  void start_detach(NodeId enb, proto::EnbUeId enb_ue_id,
                    const proto::NasDetachRequest& nas);
  void handle_uplink_nas(NodeId enb, const proto::UplinkNasTransport& msg);
  void handle_path_switch(NodeId enb, const proto::PathSwitchRequest& msg);

  // Procedure continuation steps.
  void attach_request_auth(std::uint64_t key);
  void attach_create_session(std::uint64_t key);
  void attach_finish(std::uint64_t key);
  void service_request_finish(std::uint64_t key);
  void handover_finish(std::uint64_t key, std::uint32_t new_enb_id);
  void detach_finish(std::uint64_t key);

  void send_downlink_nas(const Txn& txn, const UeContext& ctx,
                         proto::NasMessage nas);
  void send_reject(NodeId enb, proto::EnbUeId enb_ue_id, std::uint8_t cause);
  void touch(UeContext& ctx);
  void arm_inactivity(UeContext& ctx);
  void disarm_inactivity(UeContext& ctx);
  void inactivity_fired(std::uint64_t key);
  void page_ue(std::uint64_t key);
  /// Active → Idle: release the radio connection, then host_.on_idle().
  void go_idle(UeContext& ctx);
  void finish_procedure(std::uint64_t key, proto::ProcedureType type);
  proto::MmeUeId next_mme_ue_id();
  proto::Teid next_teid();
  UeContext* ctx_of(std::uint64_t key) { return store_.find(key); }

  sim::Engine& engine_;
  sim::CpuModel& cpu_;
  Config cfg_;
  NodeId hop_ref_;
  NodeId sgw_node_;
  Host& host_;
  UeContextStore store_;
  epc::FlatMap<std::uint64_t, Txn> txns_;
  Counters counters_;
  std::uint32_t next_tmsi_ = 1;
  std::uint32_t next_ue_seq_ = 1;
  std::uint32_t next_teid_seq_ = 1;
};

}  // namespace scale::mme
