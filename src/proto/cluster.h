// Cluster-internal messages — everything that flows on SCALE's private
// interfaces (§5): MLB → MMP request forwarding ("SCTP connections using an
// interface similar to S1AP"), MMP ↔ MMP state replication and transfer,
// load/ring metadata on the management channel, and the inter-DC
// geo-multiplexing protocol of §4.5.2.
//
// The 3GPP-pool and SIMPLE baselines reuse StateTransfer/LoadReport so the
// signaling-overhead comparison (Fig. 2(c), Fig. 8(b,c)) is apples-to-apples.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <variant>
#include <vector>

#include "proto/types.h"

namespace scale::proto {

struct PduBox;  // defined in pdu.h (holds a full Pdu; breaks the cycle)
using PduRef = std::shared_ptr<const PduBox>;

/// Serializable snapshot of one device's MME state — what actually moves
/// when SCALE replicates or a baseline reassigns. §2 lists the real
/// contents (timers, crypto keys, data-path parameters, RRM config, CDRs,
/// location); we carry the fields the procedures need plus a nominal size.
struct UeContextRecord {
  Imsi imsi = 0;
  Guti guti;
  bool active = false;
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  Teid sgw_teid;
  Teid mme_teid;
  Tac tac = 0;
  std::uint64_t kasme = 0;        ///< NAS security context
  double access_freq = 0.0;       ///< wᵢ — moving-average access frequency
  std::uint32_t version = 0;      ///< replica-consistency sequence number
  std::uint32_t master_mmp = 0;   ///< device-to-MMP mapping (§4.1)
  std::uint32_t home_dc = 0;
  std::int32_t external_dc = -1;  ///< remote DC holding a geo replica; -1 none
  std::uint32_t sgw_node = 0;     ///< home S-GW (geo processing targets it)
  std::uint32_t state_bytes = 2048;  ///< nominal footprint for memory budget

  static constexpr auto kFields = std::tuple{
      &UeContextRecord::imsi, &UeContextRecord::guti, &UeContextRecord::active,
      &UeContextRecord::enb_id, &UeContextRecord::enb_ue_id,
      &UeContextRecord::mme_ue_id, &UeContextRecord::sgw_teid,
      &UeContextRecord::mme_teid, &UeContextRecord::tac,
      &UeContextRecord::kasme, &UeContextRecord::access_freq,
      &UeContextRecord::version, &UeContextRecord::master_mmp,
      &UeContextRecord::home_dc, &UeContextRecord::external_dc,
      &UeContextRecord::sgw_node, &UeContextRecord::state_bytes};
  bool operator==(const UeContextRecord&) const = default;
};

enum class ClusterType : std::uint8_t {
  kForward = 1,
  kReply = 2,
  kReplicaPush = 3,
  kReplicaAck = 4,
  kReplicaDelete = 5,
  kStateTransfer = 6,
  kStateTransferAck = 7,
  kLoadReport = 8,
  kRingUpdate = 9,
  kGeoBudgetGossip = 10,
  kGeoForward = 11,
  kGeoReject = 12,
  kGeoEvictRequest = 13,
  kStateFetch = 14,
  kStateFetchResp = 15,
  kTransportData = 16,
  kTransportAck = 17,
  kOverloadReject = 18,
};

/// MLB → MMP: a standard-interface PDU forwarded into the cluster. `origin`
/// is the external node (eNodeB or S-GW) the reply must reach. `guti` is the
/// routing key the MLB used — for an unregistered device this carries the
/// GUTI the MLB just allocated (§4.3.1: "the MLB first assigns it a GUTI
/// before routing its request").
struct ClusterForward {
  static constexpr ClusterType kType = ClusterType::kForward;
  static constexpr const char* kName = "ClusterForward";
  std::uint32_t origin = 0;
  Guti guti;
  /// Loop guard: set when a geo offload bounced back — the receiving MMP
  /// must process locally rather than re-offload.
  bool no_offload = false;
  PduRef inner;

  static constexpr auto kFields = std::tuple{
      &ClusterForward::origin, &ClusterForward::guti,
      &ClusterForward::no_offload, &ClusterForward::inner};
};

/// MMP → MLB: a PDU to relay out of a standard interface to `target`.
struct ClusterReply {
  static constexpr ClusterType kType = ClusterType::kReply;
  static constexpr const char* kName = "ClusterReply";
  std::uint32_t target = 0;
  PduRef inner;

  static constexpr auto kFields = std::tuple{
      &ClusterReply::target, &ClusterReply::inner};
};

/// Master MMP → replica MMP (or → remote MLB when geo=true): asynchronous
/// state replication (§4.3.2; §5 "the master MMP replicates the state of a
/// device after it processes its initial attach request").
struct ReplicaPush {
  static constexpr ClusterType kType = ClusterType::kReplicaPush;
  static constexpr const char* kName = "ReplicaPush";
  UeContextRecord rec;
  bool geo = false;

  static constexpr auto kFields = std::tuple{
      &ReplicaPush::rec, &ReplicaPush::geo};
};

/// Replica → master: synchronization acknowledgement.
struct ReplicaAck {
  static constexpr ClusterType kType = ClusterType::kReplicaAck;
  static constexpr const char* kName = "ReplicaAck";
  Guti guti;
  std::uint32_t version = 0;
  std::uint32_t holder_dc = 0;

  static constexpr auto kFields = std::tuple{
      &ReplicaAck::guti, &ReplicaAck::version, &ReplicaAck::holder_dc};
};

/// Remove a replica (access-aware down-replication or geo eviction).
struct ReplicaDelete {
  static constexpr ClusterType kType = ClusterType::kReplicaDelete;
  static constexpr const char* kName = "ReplicaDelete";
  Guti guti;

  static constexpr auto kFields = std::tuple{&ReplicaDelete::guti};
};

/// Full ownership hand-off of a device's state: ring-membership migration in
/// SCALE, reactive overload reassignment in the 3GPP baseline (§3.1-2 "mes-
/// sages are exchanged between the MMEs to transfer the state of devices").
struct StateTransfer {
  static constexpr ClusterType kType = ClusterType::kStateTransfer;
  static constexpr const char* kName = "StateTransfer";
  UeContextRecord rec;

  static constexpr auto kFields = std::tuple{&StateTransfer::rec};
};

struct StateTransferAck {
  static constexpr ClusterType kType = ClusterType::kStateTransferAck;
  static constexpr const char* kName = "StateTransferAck";
  Guti guti;

  static constexpr auto kFields = std::tuple{&StateTransferAck::guti};
};

/// MMP → MLB on the management channel: "current load (moving average of
/// CPU utilization) on each MMP VM" (§4.6) — the only per-VM metadata the
/// MLB keeps.
struct LoadReport {
  static constexpr ClusterType kType = ClusterType::kLoadReport;
  static constexpr const char* kName = "LoadReport";
  std::uint32_t mmp_node = 0;
  double cpu_util = 0.0;
  std::uint32_t active_devices = 0;

  static constexpr auto kFields = std::tuple{
      &LoadReport::mmp_node, &LoadReport::cpu_util,
      &LoadReport::active_devices};
};

/// Provisioner → MLB: the updated consistent-hash membership. The MLB
/// rebuilds its ring from (node, code) pairs — it stores no per-device data.
struct RingUpdate {
  static constexpr ClusterType kType = ClusterType::kRingUpdate;
  static constexpr const char* kName = "RingUpdate";
  struct Member {
    std::uint32_t node = 0;   ///< simulator NodeId of the MMP VM
    std::uint8_t code = 0;    ///< MMP code embedded in MmeUeId/Teid
    bool operator==(const Member&) const = default;

    static constexpr auto kFields = std::tuple{&Member::node, &Member::code};
  };
  std::uint64_t version = 0;
  std::vector<Member> members;

  static constexpr auto kFields = std::tuple{
      &RingUpdate::version, &RingUpdate::members};
};

/// DC ↔ DC: periodic broadcast of the unused external-state budget Ŝm
/// (§4.5.2 DC-level operation (iii)).
struct GeoBudgetGossip {
  static constexpr ClusterType kType = ClusterType::kGeoBudgetGossip;
  static constexpr const char* kName = "GeoBudgetGossip";
  std::uint32_t dc_id = 0;
  double available_budget = 0.0;  ///< Ŝm, in device-state units
  double cpu_load = 0.0;          ///< mean MMP utilization (offload gate)
  double backlog_sec = 0.0;       ///< mean MMP queued work, seconds

  static constexpr auto kFields = std::tuple{
      &GeoBudgetGossip::dc_id, &GeoBudgetGossip::available_budget,
      &GeoBudgetGossip::cpu_load, &GeoBudgetGossip::backlog_sec};
};

/// Overloaded local MMP → remote DC's MLB: process this device request
/// remotely using its external replica (§4.6 task (3)).
struct GeoForward {
  static constexpr ClusterType kType = ClusterType::kGeoForward;
  static constexpr const char* kName = "GeoForward";
  std::uint32_t origin = 0;   ///< external node awaiting the reply (eNB/S-GW)
  std::uint32_t home_dc = 0;
  std::uint32_t home_mlb = 0;  ///< return path for GeoReject
  Guti guti;
  PduRef inner;

  static constexpr auto kFields = std::tuple{
      &GeoForward::origin, &GeoForward::home_dc, &GeoForward::home_mlb,
      &GeoForward::guti, &GeoForward::inner};
};

/// Remote MMP → home MMP: no external replica here (stale ring / evicted);
/// the home DC must process locally.
struct GeoReject {
  static constexpr ClusterType kType = ClusterType::kGeoReject;
  static constexpr const char* kName = "GeoReject";
  Guti guti;
  PduRef inner;
  std::uint32_t origin = 0;

  static constexpr auto kFields = std::tuple{
      &GeoReject::guti, &GeoReject::inner, &GeoReject::origin};
};

/// DC j → others: shrink your external share by `fraction` (§4.5.2 (v));
/// receivers evict lowest-access-probability states first.
struct GeoEvictRequest {
  static constexpr ClusterType kType = ClusterType::kGeoEvictRequest;
  static constexpr const char* kName = "GeoEvictRequest";
  std::uint32_t dc_id = 0;
  double fraction = 0.0;

  static constexpr auto kFields = std::tuple{
      &GeoEvictRequest::dc_id, &GeoEvictRequest::fraction};
};

/// dMME processing node → centralized state store: fetch a device's
/// context before running its procedure (the alternate split design of
/// An et al., compared as future work in §6).
struct StateFetch {
  static constexpr ClusterType kType = ClusterType::kStateFetch;
  static constexpr const char* kName = "StateFetch";
  Guti guti;

  static constexpr auto kFields = std::tuple{&StateFetch::guti};
};

/// State store → dMME node.
struct StateFetchResp {
  static constexpr ClusterType kType = ClusterType::kStateFetchResp;
  static constexpr const char* kName = "StateFetchResp";
  Guti guti;
  bool found = false;
  UeContextRecord rec;

  static constexpr auto kFields = std::tuple{
      &StateFetchResp::guti, &StateFetchResp::found, &StateFetchResp::rec};
};

/// Reliability-shim segment (epc/reliable.h): the inner PDU plus a per-
/// (sender -> receiver) sequence number, mirroring an SCTP DATA chunk. The
/// receiver acks every segment and deduplicates by `seq`, so retransmitted
/// or fault-duplicated PDUs never double-execute a procedure.
struct TransportData {
  static constexpr ClusterType kType = ClusterType::kTransportData;
  static constexpr const char* kName = "TransportData";
  std::uint64_t seq = 0;
  /// > 0 on retransmissions (diagnostic; not used for dedup).
  std::uint32_t attempt = 0;
  PduRef inner;

  static constexpr auto kFields = std::tuple{
      &TransportData::seq, &TransportData::attempt, &TransportData::inner};
};

/// Reliability-shim SACK: acknowledges exactly one TransportData segment.
/// Acks are sent unreliably (an ack of an ack would loop forever); a lost
/// ack simply costs one retransmission, which dedup absorbs.
struct TransportAck {
  static constexpr ClusterType kType = ClusterType::kTransportAck;
  static constexpr const char* kName = "TransportAck";
  std::uint64_t seq = 0;

  static constexpr auto kFields = std::tuple{&TransportAck::seq};
};

/// Overloaded MMP → MLB: the ingress queue is saturated and this request
/// was shed. Carries the routing key so the MLB can re-steer the request to
/// a replica, plus a backoff hint during which the MLB should avoid handing
/// this VM new work ("graceful degradation instead of silent queue growth").
struct OverloadReject {
  static constexpr ClusterType kType = ClusterType::kOverloadReject;
  static constexpr const char* kName = "OverloadReject";
  std::uint32_t mmp_node = 0;      ///< the shedding VM
  std::uint32_t origin = 0;        ///< external node awaiting a reply
  Guti guti;
  std::uint64_t backoff_us = 0;    ///< steer-away hint for the MLB
  std::uint8_t procedure = 0;      ///< ProcedureType of the shed request
  std::uint8_t level = 0;          ///< governor PressureLevel (0 = binary)
  PduRef inner;                    ///< the shed request, for re-steering

  static constexpr auto kFields = std::tuple{
      &OverloadReject::mmp_node, &OverloadReject::origin, &OverloadReject::guti,
      &OverloadReject::backoff_us, &OverloadReject::procedure,
      &OverloadReject::level, &OverloadReject::inner};
};

using ClusterMessage =
    std::variant<ClusterForward, ClusterReply, ReplicaPush, ReplicaAck,
                 ReplicaDelete, StateTransfer, StateTransferAck, LoadReport,
                 RingUpdate, GeoBudgetGossip, GeoForward, GeoReject,
                 GeoEvictRequest, StateFetch, StateFetchResp, TransportData,
                 TransportAck, OverloadReject>;

const char* cluster_name(const ClusterMessage& msg);

}  // namespace scale::proto
