#include "proto/cluster.h"

#include "proto/codec.h"
#include "proto/pdu.h"

namespace scale::proto {

namespace {

/// Nested PDU as a u32 length + its encoding, written in place: the length
/// is reserved, the inner PDU encoded straight into `w`, then the length
/// back-patched — no temporary buffer per nesting level.
void encode_boxed(const PduRef& ref, ByteWriter& w) {
  if (!ref) throw CodecError("cannot encode null inner PDU");
  const std::size_t len_at = w.size();
  w.u32(0);
  encode_pdu_into(ref->value, w);
  const std::size_t len = w.size() - len_at - 4;
  if (len > UINT32_MAX) throw CodecError("inner PDU too large");
  w.patch_u32(len_at, static_cast<std::uint32_t>(len));
}

PduRef decode_boxed(ByteReader& r) {
  const std::uint32_t len = r.u32();
  const auto bytes = r.bytes(len);
  return box(decode_pdu(bytes));
}

}  // namespace

void UeContextRecord::encode(ByteWriter& w) const {
  w.u64(imsi);
  guti.encode(w);
  w.boolean(active);
  w.u32(enb_id);
  w.u32(enb_ue_id);
  w.u32(mme_ue_id.raw);
  w.u32(sgw_teid.raw);
  w.u32(mme_teid.raw);
  w.u16(tac);
  w.u64(kasme);
  w.f64(access_freq);
  w.u32(version);
  w.u32(master_mmp);
  w.u32(home_dc);
  w.u32(static_cast<std::uint32_t>(external_dc));
  w.u32(sgw_node);
  w.u32(state_bytes);
}

UeContextRecord UeContextRecord::decode(ByteReader& r) {
  UeContextRecord rec;
  rec.imsi = r.u64();
  rec.guti = Guti::decode(r);
  rec.active = r.boolean();
  rec.enb_id = r.u32();
  rec.enb_ue_id = r.u32();
  rec.mme_ue_id.raw = r.u32();
  rec.sgw_teid.raw = r.u32();
  rec.mme_teid.raw = r.u32();
  rec.tac = r.u16();
  rec.kasme = r.u64();
  rec.access_freq = r.f64();
  rec.version = r.u32();
  rec.master_mmp = r.u32();
  rec.home_dc = r.u32();
  rec.external_dc = static_cast<std::int32_t>(r.u32());
  rec.sgw_node = r.u32();
  rec.state_bytes = r.u32();
  return rec;
}

void ClusterForward::encode(ByteWriter& w) const {
  w.u32(origin);
  guti.encode(w);
  w.boolean(no_offload);
  encode_boxed(inner, w);
}

ClusterForward ClusterForward::decode(ByteReader& r) {
  ClusterForward m;
  m.origin = r.u32();
  m.guti = Guti::decode(r);
  m.no_offload = r.boolean();
  m.inner = decode_boxed(r);
  return m;
}

void ClusterReply::encode(ByteWriter& w) const {
  w.u32(target);
  encode_boxed(inner, w);
}

ClusterReply ClusterReply::decode(ByteReader& r) {
  ClusterReply m;
  m.target = r.u32();
  m.inner = decode_boxed(r);
  return m;
}

void ReplicaPush::encode(ByteWriter& w) const {
  rec.encode(w);
  w.boolean(geo);
}

ReplicaPush ReplicaPush::decode(ByteReader& r) {
  ReplicaPush m;
  m.rec = UeContextRecord::decode(r);
  m.geo = r.boolean();
  return m;
}

void ReplicaAck::encode(ByteWriter& w) const {
  guti.encode(w);
  w.u32(version);
  w.u32(holder_dc);
}

ReplicaAck ReplicaAck::decode(ByteReader& r) {
  ReplicaAck m;
  m.guti = Guti::decode(r);
  m.version = r.u32();
  m.holder_dc = r.u32();
  return m;
}

void ReplicaDelete::encode(ByteWriter& w) const { guti.encode(w); }

ReplicaDelete ReplicaDelete::decode(ByteReader& r) {
  return ReplicaDelete{.guti = Guti::decode(r)};
}

void StateTransfer::encode(ByteWriter& w) const { rec.encode(w); }

StateTransfer StateTransfer::decode(ByteReader& r) {
  return StateTransfer{.rec = UeContextRecord::decode(r)};
}

void StateTransferAck::encode(ByteWriter& w) const { guti.encode(w); }

StateTransferAck StateTransferAck::decode(ByteReader& r) {
  return StateTransferAck{.guti = Guti::decode(r)};
}

void LoadReport::encode(ByteWriter& w) const {
  w.u32(mmp_node);
  w.f64(cpu_util);
  w.u32(active_devices);
}

LoadReport LoadReport::decode(ByteReader& r) {
  LoadReport m;
  m.mmp_node = r.u32();
  m.cpu_util = r.f64();
  m.active_devices = r.u32();
  return m;
}

void RingUpdate::encode(ByteWriter& w) const {
  w.u64(version);
  if (members.size() > UINT16_MAX) throw CodecError("too many ring members");
  w.u16(static_cast<std::uint16_t>(members.size()));
  for (const auto& m : members) {
    w.u32(m.node);
    w.u8(m.code);
  }
}

RingUpdate RingUpdate::decode(ByteReader& r) {
  RingUpdate m;
  m.version = r.u64();
  const std::uint16_t n = r.u16();
  m.members.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    Member member;
    member.node = r.u32();
    member.code = r.u8();
    m.members.push_back(member);
  }
  return m;
}

void GeoBudgetGossip::encode(ByteWriter& w) const {
  w.u32(dc_id);
  w.f64(available_budget);
  w.f64(cpu_load);
  w.f64(backlog_sec);
}

GeoBudgetGossip GeoBudgetGossip::decode(ByteReader& r) {
  GeoBudgetGossip m;
  m.dc_id = r.u32();
  m.available_budget = r.f64();
  m.cpu_load = r.f64();
  m.backlog_sec = r.f64();
  return m;
}

void GeoForward::encode(ByteWriter& w) const {
  w.u32(origin);
  w.u32(home_dc);
  w.u32(home_mlb);
  guti.encode(w);
  encode_boxed(inner, w);
}

GeoForward GeoForward::decode(ByteReader& r) {
  GeoForward m;
  m.origin = r.u32();
  m.home_dc = r.u32();
  m.home_mlb = r.u32();
  m.guti = Guti::decode(r);
  m.inner = decode_boxed(r);
  return m;
}

void GeoReject::encode(ByteWriter& w) const {
  guti.encode(w);
  encode_boxed(inner, w);
  w.u32(origin);
}

GeoReject GeoReject::decode(ByteReader& r) {
  GeoReject m;
  m.guti = Guti::decode(r);
  m.inner = decode_boxed(r);
  m.origin = r.u32();
  return m;
}

void GeoEvictRequest::encode(ByteWriter& w) const {
  w.u32(dc_id);
  w.f64(fraction);
}

GeoEvictRequest GeoEvictRequest::decode(ByteReader& r) {
  GeoEvictRequest m;
  m.dc_id = r.u32();
  m.fraction = r.f64();
  return m;
}

void StateFetch::encode(ByteWriter& w) const { guti.encode(w); }

StateFetch StateFetch::decode(ByteReader& r) {
  return StateFetch{.guti = Guti::decode(r)};
}

void StateFetchResp::encode(ByteWriter& w) const {
  guti.encode(w);
  w.boolean(found);
  rec.encode(w);
}

StateFetchResp StateFetchResp::decode(ByteReader& r) {
  StateFetchResp m;
  m.guti = Guti::decode(r);
  m.found = r.boolean();
  m.rec = UeContextRecord::decode(r);
  return m;
}

void TransportData::encode(ByteWriter& w) const {
  w.u64(seq);
  w.u32(attempt);
  encode_boxed(inner, w);
}

TransportData TransportData::decode(ByteReader& r) {
  TransportData m;
  m.seq = r.u64();
  m.attempt = r.u32();
  m.inner = decode_boxed(r);
  return m;
}

void TransportAck::encode(ByteWriter& w) const { w.u64(seq); }

TransportAck TransportAck::decode(ByteReader& r) {
  return TransportAck{.seq = r.u64()};
}

void OverloadReject::encode(ByteWriter& w) const {
  w.u32(mmp_node);
  w.u32(origin);
  guti.encode(w);
  w.u64(backoff_us);
  w.u8(procedure);
  w.u8(level);
  encode_boxed(inner, w);
}

OverloadReject OverloadReject::decode(ByteReader& r) {
  OverloadReject m;
  m.mmp_node = r.u32();
  m.origin = r.u32();
  m.guti = Guti::decode(r);
  m.backoff_us = r.u64();
  m.procedure = r.u8();
  m.level = r.u8();
  m.inner = decode_boxed(r);
  return m;
}

void encode_cluster(const ClusterMessage& msg, ByteWriter& w) {
  std::visit(
      [&w](const auto& m) {
        w.u8(static_cast<std::uint8_t>(m.kType));
        m.encode(w);
      },
      msg);
}

ClusterMessage decode_cluster(ByteReader& r) {
  const auto type = static_cast<ClusterType>(r.u8());
  switch (type) {
    case ClusterType::kForward: return ClusterForward::decode(r);
    case ClusterType::kReply: return ClusterReply::decode(r);
    case ClusterType::kReplicaPush: return ReplicaPush::decode(r);
    case ClusterType::kReplicaAck: return ReplicaAck::decode(r);
    case ClusterType::kReplicaDelete: return ReplicaDelete::decode(r);
    case ClusterType::kStateTransfer: return StateTransfer::decode(r);
    case ClusterType::kStateTransferAck: return StateTransferAck::decode(r);
    case ClusterType::kLoadReport: return LoadReport::decode(r);
    case ClusterType::kRingUpdate: return RingUpdate::decode(r);
    case ClusterType::kGeoBudgetGossip: return GeoBudgetGossip::decode(r);
    case ClusterType::kGeoForward: return GeoForward::decode(r);
    case ClusterType::kGeoReject: return GeoReject::decode(r);
    case ClusterType::kGeoEvictRequest: return GeoEvictRequest::decode(r);
    case ClusterType::kStateFetch: return StateFetch::decode(r);
    case ClusterType::kStateFetchResp: return StateFetchResp::decode(r);
    case ClusterType::kTransportData: return TransportData::decode(r);
    case ClusterType::kTransportAck: return TransportAck::decode(r);
    case ClusterType::kOverloadReject: return OverloadReject::decode(r);
  }
  throw CodecError("unknown cluster type " +
                   std::to_string(static_cast<int>(type)));
}

const char* cluster_name(const ClusterMessage& msg) {
  return std::visit(
      [](const auto& m) -> const char* {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ClusterForward>)
          return "ClusterForward";
        else if constexpr (std::is_same_v<T, ClusterReply>)
          return "ClusterReply";
        else if constexpr (std::is_same_v<T, ReplicaPush>)
          return "ReplicaPush";
        else if constexpr (std::is_same_v<T, ReplicaAck>)
          return "ReplicaAck";
        else if constexpr (std::is_same_v<T, ReplicaDelete>)
          return "ReplicaDelete";
        else if constexpr (std::is_same_v<T, StateTransfer>)
          return "StateTransfer";
        else if constexpr (std::is_same_v<T, StateTransferAck>)
          return "StateTransferAck";
        else if constexpr (std::is_same_v<T, LoadReport>)
          return "LoadReport";
        else if constexpr (std::is_same_v<T, RingUpdate>)
          return "RingUpdate";
        else if constexpr (std::is_same_v<T, GeoBudgetGossip>)
          return "GeoBudgetGossip";
        else if constexpr (std::is_same_v<T, GeoForward>)
          return "GeoForward";
        else if constexpr (std::is_same_v<T, GeoReject>)
          return "GeoReject";
        else if constexpr (std::is_same_v<T, GeoEvictRequest>)
          return "GeoEvictRequest";
        else if constexpr (std::is_same_v<T, StateFetch>)
          return "StateFetch";
        else if constexpr (std::is_same_v<T, StateFetchResp>)
          return "StateFetchResp";
        else if constexpr (std::is_same_v<T, TransportData>)
          return "TransportData";
        else if constexpr (std::is_same_v<T, TransportAck>)
          return "TransportAck";
        else
          return "OverloadReject";
      },
      msg);
}

}  // namespace scale::proto
