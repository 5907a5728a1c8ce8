// Round-trip and robustness tests for the full PDU codec — every message
// family that can cross a link.
#include <gtest/gtest.h>

#include "common/check.h"

#include <utility>
#include <variant>
#include <vector>

#include "proto/codec.h"

namespace scale::proto {
namespace {

Guti test_guti() { return Guti{310, 17, 3, 0xBEEF01}; }

template <typename T>
void expect_roundtrip(T msg) {
  const Pdu pdu = make_pdu(std::move(msg));
  const auto bytes = encode_pdu(pdu);
  const Pdu decoded = decode_pdu(bytes);
  EXPECT_STREQ(pdu_name(pdu), pdu_name(decoded));
  // Re-encoding the decoded PDU must be byte-identical (canonical form).
  EXPECT_EQ(encode_pdu(decoded), bytes);
}

TEST(Codec, GutiKeyInjective) {
  const Guti a{1, 2, 3, 400}, b{1, 2, 3, 401}, c{1, 2, 4, 400};
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(a.key(), (Guti{1, 2, 3, 400}).key());
}

TEST(Codec, NasAttachRequestWithAndWithoutGuti) {
  NasAttachRequest with;
  with.imsi = 123456789012345ull;
  with.old_guti = test_guti();
  with.tac = 7;
  expect_roundtrip(InitialUeMessage{1, 2, 7, NasMessage{with}});

  NasAttachRequest without;
  without.imsi = 1;
  expect_roundtrip(InitialUeMessage{1, 2, 7, NasMessage{without}});
}

TEST(Codec, NasFieldFidelity) {
  NasAttachRequest req;
  req.imsi = 0xFFFFFFFFFFFFull;
  req.old_guti = test_guti();
  req.tac = 0xABCD;
  ByteWriter w;
  encode_nas(NasMessage{req}, w);
  ByteReader r(w.data());
  const NasMessage decoded = decode_nas(r);
  ASSERT_TRUE(std::holds_alternative<NasAttachRequest>(decoded));
  EXPECT_EQ(std::get<NasAttachRequest>(decoded), req);
}

TEST(Codec, AllNasMessagesRoundTrip) {
  const std::vector<NasMessage> msgs = {
      NasAttachRequest{1, test_guti(), 2},
      NasAuthenticationRequest{0xAAAA, 0xBBBB},
      NasAuthenticationResponse{0xCCCC},
      NasSecurityModeCommand{1, 2},
      NasSecurityModeComplete{},
      NasAttachAccept{test_guti(), 7200},
      NasAttachComplete{},
      NasServiceRequest{3, 0xBEEF01, 0x55},
      NasServiceAccept{},
      NasServiceReject{9},
      NasTauRequest{test_guti(), 12, true},
      NasTauAccept{test_guti(), 1800},
      NasDetachRequest{test_guti()},
      NasDetachAccept{},
  };
  for (const auto& m : msgs) {
    ByteWriter w;
    encode_nas(m, w);
    ByteReader r(w.data());
    const NasMessage back = decode_nas(r);
    EXPECT_STREQ(nas_name(m), nas_name(back));
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Codec, AllS1apMessagesRoundTrip) {
  expect_roundtrip(InitialUeMessage{9, 8, 7, NasMessage{NasServiceRequest{}}});
  expect_roundtrip(UplinkNasTransport{9, 8, MmeUeId::make(3, 100),
                                      NasMessage{NasAuthenticationResponse{}}});
  expect_roundtrip(DownlinkNasTransport{9, 8, MmeUeId::make(3, 100),
                                        NasMessage{NasAttachAccept{}}});
  expect_roundtrip(InitialContextSetupRequest{9, 8, MmeUeId::make(3, 1),
                                              Teid::make(3, 5)});
  expect_roundtrip(InitialContextSetupResponse{9, 8, MmeUeId::make(3, 1),
                                               Teid::make(0, 6)});
  expect_roundtrip(UeContextReleaseCommand{
      9, 8, MmeUeId::make(3, 1), ReleaseCause::kLoadBalancingTauRequired});
  expect_roundtrip(UeContextReleaseComplete{9, 8, MmeUeId::make(3, 1)});
  expect_roundtrip(Paging{0xBEEF, 12});
  expect_roundtrip(PathSwitchRequest{10, 8, MmeUeId::make(3, 1), 12});
  expect_roundtrip(PathSwitchAck{10, 8, MmeUeId::make(3, 1)});
  expect_roundtrip(OverloadStart{2, 250000});
}

TEST(Codec, OverloadRejectFieldFidelity) {
  OverloadReject rej;
  rej.mmp_node = 4;
  rej.origin = 9;
  rej.guti = test_guti();
  rej.backoff_us = 200000;
  rej.procedure = 2;  // kTrackingAreaUpdate
  rej.level = 3;      // kOverload
  rej.inner = box(make_pdu(Paging{1, 2}));
  const auto bytes = encode_pdu(make_pdu(ClusterMessage{rej}));
  const Pdu decoded = decode_pdu(bytes);
  const auto& back = std::get<OverloadReject>(std::get<ClusterMessage>(decoded));
  EXPECT_EQ(back.mmp_node, 4u);
  EXPECT_EQ(back.backoff_us, 200000u);
  EXPECT_EQ(back.procedure, 2u);
  EXPECT_EQ(back.level, 3u);
  ASSERT_NE(back.inner, nullptr);
}

TEST(Codec, AllS11MessagesRoundTrip) {
  expect_roundtrip(CreateSessionRequest{123, Teid::make(2, 9)});
  expect_roundtrip(CreateSessionResponse{Teid::make(2, 9), Teid{77}});
  expect_roundtrip(ModifyBearerRequest{Teid{77}, Teid::make(2, 9), 5});
  expect_roundtrip(ModifyBearerResponse{Teid::make(2, 9)});
  expect_roundtrip(ReleaseAccessBearersRequest{Teid{77}, Teid::make(2, 9)});
  expect_roundtrip(ReleaseAccessBearersResponse{Teid::make(2, 9)});
  expect_roundtrip(DeleteSessionRequest{Teid{77}, Teid::make(2, 9)});
  expect_roundtrip(DeleteSessionResponse{Teid::make(2, 9)});
  expect_roundtrip(DownlinkDataNotification{Teid::make(2, 9)});
  expect_roundtrip(DownlinkDataNotificationAck{Teid{77}});
}

TEST(Codec, AllS6MessagesRoundTrip) {
  expect_roundtrip(AuthInfoRequest{123, 42});
  expect_roundtrip(AuthInfoAnswer{123, 42, true, 1, 2, 3});
  expect_roundtrip(UpdateLocationRequest{123, 7, 42});
  expect_roundtrip(UpdateLocationAnswer{123, true, 9, 42});
}

TEST(Codec, HopRefEchoPreserved) {
  AuthInfoAnswer ans;
  ans.imsi = 5;
  ans.hop_ref = 0xDEADBEEF;
  const auto bytes = encode_pdu(make_pdu(ans));
  const Pdu decoded = decode_pdu(bytes);
  const auto& s6 = std::get<S6Message>(decoded);
  EXPECT_EQ(std::get<AuthInfoAnswer>(s6).hop_ref, 0xDEADBEEFu);
}

TEST(Codec, UeContextRecordFullFidelity) {
  UeContextRecord rec;
  rec.imsi = 123456789012345ull;
  rec.guti = test_guti();
  rec.active = true;
  rec.enb_id = 42;
  rec.enb_ue_id = 77;
  rec.mme_ue_id = MmeUeId::make(9, 1000);
  rec.sgw_teid = Teid{555};
  rec.mme_teid = Teid::make(9, 666);
  rec.tac = 12;
  rec.kasme = 0x1122334455667788ull;
  rec.access_freq = 0.73;
  rec.version = 15;
  rec.master_mmp = 3;
  rec.home_dc = 2;
  rec.external_dc = 1;
  rec.sgw_node = 88;
  rec.state_bytes = 4096;

  ByteWriter w;
  rec.encode(w);
  ByteReader r(w.data());
  EXPECT_EQ(UeContextRecord::decode(r), rec);
}

TEST(Codec, ClusterEnvelopesRoundTrip) {
  ClusterForward fwd;
  fwd.origin = 9;
  fwd.guti = test_guti();
  fwd.no_offload = true;
  fwd.inner = box(make_pdu(Paging{1, 2}));
  const auto bytes = encode_pdu(make_pdu(fwd));
  const Pdu decoded = decode_pdu(bytes);
  const auto& cluster = std::get<ClusterMessage>(decoded);
  const auto& back = std::get<ClusterForward>(cluster);
  EXPECT_EQ(back.origin, 9u);
  EXPECT_TRUE(back.no_offload);
  EXPECT_EQ(back.guti, test_guti());
  ASSERT_NE(back.inner, nullptr);
  EXPECT_STREQ(pdu_name(back.inner->value), "Paging");
}

TEST(Codec, NestedEnvelopesRoundTrip) {
  // Reply carrying a forward carrying an S1AP message — two levels deep.
  ClusterForward fwd;
  fwd.origin = 1;
  fwd.inner = box(make_pdu(Paging{5, 6}));
  ClusterReply reply;
  reply.target = 2;
  reply.inner = box(make_pdu(fwd));
  const auto bytes = encode_pdu(make_pdu(reply));
  const Pdu decoded = decode_pdu(bytes);
  const auto& outer =
      std::get<ClusterReply>(std::get<ClusterMessage>(decoded));
  const auto& inner_fwd = std::get<ClusterForward>(
      std::get<ClusterMessage>(outer.inner->value));
  EXPECT_STREQ(pdu_name(inner_fwd.inner->value), "Paging");
}

TEST(Codec, GeoMessagesRoundTrip) {
  GeoForward gf;
  gf.origin = 1;
  gf.home_dc = 2;
  gf.home_mlb = 3;
  gf.guti = test_guti();
  gf.inner = box(make_pdu(Paging{1, 1}));
  expect_roundtrip(gf);

  GeoReject rej;
  rej.guti = test_guti();
  rej.origin = 4;
  rej.inner = box(make_pdu(Paging{1, 1}));
  expect_roundtrip(rej);

  expect_roundtrip(GeoBudgetGossip{3, 123.5});
  expect_roundtrip(GeoEvictRequest{3, 0.25});
}

TEST(Codec, RingUpdateRoundTrip) {
  RingUpdate update;
  update.version = 42;
  for (std::uint32_t i = 1; i <= 30; ++i)
    update.members.push_back({i * 100, static_cast<std::uint8_t>(i)});
  const auto bytes = encode_pdu(make_pdu(update));
  const Pdu decoded = decode_pdu(bytes);
  const auto& back =
      std::get<RingUpdate>(std::get<ClusterMessage>(decoded));
  EXPECT_EQ(back.version, 42u);
  ASSERT_EQ(back.members.size(), 30u);
  EXPECT_EQ(back.members[7], update.members[7]);
}

TEST(Codec, ReplicaAndTransferRoundTrip) {
  UeContextRecord rec;
  rec.guti = test_guti();
  expect_roundtrip(ReplicaPush{rec, true});
  expect_roundtrip(ReplicaAck{test_guti(), 3, 1});
  expect_roundtrip(ReplicaDelete{test_guti()});
  expect_roundtrip(StateTransfer{rec});
  expect_roundtrip(StateTransferAck{test_guti()});
  expect_roundtrip(LoadReport{5, 0.87, 120});
}

TEST(Codec, MalformedInputsThrowNotCrash) {
  // Unknown family tag.
  const std::uint8_t bad_family[] = {99, 0, 0};
  EXPECT_THROW(decode_pdu(bad_family), CodecError);
  // Unknown S1AP type.
  const std::uint8_t bad_type[] = {1, 200};
  EXPECT_THROW(decode_pdu(bad_type), CodecError);
  // Truncated valid prefix.
  const auto good = encode_pdu(make_pdu(Paging{1, 2}));
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    std::span<const std::uint8_t> prefix(good.data(), cut);
    EXPECT_THROW(decode_pdu(prefix), CodecError) << "cut at " << cut;
  }
  // Trailing garbage after a valid PDU.
  auto padded = good;
  padded.push_back(0);
  EXPECT_THROW(decode_pdu(padded), CodecError);
}

TEST(Codec, WireSizeMatchesEncodedSize) {
  const Pdu pdu = make_pdu(InitialUeMessage{
      1, 2, 3, NasMessage{NasAttachRequest{42, test_guti(), 3}}});
  EXPECT_EQ(wire_size(pdu), encode_pdu(pdu).size());
}

/// A default-valued T as a Pdu; a boxed `inner` is filled with `inner`
/// (the encoders reject a null box).
template <typename T>
Pdu sample_of(const Pdu& inner) {
  T m{};
  if constexpr (requires { m.inner; }) m.inner = box(inner);
  return make_pdu(std::move(m));
}

/// One sample of every alternative of the message variant V.
template <typename V>
void add_every(std::vector<Pdu>& out, const Pdu& inner) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (out.push_back(sample_of<std::variant_alternative_t<I, V>>(inner)), ...);
  }(std::make_index_sequence<std::variant_size_v<V>>{});
}

/// Every Pdu alternative (NAS ones riding an InitialUeMessage), each boxed
/// envelope once around an S1AP PDU and once around a replica PDU, and the
/// forward/reply envelopes nested two deep.
std::vector<Pdu> every_pdu() {
  UeContextRecord rec;
  rec.imsi = 1234;
  rec.guti = test_guti();
  const Pdu paging = make_pdu(Paging{1, 2});
  const Pdu replica = make_pdu(ReplicaPush{rec, true});
  std::vector<Pdu> out;
  add_every<S1apMessage>(out, paging);
  add_every<S11Message>(out, paging);
  add_every<S6Message>(out, paging);
  add_every<ClusterMessage>(out, paging);
  add_every<ClusterMessage>(out, replica);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (out.push_back(make_pdu(InitialUeMessage{
         1, 2, 3, NasMessage{std::variant_alternative_t<I, NasMessage>{}}})),
     ...);
  }(std::make_index_sequence<std::variant_size_v<NasMessage>>{});
  ClusterForward fwd;
  fwd.inner = box(replica);
  ClusterReply reply;
  reply.inner = box(make_pdu(fwd));
  out.push_back(make_pdu(reply));
  return out;
}

TEST(Codec, WireSizeMatchesEncodedSizeForEveryPdu) {
  const std::vector<Pdu> pdus = every_pdu();
  EXPECT_GT(pdus.size(), 60u);
  for (const Pdu& pdu : pdus) {
    SCOPED_TRACE(pdu_name(pdu));
    const auto bytes = encode_pdu(pdu);
    EXPECT_EQ(wire_size(pdu), bytes.size());
    EXPECT_EQ(encode_pdu(decode_pdu(bytes)), bytes);
  }
}

TEST(Codec, BoxedEnvelopesMatchGoldenEncoding) {
  // Pinned wire bytes of the nested-PDU framing (u32 length + inner PDU),
  // recorded from the encoder that built each nested PDU in a temporary
  // buffer; the in-place back-patched encoder must reproduce them exactly.
  ClusterForward fwd;
  fwd.origin = 9;
  fwd.guti = test_guti();
  fwd.no_offload = true;
  fwd.inner = box(make_pdu(Paging{1, 2}));
  const std::vector<std::uint8_t> fwd_golden = {
      0x04, 0x01, 0x00, 0x00, 0x00, 0x09, 0x01, 0x36, 0x00, 0x11, 0x03, 0x00,
      0xbe, 0xef, 0x01, 0x01, 0x00, 0x00, 0x00, 0x08, 0x01, 0x08, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x02};

  ClusterForward inner_fwd;
  inner_fwd.origin = 1;
  inner_fwd.guti = test_guti();
  inner_fwd.inner = box(make_pdu(InitialUeMessage{
      1, 2, 7, NasMessage{NasAttachRequest{42, test_guti(), 3}}}));
  ClusterReply reply;
  reply.target = 2;
  reply.inner = box(make_pdu(inner_fwd));
  const std::vector<std::uint8_t> reply_golden = {
      0x04, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x35, 0x04, 0x01,
      0x00, 0x00, 0x00, 0x01, 0x01, 0x36, 0x00, 0x11, 0x03, 0x00, 0xbe, 0xef,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x21, 0x01, 0x01, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x2a, 0x01, 0x01, 0x36, 0x00, 0x11, 0x03, 0x00, 0xbe, 0xef,
      0x01, 0x00, 0x03};

  for (const auto& [pdu, golden] :
       {std::pair{make_pdu(fwd), fwd_golden},
        std::pair{make_pdu(reply), reply_golden}}) {
    EXPECT_EQ(encode_pdu(pdu), golden);
    EXPECT_EQ(*encode_pdu_pooled(pdu), golden);
    EXPECT_EQ(wire_size(pdu), golden.size());
    EXPECT_EQ(encode_pdu(decode_pdu(golden)), golden);
  }
  const Pdu decoded = decode_pdu(reply_golden);
  const auto& back = std::get<ClusterForward>(std::get<ClusterMessage>(
      std::get<ClusterReply>(std::get<ClusterMessage>(decoded))
          .inner->value));
  EXPECT_EQ(back.origin, 1u);
  EXPECT_STREQ(pdu_name(back.inner->value), "InitialUeMessage");
}

TEST(Codec, MmeUeIdAndTeidEmbedding) {
  const MmeUeId id = MmeUeId::make(0xAB, 0x123456);
  EXPECT_EQ(id.mmp_id(), 0xAB);
  EXPECT_EQ(id.seq(), 0x123456u);
  const Teid teid = Teid::make(0xCD, 0x654321);
  EXPECT_EQ(teid.owner_id(), 0xCD);
  EXPECT_TRUE(teid.valid());
  EXPECT_FALSE(Teid{}.valid());
}

}  // namespace
}  // namespace scale::proto
