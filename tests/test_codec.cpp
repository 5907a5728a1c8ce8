// Round-trip and robustness tests for the full PDU codec — every message
// family that can cross a link.
#include <gtest/gtest.h>

#include "common/check.h"

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "hash/md5.h"
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

  const Pdu decoded = decode_pdu(encode_pdu(make_pdu(StateTransfer{rec})));
  EXPECT_EQ(std::get<StateTransfer>(std::get<ClusterMessage>(decoded)).rec,
            rec);
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

  // The u16 member count is range-checked when sizing as when encoding:
  // a size wire_size reports is one encode_pdu would produce.
  update.members.resize(UINT16_MAX + 1u);
  const Pdu too_long = make_pdu(update);
  EXPECT_THROW((void)wire_size(too_long), CodecError);
  EXPECT_THROW((void)encode_pdu(too_long), CodecError);
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
  // Every family's tags run 1..N, so 0 and N + 1 are the unknown tags on
  // either side. The family tag sits at byte 0 and the message tag at byte
  // 1; a NAS tag sits after InitialUeMessage's enb_id, enb_ue_id and tac.
  // The error must name the tag, not a truncation further on.
  auto expect_bad_tags = [](std::vector<std::uint8_t> bytes, std::size_t at,
                            std::size_t n) {
    for (const std::size_t tag : {std::size_t{0}, n + 1}) {
      bytes[at] = static_cast<std::uint8_t>(tag);
      try {
        (void)decode_pdu(bytes);
        ADD_FAILURE() << "tag " << tag << " at byte " << at << " decoded";
      } catch (const CodecError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown"), std::string::npos)
            << "tag " << tag << " at byte " << at << ": " << e.what();
      }
    }
  };
  expect_bad_tags({1, 1}, 0, std::variant_size_v<Pdu>);
  expect_bad_tags({1, 1}, 1, std::variant_size_v<S1apMessage>);
  expect_bad_tags({2, 1}, 1, std::variant_size_v<S11Message>);
  expect_bad_tags({3, 1}, 1, std::variant_size_v<S6Message>);
  expect_bad_tags({4, 1}, 1, std::variant_size_v<ClusterMessage>);
  const auto initial = encode_pdu(
      make_pdu(InitialUeMessage{1, 2, 3, NasMessage{NasAttachComplete{}}}));
  ASSERT_EQ(initial.size(), 13u);
  expect_bad_tags(initial, 12, std::variant_size_v<NasMessage>);
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

/// Distinct, non-zero field values in call order: the low byte of every
/// integer counts up (so any two fields of one message differ, and a swap of
/// two same-width fields moves bytes), and the higher bytes are mixed and
/// never zero (so a byte-order slip moves bytes too).
class FieldFill {
 public:
  std::uint8_t u8() { return static_cast<std::uint8_t>(next() & 0xFF); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(next() & 0xFFFF); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(next()); }
  std::uint64_t u64() { return next(); }
  double f64() { return static_cast<double>(u8()) + 0.375; }
  Guti guti() { return Guti{u16(), u16(), u8(), u32()}; }
  Teid teid() { return Teid{u32()}; }
  MmeUeId mme_ue_id() { return MmeUeId{u32()}; }
  UeContextRecord record() {
    return UeContextRecord{
        .imsi = u64(),
        .guti = guti(),
        .active = true,
        .enb_id = u32(),
        .enb_ue_id = u32(),
        .mme_ue_id = mme_ue_id(),
        .sgw_teid = teid(),
        .mme_teid = teid(),
        .tac = u16(),
        .kasme = u64(),
        .access_freq = f64(),
        .version = u32(),
        .master_mmp = u32(),
        .home_dc = u32(),
        .external_dc = static_cast<std::int32_t>(u32() & 0x7FFFFFFF),
        .sgw_node = u32(),
        .state_bytes = u32(),
    };
  }

 private:
  std::uint64_t next() {
    ++k_;
    std::uint64_t z = k_ * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z ^= z >> 31;
    for (int shift = 8; shift < 64; shift += 8)
      if (((z >> shift) & 0xFF) == 0) z |= std::uint64_t{0x5A} << shift;
    return (z & ~std::uint64_t{0xFF}) | (1 + k_ % 255);
  }
  std::uint64_t k_ = 0;
};

/// One sample of every alternative of all five message families, every
/// field distinct and non-zero, optionals both set and unset.
std::vector<Pdu> golden_pdus() {
  FieldFill f;
  auto nas_in_initial = [&f](NasMessage nas) {
    return make_pdu(InitialUeMessage{.enb_id = f.u32(),
                                     .enb_ue_id = f.u32(),
                                     .tac = f.u16(),
                                     .nas = std::move(nas)});
  };
  auto inner = [&f] {
    return box(make_pdu(UplinkNasTransport{
        .enb_id = f.u32(),
        .enb_ue_id = f.u32(),
        .mme_ue_id = f.mme_ue_id(),
        .nas = NasMessage{NasAuthenticationResponse{.res = f.u64()}}}));
  };
  std::vector<Pdu> out;
  // NAS, each inside an InitialUeMessage.
  out.push_back(nas_in_initial(NasAttachRequest{
      .imsi = f.u64(), .old_guti = f.guti(), .tac = f.u16()}));
  out.push_back(nas_in_initial(
      NasAttachRequest{.imsi = f.u64(), .old_guti = {}, .tac = f.u16()}));
  out.push_back(nas_in_initial(
      NasAuthenticationRequest{.rand = f.u64(), .autn = f.u64()}));
  out.push_back(nas_in_initial(NasAuthenticationResponse{.res = f.u64()}));
  out.push_back(nas_in_initial(NasSecurityModeCommand{
      .integrity_algo = f.u8(), .ciphering_algo = f.u8()}));
  out.push_back(nas_in_initial(NasSecurityModeComplete{}));
  out.push_back(nas_in_initial(
      NasAttachAccept{.guti = f.guti(), .tau_timer_s = f.u32()}));
  out.push_back(nas_in_initial(NasAttachComplete{}));
  out.push_back(nas_in_initial(NasServiceRequest{
      .mme_code = f.u8(), .m_tmsi = f.u32(), .short_mac = f.u16()}));
  out.push_back(nas_in_initial(NasServiceAccept{}));
  out.push_back(nas_in_initial(NasServiceReject{.cause = f.u8()}));
  out.push_back(nas_in_initial(
      NasTauRequest{.guti = f.guti(), .tac = f.u16(), .rebalance = true}));
  out.push_back(nas_in_initial(
      NasTauAccept{.new_guti = f.guti(), .tau_timer_s = f.u32()}));
  out.push_back(nas_in_initial(
      NasTauAccept{.new_guti = {}, .tau_timer_s = f.u32()}));
  out.push_back(nas_in_initial(NasDetachRequest{.guti = f.guti()}));
  out.push_back(nas_in_initial(NasDetachAccept{}));
  // S1AP.
  out.push_back(make_pdu(UplinkNasTransport{
      .enb_id = f.u32(),
      .enb_ue_id = f.u32(),
      .mme_ue_id = f.mme_ue_id(),
      .nas = NasMessage{NasServiceReject{.cause = f.u8()}}}));
  out.push_back(make_pdu(DownlinkNasTransport{
      .enb_id = f.u32(),
      .enb_ue_id = f.u32(),
      .mme_ue_id = f.mme_ue_id(),
      .nas = NasMessage{
          NasAttachAccept{.guti = f.guti(), .tau_timer_s = f.u32()}}}));
  out.push_back(make_pdu(InitialContextSetupRequest{.enb_id = f.u32(),
                                                    .enb_ue_id = f.u32(),
                                                    .mme_ue_id = f.mme_ue_id(),
                                                    .sgw_teid = f.teid()}));
  out.push_back(make_pdu(InitialContextSetupResponse{.enb_id = f.u32(),
                                                     .enb_ue_id = f.u32(),
                                                     .mme_ue_id = f.mme_ue_id(),
                                                     .enb_teid = f.teid()}));
  out.push_back(make_pdu(
      UeContextReleaseCommand{.enb_id = f.u32(),
                              .enb_ue_id = f.u32(),
                              .mme_ue_id = f.mme_ue_id(),
                              .cause = ReleaseCause::kHandover}));
  out.push_back(make_pdu(UeContextReleaseComplete{
      .enb_id = f.u32(), .enb_ue_id = f.u32(), .mme_ue_id = f.mme_ue_id()}));
  out.push_back(make_pdu(Paging{.m_tmsi = f.u32(), .tac = f.u16()}));
  out.push_back(make_pdu(PathSwitchRequest{.new_enb_id = f.u32(),
                                           .enb_ue_id = f.u32(),
                                           .mme_ue_id = f.mme_ue_id(),
                                           .tac = f.u16()}));
  out.push_back(make_pdu(PathSwitchAck{
      .enb_id = f.u32(), .enb_ue_id = f.u32(), .mme_ue_id = f.mme_ue_id()}));
  out.push_back(
      make_pdu(OverloadStart{.level = f.u8(), .window_us = f.u64()}));
  // S11.
  out.push_back(
      make_pdu(CreateSessionRequest{.imsi = f.u64(), .mme_teid = f.teid()}));
  out.push_back(make_pdu(
      CreateSessionResponse{.mme_teid = f.teid(), .sgw_teid = f.teid()}));
  out.push_back(make_pdu(ModifyBearerRequest{
      .sgw_teid = f.teid(), .mme_teid = f.teid(), .enb_id = f.u32()}));
  out.push_back(make_pdu(ModifyBearerResponse{.mme_teid = f.teid()}));
  out.push_back(make_pdu(ReleaseAccessBearersRequest{.sgw_teid = f.teid(),
                                                     .mme_teid = f.teid()}));
  out.push_back(make_pdu(ReleaseAccessBearersResponse{.mme_teid = f.teid()}));
  out.push_back(make_pdu(
      DeleteSessionRequest{.sgw_teid = f.teid(), .mme_teid = f.teid()}));
  out.push_back(make_pdu(DeleteSessionResponse{.mme_teid = f.teid()}));
  out.push_back(make_pdu(DownlinkDataNotification{.mme_teid = f.teid()}));
  out.push_back(make_pdu(DownlinkDataNotificationAck{.sgw_teid = f.teid()}));
  // S6.
  out.push_back(make_pdu(AuthInfoRequest{.imsi = f.u64(), .hop_ref = f.u32()}));
  out.push_back(make_pdu(AuthInfoAnswer{.imsi = f.u64(),
                                        .hop_ref = f.u32(),
                                        .known_subscriber = true,
                                        .rand = f.u64(),
                                        .autn = f.u64(),
                                        .xres = f.u64()}));
  out.push_back(make_pdu(UpdateLocationRequest{
      .imsi = f.u64(), .mme_id = f.u32(), .hop_ref = f.u32()}));
  out.push_back(make_pdu(UpdateLocationAnswer{.imsi = f.u64(),
                                              .ok = true,
                                              .profile_id = f.u32(),
                                              .hop_ref = f.u32()}));
  // Cluster.
  out.push_back(make_pdu(ClusterForward{.origin = f.u32(),
                                        .guti = f.guti(),
                                        .no_offload = true,
                                        .inner = inner()}));
  out.push_back(make_pdu(ClusterReply{.target = f.u32(), .inner = inner()}));
  out.push_back(make_pdu(ReplicaPush{.rec = f.record(), .geo = true}));
  out.push_back(make_pdu(ReplicaAck{
      .guti = f.guti(), .version = f.u32(), .holder_dc = f.u32()}));
  out.push_back(make_pdu(ReplicaDelete{.guti = f.guti()}));
  out.push_back(make_pdu(StateTransfer{.rec = f.record()}));
  out.push_back(make_pdu(StateTransferAck{.guti = f.guti()}));
  out.push_back(make_pdu(LoadReport{.mmp_node = f.u32(),
                                    .cpu_util = f.f64(),
                                    .active_devices = f.u32()}));
  RingUpdate ring{.version = f.u64(), .members = {}};
  for (int i = 0; i < 3; ++i)
    ring.members.push_back({.node = f.u32(), .code = f.u8()});
  out.push_back(make_pdu(std::move(ring)));
  out.push_back(make_pdu(GeoBudgetGossip{.dc_id = f.u32(),
                                         .available_budget = f.f64(),
                                         .cpu_load = f.f64(),
                                         .backlog_sec = f.f64()}));
  out.push_back(make_pdu(GeoForward{.origin = f.u32(),
                                    .home_dc = f.u32(),
                                    .home_mlb = f.u32(),
                                    .guti = f.guti(),
                                    .inner = inner()}));
  out.push_back(make_pdu(
      GeoReject{.guti = f.guti(), .inner = inner(), .origin = f.u32()}));
  out.push_back(
      make_pdu(GeoEvictRequest{.dc_id = f.u32(), .fraction = f.f64()}));
  out.push_back(make_pdu(StateFetch{.guti = f.guti()}));
  out.push_back(make_pdu(
      StateFetchResp{.guti = f.guti(), .found = true, .rec = f.record()}));
  out.push_back(make_pdu(
      TransportData{.seq = f.u64(), .attempt = f.u32(), .inner = inner()}));
  out.push_back(make_pdu(TransportAck{.seq = f.u64()}));
  out.push_back(make_pdu(OverloadReject{.mmp_node = f.u32(),
                                        .origin = f.u32(),
                                        .guti = f.guti(),
                                        .backoff_us = f.u64(),
                                        .procedure = f.u8(),
                                        .level = f.u8(),
                                        .inner = inner()}));
  return out;
}

TEST(Codec, EveryPduMatchesGoldenBytes) {
  // Pinned wire layout of every message: the MD5 of all encodings back to
  // back plus each one's size. Recorded from the per-message hand-written
  // encoders; any field reordered, resized or dropped changes the digest.
  const std::vector<Pdu> pdus = golden_pdus();
  std::vector<std::uint8_t> all;
  std::vector<std::size_t> sizes;
  for (const Pdu& pdu : pdus) {
    SCOPED_TRACE(pdu_name(pdu));
    const auto bytes = encode_pdu(pdu);
    EXPECT_EQ(wire_size(pdu), bytes.size());
    EXPECT_EQ(encode_pdu(decode_pdu(bytes)), bytes);
    all.insert(all.end(), bytes.begin(), bytes.end());
    sizes.push_back(bytes.size());
  }
  const std::vector<std::size_t> golden_sizes = {
      33, 24, 29, 21, 15, 13, 26, 13, 20, 13, 14, 25, 27, 18, 22,
      13, 16, 28, 18, 18, 15, 14, 8,  16, 14, 11, 14, 10, 14, 6,
      10, 6,  10, 6,  6,  6,  14, 39, 18, 19, 43, 33, 83, 19, 11,
      82, 11, 18, 27, 30, 50, 42, 14, 11, 92, 41, 10, 56};
  EXPECT_EQ(sizes, golden_sizes);
  EXPECT_EQ(hash::Md5::hex(hash::Md5::digest(std::span{all})), "9fcb009e205beb13875307011861884a");
}

TEST(Codec, BoxWireSizeMatchesEncodedSize) {
  // PduBox::wire_bytes, sized once when the box is built, is the length its
  // PDU encodes to: for every golden alternative, for envelopes nested four
  // deep (each level's size adds the inner box's memo and its length word),
  // and for an envelope whose inner PDU is absent.
  std::vector<Pdu> pdus = golden_pdus();
  EXPECT_EQ(pdus.size(), 58u);
  ClusterForward fwd;
  fwd.origin = 1;
  fwd.guti = test_guti();
  fwd.inner = box(pdus.front());
  const PduRef fwd_box = box(fwd);
  const PduRef reply_box =
      box(ClusterReply{.target = 2, .inner = fwd_box});
  const PduRef geo_box = box(GeoForward{.origin = 3,
                                        .home_dc = 1,
                                        .home_mlb = 4,
                                        .guti = test_guti(),
                                        .inner = reply_box});
  pdus.push_back(make_pdu(fwd));
  pdus.push_back(make_pdu(ClusterReply{.target = 2, .inner = fwd_box}));
  pdus.push_back(make_pdu(TransportData{.seq = 9, .attempt = 1,
                                        .inner = geo_box}));
  // One box wrapped by two envelopes, as a relay and a retransmit share it.
  pdus.push_back(make_pdu(GeoReject{.guti = test_guti(), .inner = fwd_box}));
  pdus.push_back(make_pdu(OverloadReject{.mmp_node = 5, .backoff_us = 100}));
  for (const Pdu& pdu : pdus) {
    SCOPED_TRACE(pdu_name(pdu));
    const PduRef b = box(pdu);
    EXPECT_EQ(b->wire_bytes, encode_pdu(b->value).size());
    EXPECT_EQ(b->wire_bytes, wire_size(b->value));
  }
}

TEST(Codec, AbsentInnerPduIsAZeroLengthWord) {
  // The MLB takes an OverloadReject without a request as a pure backoff
  // hint; on the wire its absent inner PDU is a zero u32 length.
  const OverloadReject hint{.mmp_node = 5, .backoff_us = 100};
  const auto bytes = encode_pdu(make_pdu(hint));
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.end() - 4, bytes.end()),
            std::vector<std::uint8_t>(4, 0));
  EXPECT_EQ(wire_size(make_pdu(hint)), bytes.size());
  const Pdu back = decode_pdu(bytes);
  const auto& rej = std::get<OverloadReject>(std::get<ClusterMessage>(back));
  EXPECT_EQ(rej.inner, nullptr);
  EXPECT_EQ(rej.backoff_us, 100u);
  EXPECT_EQ(encode_pdu(back), bytes);
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
