// Direct protocol-level tests of the HSS and S-GW substrate nodes using a
// scripted endpoint instead of a full MME.
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "epc/fabric.h"
#include "epc/hss.h"
#include "epc/sgw.h"
#include "proto/codec.h"

namespace scale::epc {
namespace {

class Probe : public Endpoint {
 public:
  explicit Probe(Fabric& fabric) : Endpoint(fabric) {}

  void receive(NodeId, const proto::PduRef& pdu) override {
    inbox.push_back(pdu->value);
  }

  std::vector<proto::Pdu> inbox;
};

struct World {
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  Hss hss{fabric};
  Sgw sgw{fabric};
  Probe probe{fabric};
};

TEST(Hss, AuthVectorVerifiableByUsim) {
  World w;
  const std::uint64_t key = 0x1234;
  w.hss.provision_subscriber(1001, key);

  proto::AuthInfoRequest req;
  req.imsi = 1001;
  req.hop_ref = 777;
  w.fabric.send(w.probe.node(), w.hss.node(), proto::box(req));
  w.engine.run();

  ASSERT_EQ(w.probe.inbox.size(), 1u);
  const auto& ans = std::get<proto::AuthInfoAnswer>(
      std::get<proto::S6Message>(w.probe.inbox[0]));
  EXPECT_TRUE(ans.known_subscriber);
  EXPECT_EQ(ans.hop_ref, 777u);  // Diameter hop-by-hop echo
  // The USIM computes the same RES from (key, rand) — a real check.
  EXPECT_EQ(Hss::f_res(key, ans.rand), ans.xres);
  EXPECT_NE(Hss::f_res(key ^ 1, ans.rand), ans.xres);
  EXPECT_EQ(w.hss.auth_requests_served(), 1u);
}

TEST(Hss, UnknownSubscriberFlagged) {
  World w;
  proto::AuthInfoRequest req;
  req.imsi = 9999;
  w.fabric.send(w.probe.node(), w.hss.node(), proto::box(req));
  w.engine.run();
  const auto& ans = std::get<proto::AuthInfoAnswer>(
      std::get<proto::S6Message>(w.probe.inbox.at(0)));
  EXPECT_FALSE(ans.known_subscriber);
}

TEST(Hss, UpdateLocationTracksServingMme) {
  World w;
  w.hss.provision_subscriber(5, 1, /*profile_id=*/42);
  proto::UpdateLocationRequest req;
  req.imsi = 5;
  req.mme_id = 33;
  req.hop_ref = 3;
  w.fabric.send(w.probe.node(), w.hss.node(), proto::box(req));
  w.engine.run();
  const auto& ans = std::get<proto::UpdateLocationAnswer>(
      std::get<proto::S6Message>(w.probe.inbox.at(0)));
  EXPECT_TRUE(ans.ok);
  EXPECT_EQ(ans.profile_id, 42u);
  EXPECT_EQ(ans.hop_ref, 3u);
}

TEST(Hss, SubscriberTableMatchesUnorderedMap) {
  // The subscriber table is an epc::FlatMap. A seeded mix of provisioning
  // (new and re-provisioned IMSIs), location updates, auth requests and
  // lookups — dense operator-style IMSIs and sparse 64-bit ones, known and
  // unknown — must answer exactly as a std::unordered_map reference does.
  World w;
  struct Ref {
    std::uint64_t key = 0;
    std::uint32_t profile = 0;
    std::uint32_t serving = 0;
  };
  std::unordered_map<proto::Imsi, Ref> ref;
  std::mt19937_64 rng(2024);
  std::vector<proto::Imsi> imsis;
  for (std::uint64_t i = 0; i < 1500; ++i)
    imsis.push_back(1'010'000'000'000 + i);
  for (int i = 0; i < 500; ++i) imsis.push_back(rng() | 1);
  const auto ask = [&w](auto req) {
    w.probe.inbox.clear();
    w.fabric.send(w.probe.node(), w.hss.node(), proto::box(req));
    w.engine.run();
    EXPECT_EQ(w.probe.inbox.size(), 1u);
    return std::get<proto::S6Message>(w.probe.inbox.at(0));
  };
  for (int op = 0; op < 20'000; ++op) {
    const proto::Imsi imsi = imsis[rng() % imsis.size()];
    const auto it = ref.find(imsi);
    switch (rng() % 4) {
      case 0: {
        const Ref r{rng(), static_cast<std::uint32_t>(rng() % 8 + 1), 0};
        w.hss.provision_subscriber(imsi, r.key, r.profile);
        ref[imsi] = r;
        break;
      }
      case 1: {
        const auto mme = static_cast<std::uint32_t>(rng() % 100 + 1);
        const auto ans = std::get<proto::UpdateLocationAnswer>(ask(
            proto::UpdateLocationRequest{.imsi = imsi, .mme_id = mme}));
        ASSERT_EQ(ans.ok, it != ref.end()) << imsi;
        if (it != ref.end()) {
          EXPECT_EQ(ans.profile_id, it->second.profile);
          it->second.serving = mme;
        }
        break;
      }
      case 2: {
        const auto ans = std::get<proto::AuthInfoAnswer>(
            ask(proto::AuthInfoRequest{.imsi = imsi}));
        ASSERT_EQ(ans.known_subscriber, it != ref.end()) << imsi;
        if (it != ref.end())
          EXPECT_EQ(ans.xres, Hss::f_res(it->second.key, ans.rand));
        break;
      }
      default:
        EXPECT_EQ(w.hss.serving_mme_of(imsi),
                  it == ref.end() ? 0u : it->second.serving);
    }
  }
  for (const proto::Imsi imsi : imsis) {
    const auto it = ref.find(imsi);
    EXPECT_EQ(w.hss.serving_mme_of(imsi),
              it == ref.end() ? 0u : it->second.serving);
  }
}

TEST(Sgw, SessionLifecycle) {
  World w;
  // Create.
  proto::CreateSessionRequest create;
  create.imsi = 7;
  create.mme_teid = proto::Teid::make(1, 5);
  w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(create));
  w.engine.run();
  ASSERT_EQ(w.probe.inbox.size(), 1u);
  const auto resp = std::get<proto::CreateSessionResponse>(
      std::get<proto::S11Message>(w.probe.inbox[0]));
  EXPECT_EQ(resp.mme_teid, create.mme_teid);
  EXPECT_TRUE(resp.sgw_teid.valid());
  EXPECT_EQ(w.sgw.session_count(), 1u);
  EXPECT_EQ(w.sgw.teid_for(7), resp.sgw_teid);

  // Modify (activates bearer).
  proto::ModifyBearerRequest modify;
  modify.sgw_teid = resp.sgw_teid;
  modify.mme_teid = create.mme_teid;
  modify.enb_id = 12;
  w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(modify));
  w.engine.run();
  EXPECT_EQ(w.probe.inbox.size(), 2u);

  // Downlink data with active bearer: delivered, no DDN.
  EXPECT_TRUE(w.sgw.inject_downlink_data(resp.sgw_teid));
  w.engine.run();
  EXPECT_EQ(w.sgw.ddn_sent(), 0u);

  // Release, then downlink data must trigger a DDN to the control node.
  proto::ReleaseAccessBearersRequest release;
  release.sgw_teid = resp.sgw_teid;
  release.mme_teid = create.mme_teid;
  w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(release));
  w.engine.run();
  EXPECT_TRUE(w.sgw.inject_downlink_data(resp.sgw_teid));
  w.engine.run();
  EXPECT_EQ(w.sgw.ddn_sent(), 1u);
  const auto& ddn = std::get<proto::DownlinkDataNotification>(
      std::get<proto::S11Message>(w.probe.inbox.back()));
  EXPECT_EQ(ddn.mme_teid, create.mme_teid);

  // Delete.
  proto::DeleteSessionRequest del;
  del.sgw_teid = resp.sgw_teid;
  del.mme_teid = create.mme_teid;
  w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(del));
  w.engine.run();
  EXPECT_EQ(w.sgw.session_count(), 0u);
  EXPECT_FALSE(w.sgw.teid_for(7).valid());
}

// teid_for answers with the IMSI's highest live TEID. Deleting the older of
// two live sessions leaves the newer one visible; deleting the newer one
// falls back to the older.
TEST(Sgw, TeidForIsHighestLiveSession) {
  const auto create = [](World& w) {
    proto::CreateSessionRequest req;
    req.imsi = 7;
    req.mme_teid = proto::Teid::make(1, 5);
    w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(req));
    w.engine.run();
    return std::get<proto::CreateSessionResponse>(
               std::get<proto::S11Message>(w.probe.inbox.back()))
        .sgw_teid;
  };
  const auto remove = [](World& w, proto::Teid sgw_teid) {
    proto::DeleteSessionRequest del;
    del.sgw_teid = sgw_teid;
    w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(del));
    w.engine.run();
  };

  World older_first;
  const proto::Teid a = create(older_first);
  const proto::Teid b = create(older_first);
  ASSERT_GT(b.raw, a.raw);
  EXPECT_EQ(older_first.sgw.teid_for(7), b);
  remove(older_first, a);
  EXPECT_EQ(older_first.sgw.session_count(), 1u);
  EXPECT_EQ(older_first.sgw.teid_for(7), b);
  remove(older_first, b);
  EXPECT_FALSE(older_first.sgw.teid_for(7).valid());

  World newer_first;
  const proto::Teid c = create(newer_first);
  const proto::Teid d = create(newer_first);
  remove(newer_first, d);
  EXPECT_EQ(newer_first.sgw.teid_for(7), c);
  EXPECT_FALSE(newer_first.sgw.teid_for(8).valid());
}

TEST(Sgw, DownlinkDataForUnknownSessionReturnsFalse) {
  World w;
  EXPECT_FALSE(w.sgw.inject_downlink_data(proto::Teid{999}));
}

TEST(Fabric, DeliveryDelayAndAccounting) {
  World w;
  w.network.set_latency(w.probe.node(), w.sgw.node(), Duration::ms(5.0));
  proto::CreateSessionRequest create;
  create.imsi = 1;
  create.mme_teid = proto::Teid::make(1, 1);
  w.fabric.send(w.probe.node(), w.sgw.node(), proto::box(create));
  EXPECT_EQ(w.sgw.session_count(), 0u);  // not delivered yet
  w.engine.run_until(Time::from_us(4000));
  EXPECT_EQ(w.sgw.session_count(), 0u);
  w.engine.run();
  EXPECT_EQ(w.sgw.session_count(), 1u);
  EXPECT_GE(w.network.messages_sent(), 1u);
  EXPECT_GT(w.network.bytes_sent(), 0u);
}

TEST(Fabric, SendToDepartedNodeIsCountedDrop) {
  World w;
  NodeId departed;
  {
    Probe temp(w.fabric);
    departed = temp.node();
  }  // unregistered here
  w.fabric.send(w.probe.node(), departed,
                proto::box(proto::Paging{1, 1}));
  w.engine.run();
  EXPECT_EQ(w.fabric.dropped(), 1u);
}

}  // namespace
}  // namespace scale::epc
