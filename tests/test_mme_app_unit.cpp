// MmeApp driven directly through its MmeApp::Host — no fabric, no UE, no
// eNodeB: pins the exact message sequence each procedure FSM emits and when
// each host callback fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mme/mme_app.h"
#include "proto/codec.h"

namespace scale::mme {
namespace {

/// The host: records every send, pages two eNodeBs, and logs each policy
/// callback; the admission verdict and the paging deferral are settable.
struct Harness final : MmeApp::Host {
  sim::Engine engine;
  sim::CpuModel cpu{engine};
  std::vector<std::string> outbox;  // "iface:MessageName"
  std::vector<proto::S1apMessage> to_enb_msgs;
  std::vector<proto::S11Message> to_sgw_msgs;
  std::vector<proto::S6Message> to_hss_msgs;
  std::vector<std::string> callbacks;  // "admit", "done:<procedure>", ...
  bool admitting = true;
  Duration defer = Duration::zero();
  std::unique_ptr<MmeApp> app;

  /// engine.run() drains to empty; unless `inactivity` is set the 5 s
  /// inactivity timer is off, so it stays out of the step-by-step sequences.
  explicit Harness(MmeApp::Config cfg = {}, bool inactivity = false) {
    cfg.enable_inactivity_timer = inactivity;
    app = std::make_unique<MmeApp>(engine, cpu, cfg, *this, /*hop_ref=*/42,
                                   /*sgw_node=*/0);
  }

  void to_enb(sim::NodeId, proto::S1apMessage m) override {
    outbox.push_back(std::string("s1ap:") + proto::s1ap_name(m));
    to_enb_msgs.push_back(std::move(m));
  }
  void to_sgw(const UeContext&, proto::S11Message m) override {
    outbox.push_back(std::string("s11:") + proto::s11_name(m));
    to_sgw_msgs.push_back(std::move(m));
  }
  void to_hss(proto::S6Message m) override {
    outbox.push_back(std::string("s6:") + proto::s6_name(m));
    to_hss_msgs.push_back(std::move(m));
  }
  std::vector<sim::NodeId> paging_enbs(proto::Tac) const override {
    return {501, 502};
  }
  Duration paging_defer() const override { return defer; }
  bool admit(sim::NodeId, const proto::InitialUeMessage&,
             UeContext*) override {
    callbacks.emplace_back("admit");
    return admitting;
  }
  void after_procedure(UeContext&, proto::ProcedureType type) override {
    callbacks.push_back(std::string("done:") + proto::procedure_name(type));
  }
  void on_idle(UeContext& ctx) override {
    callbacks.push_back(ctx.rec.active ? "idle:active" : "idle");
  }
  void before_detach(UeContext& ctx) override {
    callbacks.push_back(app->store().contains(ctx.key()) ? "detach:held"
                                                         : "detach:gone");
  }

  void s1ap(const proto::S1apMessage& m) {
    app->handle_s1ap(/*enb=*/500, m);
    engine.run();
  }
  void s11(const proto::S11Message& m) {
    app->handle_s11(m);
    engine.run();
  }
  void s6(const proto::S6Message& m) {
    app->handle_s6(m);
    engine.run();
  }

  proto::InitialUeMessage initial(proto::NasMessage nas) {
    proto::InitialUeMessage msg;
    msg.enb_id = 500;
    msg.enb_ue_id = 71;
    msg.tac = 9;
    msg.nas = std::move(nas);
    return msg;
  }
};

TEST(MmeAppUnit, ColdAttachEmitsExactSequence) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 12345;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  // Step 1: EPS-AKA vector request.
  ASSERT_EQ(h.outbox, (std::vector<std::string>{"s6:AuthInfoRequest"}));
  EXPECT_EQ(std::get<proto::AuthInfoRequest>(h.to_hss_msgs[0]).hop_ref, 42u);

  proto::AuthInfoAnswer ans;
  ans.imsi = 12345;
  ans.rand = 7;
  ans.autn = 8;
  ans.xres = 0xFEED;
  h.s6(proto::S6Message{ans});
  ASSERT_EQ(h.outbox.back(), "s1ap:DownlinkNasTransport");
  // Copy (not reference): to_enb grows on later steps and may reallocate.
  const auto dl = std::get<proto::DownlinkNasTransport>(h.to_enb_msgs.back());
  ASSERT_TRUE(
      std::holds_alternative<proto::NasAuthenticationRequest>(dl.nas));

  proto::UplinkNasTransport auth_resp;
  auth_resp.enb_ue_id = 71;
  auth_resp.mme_ue_id = dl.mme_ue_id;
  auth_resp.nas =
      proto::NasMessage{proto::NasAuthenticationResponse{0xFEED}};
  h.s1ap(proto::S1apMessage{auth_resp});
  ASSERT_TRUE(std::holds_alternative<proto::NasSecurityModeCommand>(
      std::get<proto::DownlinkNasTransport>(h.to_enb_msgs.back()).nas));

  proto::UplinkNasTransport smc;
  smc.enb_ue_id = 71;
  smc.mme_ue_id = dl.mme_ue_id;
  smc.nas = proto::NasMessage{proto::NasSecurityModeComplete{}};
  h.s1ap(proto::S1apMessage{smc});
  // Update Location + Create Session follow the security establishment.
  ASSERT_GE(h.outbox.size(), 2u);
  EXPECT_EQ(h.outbox[h.outbox.size() - 2], "s6:UpdateLocationRequest");
  EXPECT_EQ(h.outbox.back(), "s11:CreateSessionRequest");

  proto::CreateSessionResponse csr;
  csr.mme_teid = std::get<proto::CreateSessionRequest>(h.to_sgw_msgs.back())
                     .mme_teid;
  csr.sgw_teid = proto::Teid{99};
  h.s11(proto::S11Message{csr});

  // Accept + radio context setup close the procedure.
  const auto n = h.outbox.size();
  ASSERT_GE(n, 2u);
  EXPECT_EQ(h.outbox[n - 2], "s1ap:DownlinkNasTransport");
  EXPECT_EQ(h.outbox[n - 1], "s1ap:InitialContextSetupRequest");
  const auto& accept_dl = std::get<proto::DownlinkNasTransport>(
      h.to_enb_msgs[h.to_enb_msgs.size() - 2]);
  ASSERT_TRUE(std::holds_alternative<proto::NasAttachAccept>(accept_dl.nas));
  EXPECT_EQ(
      h.app->counters().procedures[static_cast<int>(
          proto::ProcedureType::kAttach)],
      1u);
  // The context is fully indexed and active.
  auto* ctx = h.app->store().find_by_imsi(12345);
  ASSERT_NE(ctx, nullptr);
  EXPECT_TRUE(ctx->rec.active);
  EXPECT_EQ(ctx->rec.sgw_teid, proto::Teid{99});
}

TEST(MmeAppUnit, WrongResRejectsAndAbortsTransaction) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 777;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  proto::AuthInfoAnswer ans;
  ans.imsi = 777;
  ans.xres = 1111;
  h.s6(proto::S6Message{ans});
  const auto mme_ue_id =
      std::get<proto::DownlinkNasTransport>(h.to_enb_msgs.back()).mme_ue_id;

  proto::UplinkNasTransport bad;
  bad.enb_ue_id = 71;
  bad.mme_ue_id = mme_ue_id;
  bad.nas = proto::NasMessage{proto::NasAuthenticationResponse{2222}};
  h.s1ap(proto::S1apMessage{bad});

  EXPECT_EQ(h.app->counters().auth_failures, 1u);
  ASSERT_TRUE(std::holds_alternative<proto::NasServiceReject>(
      std::get<proto::DownlinkNasTransport>(h.to_enb_msgs.back()).nas));
  EXPECT_FALSE(h.app->has_transaction(
      h.app->store().find_by_imsi(777)->rec.guti.key()));
  // No session was ever created.
  EXPECT_TRUE(h.to_sgw_msgs.empty());
}

TEST(MmeAppUnit, DownlinkDataNotificationPagesWholeTrackingArea) {
  Harness h;
  // Install a registered idle context directly.
  proto::UeContextRecord rec;
  rec.imsi = 31337;
  rec.guti = proto::Guti{1, 1, 1, 555};
  rec.tac = 9;
  rec.mme_teid = proto::Teid::make(1, 77);
  rec.sgw_teid = proto::Teid{88};
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::DownlinkDataNotification ddn;
  ddn.mme_teid = proto::Teid::make(1, 77);
  h.s11(proto::S11Message{ddn});

  // Ack to the S-GW plus one Paging per eNodeB in the TA (hook returns 2).
  EXPECT_EQ(h.outbox, (std::vector<std::string>{
                          "s11:DownlinkDataNotificationAck", "s1ap:Paging",
                          "s1ap:Paging"}));
  EXPECT_EQ(std::get<proto::Paging>(h.to_enb_msgs[0]).m_tmsi, 555u);
  EXPECT_EQ(h.app->counters().pagings_sent, 1u);
}

TEST(MmeAppUnit, TauRebrandsForeignGuti) {
  MmeApp::Config cfg;
  cfg.mme_code = 5;  // this MME's identity
  Harness h(cfg);
  // A context transferred from MME code 2 (reassignment).
  proto::UeContextRecord rec;
  rec.imsi = 999;
  rec.guti = proto::Guti{1, 1, /*code=*/2, 10};
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::NasTauRequest tau;
  tau.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{tau})});

  const auto& dl = std::get<proto::DownlinkNasTransport>(h.to_enb_msgs.back());
  const auto& accept = std::get<proto::NasTauAccept>(dl.nas);
  ASSERT_TRUE(accept.new_guti.has_value());
  EXPECT_EQ(accept.new_guti->mme_code, 5)
      << "an adopting MME must re-brand the GUTI so the eNodeB routes here";
  EXPECT_EQ(h.app->store().find_by_imsi(999)->rec.guti.mme_code, 5);
}

TEST(MmeAppUnit, CpuCostsChargedPerStep) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 1;
  const Duration before = h.cpu.cumulative_busy();
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  const Duration after = h.cpu.cumulative_busy();
  // First step = parse + attach_ctx from the default profile.
  const ServiceProfile profile;
  EXPECT_EQ(after - before, profile.parse + profile.attach_ctx);
}

TEST(MmeAppUnit, ServiceRequestForValidContextSkipsHss) {
  Harness h;
  proto::UeContextRecord rec;
  rec.imsi = 55;
  rec.guti = proto::Guti{1, 1, 1, 20};
  rec.sgw_teid = proto::Teid{66};
  rec.kasme = 0xABC;
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::NasServiceRequest sr;
  sr.mme_code = 1;
  sr.m_tmsi = 20;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{sr})});
  // Straight to bearer re-activation: no HSS traffic at all.
  EXPECT_EQ(h.outbox, (std::vector<std::string>{"s11:ModifyBearerRequest"}));
}

// ------------------------------------------------------ host callbacks

/// A registered Idle device with a security context and, if `session`, a
/// data session at the S-GW.
proto::UeContextRecord idle_device(std::uint32_t m_tmsi, bool session) {
  proto::UeContextRecord rec;
  rec.imsi = 1000 + m_tmsi;
  rec.guti = proto::Guti{1, 1, 1, m_tmsi};
  rec.tac = 9;
  rec.kasme = 0xABC;
  rec.mme_teid = proto::Teid::make(1, 500 + m_tmsi);
  if (session) rec.sgw_teid = proto::Teid{88};
  return rec;
}

proto::S1apMessage service_request(Harness& h, std::uint32_t m_tmsi) {
  proto::NasServiceRequest sr;
  sr.mme_code = 1;
  sr.m_tmsi = m_tmsi;
  return proto::S1apMessage{h.initial(proto::NasMessage{sr})};
}

/// The MME TEID of the last S11 request sent, as its response echoes it.
proto::Teid last_mme_teid(const Harness& h) {
  return std::visit(
      [](const auto& m) -> proto::Teid {
        if constexpr (requires { m.mme_teid; })
          return m.mme_teid;
        else
          return proto::Teid{};
      },
      h.to_sgw_msgs.back());
}

TEST(MmeAppUnit, AdmitVetoConsumesInitialUeMessage) {
  Harness h;
  h.admitting = false;
  proto::NasAttachRequest attach;
  attach.imsi = 12345;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  EXPECT_EQ(h.callbacks, (std::vector<std::string>{"admit"}));
  EXPECT_TRUE(h.outbox.empty()) << "a vetoed attach sends no S6 and no reject";
  EXPECT_TRUE(h.to_hss_msgs.empty());
  EXPECT_EQ(h.app->store().size(), 0u);
  EXPECT_EQ(h.app->in_flight(), 0u);
  EXPECT_EQ(h.cpu.cumulative_busy(), Duration::zero());
}

TEST(MmeAppUnit, AfterProcedureFiresOncePerProcedureButNeverForDetach) {
  Harness h;
  const proto::UeContextRecord rec = idle_device(30, /*session=*/true);
  h.app->adopt(rec, epc::ContextRole::kMaster);

  // Attach onto retained state with a security context (no HSS round trip).
  proto::NasAttachRequest attach;
  attach.imsi = rec.imsi;
  attach.old_guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  ASSERT_EQ(h.outbox.back(), "s11:CreateSessionRequest");
  proto::CreateSessionResponse csr;
  csr.mme_teid = last_mme_teid(h);
  csr.sgw_teid = proto::Teid{88};
  h.s11(proto::S11Message{csr});

  h.s1ap(service_request(h, 30));
  ASSERT_EQ(h.outbox.back(), "s11:ModifyBearerRequest");
  h.s11(proto::S11Message{proto::ModifyBearerResponse{last_mme_teid(h)}});

  proto::NasTauRequest tau;
  tau.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{tau})});

  proto::PathSwitchRequest ps;
  ps.new_enb_id = 600;
  ps.enb_ue_id = 72;
  ps.mme_ue_id = h.app->store().find(rec.guti.key())->rec.mme_ue_id;
  ps.tac = 9;
  h.s1ap(proto::S1apMessage{ps});
  ASSERT_EQ(h.outbox.back(), "s11:ModifyBearerRequest");
  h.s11(proto::S11Message{proto::ModifyBearerResponse{last_mme_teid(h)}});

  proto::NasDetachRequest detach;
  detach.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{detach})});
  ASSERT_EQ(h.outbox.back(), "s11:DeleteSessionRequest");
  h.s11(proto::S11Message{proto::DeleteSessionResponse{last_mme_teid(h)}});

  EXPECT_EQ(h.callbacks,
            (std::vector<std::string>{"admit", "done:attach", "admit",
                                      "done:service_request", "admit",
                                      "done:tau", "done:handover", "admit",
                                      "detach:held"}));
  for (const proto::ProcedureType p : proto::kAllProcedures) {
    const bool ran = p != proto::ProcedureType::kPaging;
    EXPECT_EQ(h.app->counters().procedures[static_cast<int>(p)], ran ? 1u : 0u)
        << proto::procedure_name(p);
  }
  EXPECT_FALSE(h.app->store().contains(rec.guti.key()));
}

TEST(MmeAppUnit, OnIdleFiresOnBothIdlePaths) {
  Harness h({}, /*inactivity=*/true);
  // No session: the inactivity release is MME-local.
  h.app->adopt(idle_device(40, /*session=*/false), epc::ContextRole::kMaster);
  h.s1ap(service_request(h, 40));
  EXPECT_EQ(h.callbacks, (std::vector<std::string>{
                             "admit", "done:service_request", "idle"}));
  EXPECT_EQ(h.outbox.back(), "s1ap:UeContextReleaseCommand");
  EXPECT_EQ(h.app->counters().idle_transitions, 1u);

  // With a session the S-GW releases the access bearers first, and the
  // device goes Idle on its answer.
  h.callbacks.clear();
  h.app->adopt(idle_device(41, /*session=*/true), epc::ContextRole::kMaster);
  h.s1ap(service_request(h, 41));
  h.s11(proto::S11Message{proto::ModifyBearerResponse{last_mme_teid(h)}});
  ASSERT_EQ(h.outbox.back(), "s11:ReleaseAccessBearersRequest");
  EXPECT_EQ(h.callbacks,
            (std::vector<std::string>{"admit", "done:service_request"}));
  h.s11(proto::S11Message{
      proto::ReleaseAccessBearersResponse{last_mme_teid(h)}});
  EXPECT_EQ(h.callbacks, (std::vector<std::string>{
                             "admit", "done:service_request", "idle"}));
  EXPECT_EQ(h.outbox.back(), "s1ap:UeContextReleaseCommand");
  EXPECT_EQ(h.app->counters().idle_transitions, 2u);
}

TEST(MmeAppUnit, BeforeDetachSeesTheContextStillStored) {
  Harness h;
  const proto::UeContextRecord rec = idle_device(45, /*session=*/false);
  h.app->adopt(rec, epc::ContextRole::kMaster);
  proto::NasDetachRequest detach;
  detach.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{detach})});
  EXPECT_EQ(h.callbacks, (std::vector<std::string>{"admit", "detach:held"}));
  EXPECT_FALSE(h.app->store().contains(rec.guti.key()));
  EXPECT_EQ(h.app->counters().procedures[static_cast<int>(
                proto::ProcedureType::kDetach)],
            1u);
}

TEST(MmeAppUnit, PagingDeferDelaysTheFanOut) {
  Harness h;
  h.defer = Duration::ms(50.0);
  const proto::UeContextRecord rec = idle_device(50, /*session=*/true);
  h.app->adopt(rec, epc::ContextRole::kMaster);
  h.app->handle_s11(
      proto::S11Message{proto::DownlinkDataNotification{rec.mme_teid}});
  h.engine.run_until(Time::from_sec(0.040));
  // The S-GW is acked at once; the radio-side page waits out the deferral.
  EXPECT_EQ(h.outbox,
            (std::vector<std::string>{"s11:DownlinkDataNotificationAck"}));
  EXPECT_EQ(h.app->counters().pagings_deferred, 1u);
  EXPECT_EQ(h.app->counters().pagings_sent, 0u);
  h.engine.run();
  EXPECT_EQ(h.outbox, (std::vector<std::string>{
                          "s11:DownlinkDataNotificationAck", "s1ap:Paging",
                          "s1ap:Paging"}));
  EXPECT_EQ(h.app->counters().pagings_sent, 1u);
  EXPECT_GE(h.engine.now(), Time::zero() + h.defer);
}

TEST(MmeAppUnit, DeferredPageSkippedOnceTheDeviceIsActive) {
  Harness h;
  h.defer = Duration::ms(50.0);
  const proto::UeContextRecord rec = idle_device(51, /*session=*/true);
  h.app->adopt(rec, epc::ContextRole::kMaster);
  h.app->handle_s11(
      proto::S11Message{proto::DownlinkDataNotification{rec.mme_teid}});
  // The device wakes on its own before the deferral elapses.
  h.app->handle_s1ap(500, service_request(h, 51));
  h.engine.run_until(Time::from_sec(0.010));
  ASSERT_EQ(h.outbox.back(), "s11:ModifyBearerRequest");
  h.app->handle_s11(
      proto::S11Message{proto::ModifyBearerResponse{last_mme_teid(h)}});
  h.engine.run_until(Time::from_sec(0.020));
  ASSERT_TRUE(h.app->store().find(rec.guti.key())->rec.active);
  h.engine.run();
  EXPECT_EQ(h.app->counters().pagings_deferred, 1u);
  EXPECT_EQ(h.app->counters().pagings_sent, 0u);
  EXPECT_EQ(std::count(h.outbox.begin(), h.outbox.end(), "s1ap:Paging"), 0);
}

// --- adopt(): replica apply and the duplicate-IMSI guard. A subscriber can
// briefly hold two contexts here: a pushed/transferred copy under its old
// GUTI and a fresh one from re-attaching under a new GUTI. adopt() must
// leave one context per subscriber, unless a live transaction runs on the
// other copy — then that copy wins.

TEST(MmeAppUnit, AdoptRefreshesACopyThatHoldsItsImsi) {
  Harness h;
  auto& store = h.app->store();
  proto::UeContextRecord rec = idle_device(50, /*session=*/false);
  UeContext* first = h.app->adopt(rec, epc::ContextRole::kReplica);
  rec.version = 3;
  rec.tac = 11;
  UeContext* second = h.app->adopt(rec, epc::ContextRole::kMaster);
  EXPECT_EQ(second, first);
  EXPECT_EQ(second->rec.version, 3u);
  EXPECT_EQ(second->rec.tac, 11u);
  EXPECT_EQ(second->role, epc::ContextRole::kMaster);
  EXPECT_EQ(store.find_by_imsi(rec.imsi), second);
  EXPECT_EQ(store.size(), 1u);
  store.audit();
}

TEST(MmeAppUnit, AdoptPurgesAStaleDuplicateUnderAnotherGuti) {
  Harness h;
  auto& store = h.app->store();
  proto::UeContextRecord pushed = idle_device(50, /*session=*/false);
  h.app->adopt(pushed, epc::ContextRole::kMaster);
  // The same subscriber under another GUTI takes over the IMSI index entry
  // (as a re-attach's insert does), with no transaction left running on it.
  proto::UeContextRecord other = idle_device(51, /*session=*/false);
  other.imsi = pushed.imsi;
  store.insert(other, epc::ContextRole::kMaster);
  ASSERT_EQ(store.find_by_imsi(pushed.imsi)->key(), other.guti.key());
  // A newer push for the first GUTI: its context exists but no longer
  // holds the IMSI entry, so the guard must look, and purge the other copy.
  pushed.version = 5;
  UeContext* got = h.app->adopt(pushed, epc::ContextRole::kMaster);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->key(), pushed.guti.key());
  EXPECT_EQ(got->rec.version, 5u);
  EXPECT_FALSE(store.contains(other.guti.key()));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find_by_imsi(pushed.imsi), got);
  store.audit();
}

TEST(MmeAppUnit, AdoptYieldsToALiveTransactionOnTheDuplicate) {
  Harness h;
  auto& store = h.app->store();
  proto::UeContextRecord pushed = idle_device(50, /*session=*/false);
  pushed.kasme = 0;  // no security context: the re-attach waits on the HSS
  h.app->adopt(pushed, epc::ContextRole::kMaster);
  proto::NasAttachRequest attach;
  attach.imsi = pushed.imsi;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  UeContext* fresh = store.find_by_imsi(pushed.imsi);
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(fresh->key(), pushed.guti.key());
  ASSERT_TRUE(h.app->has_transaction(fresh->key()));
  // The pushed copy still carries the IMSI in its record, but the index
  // entry is the attach's: the attach must keep running on its copy.
  const std::uint64_t version_before =
      store.find(pushed.guti.key())->rec.version;
  pushed.version = version_before + 1;
  EXPECT_EQ(h.app->adopt(pushed, epc::ContextRole::kMaster), fresh);
  EXPECT_EQ(store.find(pushed.guti.key())->rec.version, version_before);
  EXPECT_TRUE(h.app->has_transaction(fresh->key()));
  EXPECT_EQ(store.size(), 2u);
  store.audit();
}

}  // namespace
}  // namespace scale::mme
