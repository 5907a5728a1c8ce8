#include "mme/mme_app.h"

#include "common/logging.h"

namespace scale::mme {

namespace {
/// Modelled per-device state size recorded into every new context.
constexpr std::uint32_t kDefaultStateBytes = 2048;
}  // namespace

using proto::ProcedureType;

MmeApp::MmeApp(sim::Engine& engine, sim::CpuModel& cpu, Config cfg,
               Host& host, NodeId hop_ref, NodeId sgw_node)
    : engine_(engine), cpu_(cpu), cfg_(cfg), hop_ref_(hop_ref),
      sgw_node_(sgw_node), host_(host) {}

proto::Guti MmeApp::allocate_guti() {
  return guti_from_s_tmsi(cfg_.mme_code, next_tmsi_++);
}

proto::Guti MmeApp::guti_from_s_tmsi(std::uint8_t code,
                                     std::uint32_t m_tmsi) const {
  proto::Guti g;
  g.plmn = cfg_.plmn;
  g.mme_group = cfg_.mme_group;
  g.mme_code = code;
  g.m_tmsi = m_tmsi;
  return g;
}

proto::MmeUeId MmeApp::next_mme_ue_id() {
  return proto::MmeUeId::make(cfg_.vm_code, next_ue_seq_++);
}

proto::Teid MmeApp::next_teid() {
  return proto::Teid::make(cfg_.vm_code, next_teid_seq_++);
}

// --------------------------------------------------------------- S1AP ingest

void MmeApp::handle_s1ap(NodeId enb_node, const proto::S1apMessage& msg,
                         const proto::Guti* guti_hint) {
  std::visit(
      [this, enb_node, guti_hint](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::InitialUeMessage>) {
          handle_initial(enb_node, m, guti_hint);
        } else if constexpr (std::is_same_v<T, proto::UplinkNasTransport>) {
          handle_uplink_nas(enb_node, m);
        } else if constexpr (std::is_same_v<T, proto::PathSwitchRequest>) {
          handle_path_switch(enb_node, m);
        } else if constexpr (std::is_same_v<T,
                                            proto::InitialContextSetupResponse> ||
                             std::is_same_v<T,
                                            proto::UeContextReleaseComplete>) {
          // Pure bookkeeping acknowledgements.
        } else {
          SCALE_DEBUG("MME ignoring S1AP message");
        }
      },
      msg);
}

void MmeApp::handle_initial(NodeId enb, const proto::InitialUeMessage& msg,
                            const proto::Guti* guti_hint) {
  // Each branch resolves the existing context (if any) for the admission
  // gate; a veto means the host consumed the request (e.g. an overload
  // redirect).
  if (const auto* a = std::get_if<proto::NasAttachRequest>(&msg.nas)) {
    UeContext* existing =
        a->old_guti ? store_.find(a->old_guti->key()) : nullptr;
    if (existing == nullptr && guti_hint != nullptr)
      existing = store_.find(guti_hint->key());
    if (host_.admit(enb, msg, existing)) start_attach(enb, msg, *a, guti_hint);
  } else if (const auto* s = std::get_if<proto::NasServiceRequest>(&msg.nas)) {
    const std::uint64_t key = guti_from_s_tmsi(s->mme_code, s->m_tmsi).key();
    if (host_.admit(enb, msg, store_.find(key)))
      start_service_request(enb, msg, *s, guti_hint);
  } else if (const auto* t = std::get_if<proto::NasTauRequest>(&msg.nas)) {
    if (host_.admit(enb, msg, store_.find(t->guti.key())))
      start_tau(enb, msg, *t);
  } else if (const auto* d = std::get_if<proto::NasDetachRequest>(&msg.nas)) {
    if (host_.admit(enb, msg, store_.find(d->guti.key())))
      start_detach(enb, msg.enb_ue_id, *d);
  } else if (host_.admit(enb, msg, nullptr)) {
    SCALE_DEBUG("unexpected NAS in InitialUeMessage");
  }
}

// -------------------------------------------------------------------- Attach

void MmeApp::start_attach(NodeId enb, const proto::InitialUeMessage& msg,
                          const proto::NasAttachRequest& nas,
                          const proto::Guti* guti_hint) {
  proto::Guti guti;
  UeContext* ctx = nullptr;
  if (nas.old_guti && (ctx = store_.find(nas.old_guti->key())) != nullptr) {
    guti = *nas.old_guti;  // re-attach onto retained / transferred state
  } else if (guti_hint != nullptr && guti_hint->valid()) {
    guti = *guti_hint;  // SCALE: the MLB assigned/used this GUTI
    ctx = store_.find(guti.key());
  } else if (cfg_.assign_guti_locally) {
    guti = allocate_guti();
  } else {
    send_reject(enb, msg.enb_ue_id, 2);
    return;
  }

  if (ctx == nullptr) {
    proto::UeContextRecord rec;
    rec.imsi = nas.imsi;
    rec.guti = guti;
    rec.tac = msg.tac;
    rec.home_dc = cfg_.home_dc;
    rec.sgw_node = sgw_node_;
    rec.state_bytes = kDefaultStateBytes;
    // Neutral access-probability prior for a brand-new device; the epoch
    // EWMA refines it (§4.5: "SCALE keeps track of the average access
    // frequency of a device... as a moving average").
    rec.access_freq = 0.5;
    ctx = &store_.insert(std::move(rec), ContextRole::kMaster);
  }
  const std::uint64_t key = ctx->key();
  ctx->rec.imsi = nas.imsi;
  ctx->rec.enb_id = msg.enb_id;
  ctx->rec.enb_ue_id = msg.enb_ue_id;
  ctx->rec.tac = msg.tac;
  ctx->rec.mme_ue_id = next_mme_ue_id();
  ctx->serving_mmp = cfg_.vm_code;
  store_.index_mme_ue_id(*ctx);
  touch(*ctx);
  store_.add_epoch_hit(*ctx);

  Txn txn;
  txn.type = ProcedureType::kAttach;
  txn.enb_node = enb;
  txn.enb_ue_id = msg.enb_ue_id;
  // Re-attach with an intact security context skips the HSS round trip —
  // this is what makes adopting transferred state cheaper than a cold
  // attach, while still loading the new MME (Fig. 2(c)).
  txn.skip_auth = ctx->rec.kasme != 0;
  txns_[key] = txn;

  cpu_.execute(cfg_.profile.parse + cfg_.profile.attach_ctx,
               [this, key]() { attach_request_auth(key); });
}

void MmeApp::attach_request_auth(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  const Txn* txn = txns_.find(key);
  if (ctx == nullptr || txn == nullptr) return;
  if (txn->skip_auth) {
    attach_create_session(key);
    return;
  }
  proto::AuthInfoRequest req;
  req.imsi = ctx->rec.imsi;
  req.hop_ref = hop_ref_;
  host_.to_hss(proto::S6Message{req});
}

void MmeApp::handle_s6(const proto::S6Message& msg) {
  const auto* ans = std::get_if<proto::AuthInfoAnswer>(&msg);
  if (ans == nullptr) return;  // UpdateLocationAnswer: bookkeeping only
  UeContext* ctx = store_.find_by_imsi(ans->imsi);
  if (ctx == nullptr) return;
  const std::uint64_t key = ctx->key();
  Txn* txn = txns_.find(key);
  if (txn == nullptr || txn->type != ProcedureType::kAttach) return;
  if (!ans->known_subscriber) {
    cpu_.execute(cfg_.profile.parse, [this, key]() {
      const Txn* t = txns_.find(key);
      UeContext* c = ctx_of(key);
      if (t == nullptr || c == nullptr) return;
      ++counters_.auth_failures;
      send_downlink_nas(*t, *c,
                        proto::NasMessage{proto::NasServiceReject{.cause = 1}});
      txns_.erase(key);
    });
    return;
  }
  txn->xres = ans->xres;
  const std::uint64_t rand = ans->rand;
  const std::uint64_t autn = ans->autn;
  cpu_.execute(cfg_.profile.parse, [this, key, rand, autn]() {
    const Txn* t = txns_.find(key);
    UeContext* c = ctx_of(key);
    if (t == nullptr || c == nullptr) return;
    proto::NasAuthenticationRequest areq;
    areq.rand = rand;
    areq.autn = autn;
    send_downlink_nas(*t, *c, proto::NasMessage{areq});
  });
}

void MmeApp::handle_uplink_nas(NodeId enb,
                               const proto::UplinkNasTransport& msg) {
  if (const auto* d = std::get_if<proto::NasDetachRequest>(&msg.nas)) {
    start_detach(enb, msg.enb_ue_id, *d);
    return;
  }
  UeContext* ctx = store_.find_by_mme_ue_id(msg.mme_ue_id);
  if (ctx == nullptr) return;
  const std::uint64_t key = ctx->key();
  touch(*ctx);

  if (const auto* auth =
          std::get_if<proto::NasAuthenticationResponse>(&msg.nas)) {
    const std::uint64_t res = auth->res;
    cpu_.execute(cfg_.profile.parse + cfg_.profile.auth_check,
                 [this, key, res]() {
                   const Txn* t = txns_.find(key);
                   UeContext* c = ctx_of(key);
                   if (t == nullptr || c == nullptr) return;
                   if (res != t->xres) {
                     ++counters_.auth_failures;
                     send_downlink_nas(
                         *t, *c,
                         proto::NasMessage{proto::NasServiceReject{.cause = 3}});
                     txns_.erase(key);
                     return;
                   }
                   send_downlink_nas(
                       *t, *c,
                       proto::NasMessage{proto::NasSecurityModeCommand{}});
                 });
  } else if (std::holds_alternative<proto::NasSecurityModeComplete>(msg.nas)) {
    cpu_.execute(cfg_.profile.parse + cfg_.profile.security_setup,
                 [this, key]() {
                   UeContext* c = ctx_of(key);
                   const Txn* t = txns_.find(key);
                   if (t == nullptr || c == nullptr) return;
                   c->rec.kasme = t->xres ^ 0x5A5A5A5A5A5A5A5Aull;
                   attach_create_session(key);
                 });
  } else if (std::holds_alternative<proto::NasAttachComplete>(msg.nas)) {
    // Final leg of attach; already accounted.
  } else {
    SCALE_DEBUG("MME ignoring uplink NAS");
  }
}

void MmeApp::attach_create_session(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  if (ctx == nullptr || !txns_.contains(key)) return;
  // Register this MME as the subscriber's serving node (S6a Update
  // Location); the answer is informational and does not gate the attach.
  proto::UpdateLocationRequest ulr;
  ulr.imsi = ctx->rec.imsi;
  ulr.mme_id = cfg_.vm_code;
  ulr.hop_ref = hop_ref_;
  host_.to_hss(proto::S6Message{ulr});

  ctx->rec.mme_teid = next_teid();
  store_.index_teid(*ctx);
  proto::CreateSessionRequest req;
  req.imsi = ctx->rec.imsi;
  req.mme_teid = ctx->rec.mme_teid;
  host_.to_sgw(*ctx, proto::S11Message{req});
}

void MmeApp::attach_finish(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  Txn* txn = txns_.find(key);
  if (ctx == nullptr || txn == nullptr) return;
  // A classic MME brands adopted devices with its own GUTI so the eNodeB
  // routes future requests here (static assignment).
  if (cfg_.assign_guti_locally &&
      ctx->rec.guti.mme_code != cfg_.mme_code) {
    const proto::Guti fresh = allocate_guti();
    const Txn moved_txn = *txn;
    txns_.erase(key);
    ctx = &store_.rekey(key, fresh);
    txn = &(txns_[fresh.key()] = moved_txn);
  }
  const std::uint64_t final_key = ctx->key();
  ctx->rec.active = true;
  ctx->rec.version++;

  proto::NasAttachAccept accept;
  accept.guti = ctx->rec.guti;
  send_downlink_nas(*txn, *ctx, proto::NasMessage{accept});

  proto::InitialContextSetupRequest ics;
  ics.enb_id = txn->enb_node;
  ics.enb_ue_id = txn->enb_ue_id;
  ics.mme_ue_id = ctx->rec.mme_ue_id;
  ics.sgw_teid = ctx->rec.sgw_teid;
  host_.to_enb(txn->enb_node, proto::S1apMessage{ics});

  arm_inactivity(*ctx);
  finish_procedure(final_key, ProcedureType::kAttach);
}

// ---------------------------------------------------------- Service Request

void MmeApp::start_service_request(NodeId enb,
                                   const proto::InitialUeMessage& msg,
                                   const proto::NasServiceRequest& nas,
                                   const proto::Guti* guti_hint) {
  // The forwarding MLB already resolved the full GUTI (authoritative for
  // geo-forwarded requests: a remote VM's pool constants differ from the
  // device's home pool). Reconstruct from the S-TMSI only when unrouted.
  const proto::Guti guti = (guti_hint != nullptr && guti_hint->valid())
                               ? *guti_hint
                               : guti_from_s_tmsi(nas.mme_code, nas.m_tmsi);
  UeContext* ctx = store_.find(guti.key());
  if (ctx == nullptr) {
    cpu_.execute(cfg_.profile.parse, [this, enb, id = msg.enb_ue_id]() {
      send_reject(enb, id, 10);
    });
    return;
  }
  const std::uint64_t key = ctx->key();
  ctx->rec.enb_id = msg.enb_id;
  ctx->rec.enb_ue_id = msg.enb_ue_id;
  ctx->rec.mme_ue_id = next_mme_ue_id();  // serving VM stamps itself (§5)
  ctx->serving_mmp = cfg_.vm_code;
  store_.index_mme_ue_id(*ctx);
  touch(*ctx);
  store_.add_epoch_hit(*ctx);

  Txn txn;
  txn.type = ProcedureType::kServiceRequest;
  txn.enb_node = enb;
  txn.enb_ue_id = msg.enb_ue_id;
  txns_[key] = txn;

  cpu_.execute(cfg_.profile.parse + cfg_.profile.service_restore,
               [this, key]() {
                 UeContext* c = ctx_of(key);
                 if (c == nullptr || !txns_.contains(key)) return;
                 if (!c->rec.sgw_teid.valid()) {
                   // No data session to re-activate (stale state): finish
                   // directly.
                   service_request_finish(key);
                   return;
                 }
                 c->rec.mme_teid = next_teid();  // re-stamp so DDN routes here
                 store_.index_teid(*c);
                 proto::ModifyBearerRequest req;
                 req.sgw_teid = c->rec.sgw_teid;
                 req.mme_teid = c->rec.mme_teid;
                 req.enb_id = c->rec.enb_id;
                 host_.to_sgw(*c, proto::S11Message{req});
               });
}

void MmeApp::service_request_finish(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  const Txn* txn = txns_.find(key);
  if (ctx == nullptr || txn == nullptr) return;
  ctx->rec.active = true;
  ctx->rec.version++;

  proto::InitialContextSetupRequest ics;
  ics.enb_id = txn->enb_node;
  ics.enb_ue_id = txn->enb_ue_id;
  ics.mme_ue_id = ctx->rec.mme_ue_id;
  ics.sgw_teid = ctx->rec.sgw_teid;
  host_.to_enb(txn->enb_node, proto::S1apMessage{ics});
  send_downlink_nas(*txn, *ctx,
                    proto::NasMessage{proto::NasServiceAccept{}});
  arm_inactivity(*ctx);
  finish_procedure(key, ProcedureType::kServiceRequest);
}

// -------------------------------------------------------------------- TAU

void MmeApp::start_tau(NodeId enb, const proto::InitialUeMessage& msg,
                       const proto::NasTauRequest& nas) {
  UeContext* ctx = store_.find(nas.guti.key());
  if (ctx == nullptr) {
    cpu_.execute(cfg_.profile.parse, [this, enb, id = msg.enb_ue_id]() {
      send_reject(enb, id, 9);
    });
    return;
  }
  const std::uint64_t key = ctx->key();
  ctx->rec.mme_ue_id = next_mme_ue_id();
  store_.index_mme_ue_id(*ctx);
  touch(*ctx);
  store_.add_epoch_hit(*ctx);

  Txn txn;
  txn.type = ProcedureType::kTrackingAreaUpdate;
  txn.enb_node = enb;
  txn.enb_ue_id = msg.enb_ue_id;
  txns_[key] = txn;
  const proto::Tac new_tac = msg.tac;

  cpu_.execute(cfg_.profile.parse + cfg_.profile.tau, [this, key, new_tac]() {
    UeContext* c = ctx_of(key);
    const Txn* t = txns_.find(key);
    if (c == nullptr || t == nullptr) return;
    c->rec.tac = new_tac;
    c->rec.version++;
    proto::NasTauAccept accept;
    if (cfg_.assign_guti_locally && c->rec.guti.mme_code != cfg_.mme_code) {
      const proto::Guti fresh = allocate_guti();
      const Txn moved_txn = *t;
      txns_.erase(key);
      c = &store_.rekey(key, fresh);
      t = &(txns_[fresh.key()] = moved_txn);
      accept.new_guti = fresh;
    }
    const std::uint64_t final_key = c->key();
    send_downlink_nas(*t, *c, proto::NasMessage{accept});
    finish_procedure(final_key, ProcedureType::kTrackingAreaUpdate);
  });
}

// ----------------------------------------------------------------- Handover

void MmeApp::handle_path_switch(NodeId enb,
                                const proto::PathSwitchRequest& msg) {
  UeContext* ctx = store_.find_by_mme_ue_id(msg.mme_ue_id);
  if (ctx == nullptr) return;
  const std::uint64_t key = ctx->key();
  touch(*ctx);
  store_.add_epoch_hit(*ctx);

  Txn txn;
  txn.type = ProcedureType::kHandover;
  txn.enb_node = enb;
  txn.enb_ue_id = msg.enb_ue_id;
  txn.old_enb_node = ctx->rec.enb_id;
  txn.old_enb_ue_id = ctx->rec.enb_ue_id;
  txns_[key] = txn;
  const std::uint32_t new_enb_id = msg.new_enb_id;
  const proto::Tac new_tac = msg.tac;

  cpu_.execute(cfg_.profile.parse + cfg_.profile.path_switch,
               [this, key, new_enb_id, new_tac]() {
                 UeContext* c = ctx_of(key);
                 if (c == nullptr || !txns_.contains(key)) return;
                 c->rec.tac = new_tac;
                 if (!c->rec.sgw_teid.valid()) {
                   handover_finish(key, new_enb_id);
                   return;
                 }
                 c->rec.mme_teid = next_teid();
                 store_.index_teid(*c);
                 proto::ModifyBearerRequest req;
                 req.sgw_teid = c->rec.sgw_teid;
                 req.mme_teid = c->rec.mme_teid;
                 req.enb_id = new_enb_id;
                 host_.to_sgw(*c, proto::S11Message{req});
               });
}

void MmeApp::handover_finish(std::uint64_t key, std::uint32_t new_enb_id) {
  UeContext* ctx = ctx_of(key);
  const Txn* t = txns_.find(key);
  if (ctx == nullptr || t == nullptr) return;
  const Txn& txn = *t;

  proto::PathSwitchAck ack;
  ack.enb_id = txn.enb_node;
  ack.enb_ue_id = txn.enb_ue_id;
  ack.mme_ue_id = ctx->rec.mme_ue_id;
  host_.to_enb(txn.enb_node, proto::S1apMessage{ack});

  if (txn.old_enb_node != 0) {
    proto::UeContextReleaseCommand rel;
    rel.enb_id = txn.old_enb_node;
    rel.enb_ue_id = txn.old_enb_ue_id;
    rel.mme_ue_id = ctx->rec.mme_ue_id;
    rel.cause = proto::ReleaseCause::kHandover;
    host_.to_enb(txn.old_enb_node, proto::S1apMessage{rel});
  }

  ctx->rec.enb_id = new_enb_id;
  ctx->rec.enb_ue_id = txn.enb_ue_id;
  ctx->rec.version++;
  arm_inactivity(*ctx);
  finish_procedure(key, ProcedureType::kHandover);
}

// ------------------------------------------------------------------- Detach

void MmeApp::start_detach(NodeId enb, proto::EnbUeId enb_ue_id,
                          const proto::NasDetachRequest& nas) {
  UeContext* ctx = store_.find(nas.guti.key());
  if (ctx == nullptr) {
    // Idempotent: accept the detach of a device we no longer know.
    cpu_.execute(cfg_.profile.parse, [this, enb, enb_ue_id]() {
      proto::DownlinkNasTransport dl;
      dl.enb_id = enb;
      dl.enb_ue_id = enb_ue_id;
      dl.mme_ue_id = proto::MmeUeId::make(cfg_.vm_code, 0);
      dl.nas = proto::NasMessage{proto::NasDetachAccept{}};
      host_.to_enb(enb, proto::S1apMessage{dl});
    });
    return;
  }
  const std::uint64_t key = ctx->key();
  ctx->rec.mme_ue_id = next_mme_ue_id();
  store_.index_mme_ue_id(*ctx);
  touch(*ctx);

  Txn txn;
  txn.type = ProcedureType::kDetach;
  txn.enb_node = enb;
  txn.enb_ue_id = enb_ue_id;
  txns_[key] = txn;

  cpu_.execute(cfg_.profile.parse + cfg_.profile.detach, [this, key]() {
    UeContext* c = ctx_of(key);
    if (c == nullptr || !txns_.contains(key)) return;
    if (!c->rec.sgw_teid.valid()) {
      detach_finish(key);
      return;
    }
    // Re-stamp the sender TEID so the S-GW's response routes back to the
    // VM running this transaction (it may not be the last serving VM).
    c->rec.mme_teid = next_teid();
    store_.index_teid(*c);
    proto::DeleteSessionRequest req;
    req.sgw_teid = c->rec.sgw_teid;
    req.mme_teid = c->rec.mme_teid;
    host_.to_sgw(*c, proto::S11Message{req});
  });
}

void MmeApp::detach_finish(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  const Txn* txn = txns_.find(key);
  if (ctx == nullptr || txn == nullptr) return;
  send_downlink_nas(*txn, *ctx,
                    proto::NasMessage{proto::NasDetachAccept{}});
  host_.before_detach(*ctx);
  ++counters_.procedures[static_cast<int>(ProcedureType::kDetach)];
  txns_.erase(key);
  remove_context(key);
}

// ----------------------------------------------------------------- S11 ingest

void MmeApp::handle_s11(const proto::S11Message& msg) {
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::CreateSessionResponse>) {
          UeContext* ctx = store_.find_by_teid(m.mme_teid);
          if (ctx == nullptr) return;
          const std::uint64_t key = ctx->key();
          const proto::Teid sgw_teid = m.sgw_teid;
          cpu_.execute(cfg_.profile.parse + cfg_.profile.session_mgmt,
                       [this, key, sgw_teid]() {
                         UeContext* c = ctx_of(key);
                         if (c == nullptr || !txns_.contains(key)) return;
                         c->rec.sgw_teid = sgw_teid;
                         attach_finish(key);
                       });
        } else if constexpr (std::is_same_v<T, proto::ModifyBearerResponse>) {
          UeContext* ctx = store_.find_by_teid(m.mme_teid);
          if (ctx == nullptr) return;
          const std::uint64_t key = ctx->key();
          const Txn* txn = txns_.find(key);
          if (txn == nullptr) return;
          if (txn->type == ProcedureType::kServiceRequest) {
            cpu_.execute(cfg_.profile.parse + cfg_.profile.service_finalize,
                         [this, key]() { service_request_finish(key); });
          } else if (txn->type == ProcedureType::kHandover) {
            const std::uint32_t new_enb = txn->enb_node;
            cpu_.execute(cfg_.profile.parse + cfg_.profile.handover_finish,
                         [this, key, new_enb]() {
                           handover_finish(key, new_enb);
                         });
          }
        } else if constexpr (std::is_same_v<T,
                                            proto::ReleaseAccessBearersResponse>) {
          UeContext* ctx = store_.find_by_teid(m.mme_teid);
          if (ctx == nullptr) return;
          const std::uint64_t key = ctx->key();
          cpu_.execute(cfg_.profile.parse, [this, key]() {
            UeContext* c = ctx_of(key);
            if (c != nullptr && c->rec.active) go_idle(*c);
          });
        } else if constexpr (std::is_same_v<T, proto::DeleteSessionResponse>) {
          UeContext* ctx = store_.find_by_teid(m.mme_teid);
          if (ctx == nullptr) return;
          const std::uint64_t key = ctx->key();
          cpu_.execute(cfg_.profile.parse,
                       [this, key]() { detach_finish(key); });
        } else if constexpr (std::is_same_v<T,
                                            proto::DownlinkDataNotification>) {
          UeContext* ctx = store_.find_by_teid(m.mme_teid);
          if (ctx == nullptr) return;
          const std::uint64_t key = ctx->key();
          cpu_.execute(cfg_.profile.paging, [this, key]() {
            UeContext* c = ctx_of(key);
            if (c == nullptr) return;
            proto::DownlinkDataNotificationAck ack;
            ack.sgw_teid = c->rec.sgw_teid;
            host_.to_sgw(*c, proto::S11Message{ack});
            // Under overload pressure the governor stretches the paging
            // fan-out: the S-GW is acked immediately (it would retransmit
            // otherwise) but the radio-side page waits out the deferral.
            const Duration defer = host_.paging_defer();
            if (defer > Duration::zero()) {
              ++counters_.pagings_deferred;
              engine_.after(defer, [this, key]() {
                UeContext* ctx2 = ctx_of(key);
                // Skip the page if the device woke on its own meanwhile.
                if (ctx2 != nullptr && !ctx2->rec.active) page_ue(key);
              });
              return;
            }
            page_ue(key);
          });
        } else {
          SCALE_DEBUG("MME ignoring S11 message");
        }
      },
      msg);
}

void MmeApp::page_ue(std::uint64_t key) {
  UeContext* c = ctx_of(key);
  if (c == nullptr) return;
  proto::Paging page;
  page.m_tmsi = c->rec.guti.m_tmsi;
  page.tac = c->rec.tac;
  for (NodeId enb : host_.paging_enbs(c->rec.tac))
    host_.to_enb(enb, proto::S1apMessage{page});
  ++counters_.pagings_sent;
}

// ----------------------------------------------------- state administration

UeContext* MmeApp::adopt(const proto::UeContextRecord& rec, ContextRole role) {
  const std::uint64_t key = rec.guti.key();
  UeContext* existing = store_.find(key);
  // Duplicate-IMSI guard: a reassignment transfer can race with the same
  // device re-attaching here under a fresh GUTI. The copy a live
  // transaction is running on must win, or the in-flight procedure
  // strands (its HSS answer routes by IMSI). Otherwise the stale duplicate
  // is purged so the subscriber has one context. When the context under
  // this GUTI already holds rec.imsi's index entry, no other context can
  // (the index maps an IMSI to one slot; audit() checks it), so the probe
  // is skipped — the common case of a replica push refreshing its copy.
  if (rec.imsi != 0 &&
      (existing == nullptr || store_.indexed_imsi(*existing) != rec.imsi)) {
    UeContext* same_imsi = store_.find_by_imsi(rec.imsi);
    if (same_imsi != nullptr && same_imsi->rec.guti.key() != key) {
      if (txns_.contains(same_imsi->rec.guti.key())) return same_imsi;
      remove_context(same_imsi->rec.guti.key());
    }
  }
  if (existing != nullptr) {
    if (existing->rec.version > rec.version) return existing;  // stale push
    // Adopted copies are passive: only the VM actively serving the device
    // runs its inactivity timer.
    disarm_inactivity(*existing);
    existing->rec = rec;
    store_.set_role(*existing, role);
    store_.reindex(*existing);
    return existing;
  }
  // insert() indexes IMSI/TEID/UE-id straight from the record.
  return &store_.insert(rec, role);
}

void MmeApp::remove_context(std::uint64_t guti_key) {
  UeContext* ctx = store_.find(guti_key);
  if (ctx == nullptr) return;
  disarm_inactivity(*ctx);
  txns_.erase(guti_key);
  store_.erase(guti_key);
}

// ------------------------------------------------------------------ plumbing

void MmeApp::send_downlink_nas(const Txn& txn, const UeContext& ctx,
                               proto::NasMessage nas) {
  proto::DownlinkNasTransport dl;
  dl.enb_id = txn.enb_node;
  dl.enb_ue_id = txn.enb_ue_id;
  dl.mme_ue_id = ctx.rec.mme_ue_id;
  dl.nas = std::move(nas);
  host_.to_enb(txn.enb_node, proto::S1apMessage{std::move(dl)});
}

void MmeApp::send_reject(NodeId enb, proto::EnbUeId enb_ue_id,
                         std::uint8_t cause) {
  ++counters_.rejects_sent;
  proto::DownlinkNasTransport dl;
  dl.enb_id = enb;
  dl.enb_ue_id = enb_ue_id;
  dl.mme_ue_id = proto::MmeUeId::make(cfg_.vm_code, 0);
  dl.nas = proto::NasMessage{proto::NasServiceReject{.cause = cause}};
  host_.to_enb(enb, proto::S1apMessage{std::move(dl)});
}

void MmeApp::touch(UeContext& ctx) {
  if (ctx.rec.active && store_.timer_armed(ctx)) arm_inactivity(ctx);
}

void MmeApp::arm_inactivity(UeContext& ctx) {
  if (!cfg_.enable_inactivity_timer) return;
  disarm_inactivity(ctx);
  const std::uint64_t key = ctx.key();
  store_.arm_timer(
      ctx, engine_.after(cfg_.profile.inactivity_timeout,
                         [this, key]() { inactivity_fired(key); }));
}

void MmeApp::disarm_inactivity(UeContext& ctx) {
  if (const sim::EventId id = store_.disarm_timer(ctx)) engine_.cancel(id);
}

void MmeApp::inactivity_fired(std::uint64_t key) {
  UeContext* ctx = ctx_of(key);
  if (ctx == nullptr) return;
  store_.disarm_timer(*ctx);  // fired, not cancelled: just clear the cell
  if (!ctx->rec.active || txns_.contains(key)) return;
  cpu_.execute(cfg_.profile.idle_release, [this, key]() {
    UeContext* c = ctx_of(key);
    if (c == nullptr || !c->rec.active) return;
    if (!c->rec.sgw_teid.valid()) {
      go_idle(*c);
      return;
    }
    proto::ReleaseAccessBearersRequest req;
    req.sgw_teid = c->rec.sgw_teid;
    req.mme_teid = c->rec.mme_teid;
    host_.to_sgw(*c, proto::S11Message{req});
  });
}

void MmeApp::go_idle(UeContext& ctx) {
  proto::UeContextReleaseCommand rel;
  rel.enb_id = ctx.rec.enb_id;
  rel.enb_ue_id = ctx.rec.enb_ue_id;
  rel.mme_ue_id = ctx.rec.mme_ue_id;
  rel.cause = proto::ReleaseCause::kUserInactivity;
  host_.to_enb(ctx.rec.enb_id, proto::S1apMessage{rel});
  ctx.rec.active = false;
  ctx.rec.version++;
  ++counters_.idle_transitions;
  host_.on_idle(ctx);
}

void MmeApp::finish_procedure(std::uint64_t key, ProcedureType type) {
  ++counters_.procedures[static_cast<int>(type)];
  txns_.erase(key);
  UeContext* ctx = ctx_of(key);
  if (ctx != nullptr) host_.after_procedure(*ctx, type);
}

}  // namespace scale::mme
