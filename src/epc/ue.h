// UE (device) behaviour model.
//
// Implements the device side of every §2 procedure: EMM registration state,
// ECM Idle/Active transitions, the USIM side of EPS-AKA (computes RES from
// the same secret key the HSS holds), GUTI handling, camping for paging,
// and the redirect dance when a 3GPP MME sheds load (§3.1-2).
//
// Procedure latency is measured here — from trigger to the final accept the
// device observes — which is exactly the "end-to-end delay of the control-
// plane requests as perceived by the devices" metric of §5.1. A guard timer
// reports procedures that never complete (e.g. request dropped at a
// de-provisioned VM) instead of hanging the statistics.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/check.h"
#include "common/time.h"
#include "epc/enodeb.h"
#include "proto/nas.h"
#include "sim/engine.h"

namespace scale::epc {

enum class EmmState : std::uint8_t { kDeregistered, kRegistered };
enum class EcmState : std::uint8_t { kIdle, kConnected };

class Ue {
 public:
  struct Config {
    proto::Imsi imsi = 0;
    std::uint64_t secret_key = 0;  ///< K, shared with the HSS
    double access_freq = 0.1;      ///< wᵢ ground truth used by workloads
    Duration guard_timeout = Duration::sec(30);
  };

  /// (ue, procedure, trigger→accept delay)
  using CompletionSink =
      std::function<void(Ue&, proto::ProcedureType, Duration)>;
  /// (ue, procedure) — guard timeout or reject.
  using FailureSink = std::function<void(Ue&, proto::ProcedureType)>;

  Ue(sim::Engine& engine, EnodeB* serving, Config cfg);
  ~Ue();

  Ue(const Ue&) = delete;
  Ue& operator=(const Ue&) = delete;

  // --- identity & state ------------------------------------------------
  proto::Imsi imsi() const { return cfg_.imsi; }
  std::uint64_t secret_key() const { return cfg_.secret_key; }
  const std::optional<proto::Guti>& guti() const { return guti_; }
  // lint: unreached(ROADMAP item 9's cross-architecture oracle reads it)
  EmmState emm_state() const { return emm_; }
  // lint: unreached(ROADMAP item 9's cross-architecture oracle reads it)
  EcmState ecm_state() const { return ecm_; }
  bool registered() const { return emm_ == EmmState::kRegistered; }
  bool connected() const { return ecm_ == EcmState::kConnected; }
  bool busy() const { return pending_.has_value(); }
  EnodeB* serving_enb() { return enb_; }

  void set_completion_sink(CompletionSink sink) { on_complete_ = std::move(sink); }
  void set_failure_sink(FailureSink sink) { on_failure_ = std::move(sink); }

  // --- procedure triggers (workload API) -------------------------------
  /// Returns false when the UE state forbids the procedure (already busy,
  /// not registered, ...). All procedures are asynchronous; completion is
  /// reported through the sinks.
  bool attach();
  bool service_request();
  bool tracking_area_update();
  bool handover(EnodeB& target);
  bool detach();

  // --- eNodeB-facing (radio) -------------------------------------------
  void deliver_nas(const proto::NasMessage& nas);
  void on_paging();
  void on_release(proto::ReleaseCause cause, NodeId releasing_mme);
  void on_connection_established();

  // S1-connection bookkeeping (owned by EnodeB):
  void set_s1_conn(proto::EnbUeId id) { enb_ue_id_ = id; }
  proto::EnbUeId s1_conn() const { return enb_ue_id_; }
  void learn_serving_mme(NodeId mme, proto::MmeUeId id) {
    serving_mme_ = mme;
    mme_ue_id_ = id;
  }
  NodeId serving_mme() const { return serving_mme_; }
  proto::MmeUeId mme_ue_id() const { return mme_ue_id_; }

  // --- statistics -------------------------------------------------------
  std::uint64_t completed(proto::ProcedureType p) const {
    const auto idx = static_cast<std::size_t>(p);
    SCALE_CHECK_MSG(idx < completed_.size(),
                    "ProcedureType outside the counter table");
    return completed_[idx];
  }
  std::uint64_t failures() const { return failures_; }

 private:
  void begin(proto::ProcedureType p);
  void complete(proto::ProcedureType p);
  void fail(proto::ProcedureType p);
  void arm_guard();
  void disarm_guard();
  void send_attach_request(std::optional<NodeId> exclude_mme);

  sim::Engine& engine_;
  EnodeB* enb_;
  Config cfg_;

  EmmState emm_ = EmmState::kDeregistered;
  EcmState ecm_ = EcmState::kIdle;
  std::optional<proto::Guti> guti_;
  proto::EnbUeId enb_ue_id_ = 0;
  NodeId serving_mme_ = 0;
  proto::MmeUeId mme_ue_id_;

  std::optional<proto::ProcedureType> pending_;
  Time pending_start_ = Time::zero();
  sim::EventId guard_event_ = 0;
  bool guard_armed_ = false;

  CompletionSink on_complete_;
  FailureSink on_failure_;
  std::array<std::uint64_t, proto::kProcedureTypeCount> completed_{};
  std::uint64_t failures_ = 0;
};

}  // namespace scale::epc
