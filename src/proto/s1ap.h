// S1AP — the eNodeB ↔ MME interface (§2: "the S1AP interface with the
// eNodeBs carries the control protocols exchanged between the MMEs and the
// eNodeBs and the MME and the devices").
//
// In SCALE the MLB terminates this interface and forwards to MMP VMs over an
// "interface similar to S1AP" (§5), so the same PDUs flow MLB → MMP wrapped
// in cluster envelopes (see cluster.h).
#pragma once

#include <cstdint>
#include <tuple>
#include <variant>
#include <vector>

#include "proto/nas.h"
#include "proto/types.h"

namespace scale::proto {

enum class S1apType : std::uint8_t {
  kInitialUeMessage = 1,
  kUplinkNasTransport = 2,
  kDownlinkNasTransport = 3,
  kInitialContextSetupRequest = 4,
  kInitialContextSetupResponse = 5,
  kUeContextReleaseCommand = 6,
  kUeContextReleaseComplete = 7,
  kPaging = 8,
  kPathSwitchRequest = 9,
  kPathSwitchAck = 10,
  kOverloadStart = 11,
};

/// eNB → MME. Carries the first NAS message of a transaction plus the
/// radio-side identifiers the MME echoes back.
struct InitialUeMessage {
  static constexpr S1apType kType = S1apType::kInitialUeMessage;
  static constexpr const char* kName = "InitialUeMessage";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  Tac tac = 0;
  NasMessage nas;

  static constexpr auto kFields = std::tuple{
      &InitialUeMessage::enb_id, &InitialUeMessage::enb_ue_id,
      &InitialUeMessage::tac, &InitialUeMessage::nas};
};

/// eNB → MME, for NAS messages on an established UE-associated connection.
/// Note: carries the MME-assigned id — per §5 this is how the MLB routes
/// Active-mode traffic without per-device state.
struct UplinkNasTransport {
  static constexpr S1apType kType = S1apType::kUplinkNasTransport;
  static constexpr const char* kName = "UplinkNasTransport";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  NasMessage nas;

  static constexpr auto kFields = std::tuple{
      &UplinkNasTransport::enb_id, &UplinkNasTransport::enb_ue_id,
      &UplinkNasTransport::mme_ue_id, &UplinkNasTransport::nas};
};

/// MME → eNB (→ UE).
struct DownlinkNasTransport {
  static constexpr S1apType kType = S1apType::kDownlinkNasTransport;
  static constexpr const char* kName = "DownlinkNasTransport";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  NasMessage nas;

  static constexpr auto kFields = std::tuple{
      &DownlinkNasTransport::enb_id, &DownlinkNasTransport::enb_ue_id,
      &DownlinkNasTransport::mme_ue_id, &DownlinkNasTransport::nas};
};

/// MME → eNB: establish the radio-side data bearer (carries S-GW TEID).
struct InitialContextSetupRequest {
  static constexpr S1apType kType = S1apType::kInitialContextSetupRequest;
  static constexpr const char* kName = "InitialContextSetupRequest";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  Teid sgw_teid;

  static constexpr auto kFields = std::tuple{
      &InitialContextSetupRequest::enb_id,
      &InitialContextSetupRequest::enb_ue_id,
      &InitialContextSetupRequest::mme_ue_id,
      &InitialContextSetupRequest::sgw_teid};
};

/// eNB → MME.
struct InitialContextSetupResponse {
  static constexpr S1apType kType = S1apType::kInitialContextSetupResponse;
  static constexpr const char* kName = "InitialContextSetupResponse";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  Teid enb_teid;

  static constexpr auto kFields = std::tuple{
      &InitialContextSetupResponse::enb_id,
      &InitialContextSetupResponse::enb_ue_id,
      &InitialContextSetupResponse::mme_ue_id,
      &InitialContextSetupResponse::enb_teid};
};

enum class ReleaseCause : std::uint8_t {
  kUserInactivity = 0,
  kLoadBalancingTauRequired = 1,  ///< 3GPP reactive rebalancing (§3.1-2)
  kDetach = 2,
  kHandover = 3,
};

/// MME → eNB: move the UE to Idle (or force re-attach elsewhere when the
/// cause is load-balancing — the expensive reactive path of Fig. 2(b,c)).
struct UeContextReleaseCommand {
  static constexpr S1apType kType = S1apType::kUeContextReleaseCommand;
  static constexpr const char* kName = "UeContextReleaseCommand";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  ReleaseCause cause = ReleaseCause::kUserInactivity;

  static constexpr auto kFields = std::tuple{
      &UeContextReleaseCommand::enb_id, &UeContextReleaseCommand::enb_ue_id,
      &UeContextReleaseCommand::mme_ue_id, &UeContextReleaseCommand::cause};
};

/// eNB → MME.
struct UeContextReleaseComplete {
  static constexpr S1apType kType = S1apType::kUeContextReleaseComplete;
  static constexpr const char* kName = "UeContextReleaseComplete";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;

  static constexpr auto kFields = std::tuple{
      &UeContextReleaseComplete::enb_id, &UeContextReleaseComplete::enb_ue_id,
      &UeContextReleaseComplete::mme_ue_id};
};

/// MME → every eNB in the UE's tracking area (§2(c)).
struct Paging {
  static constexpr S1apType kType = S1apType::kPaging;
  static constexpr const char* kName = "Paging";
  std::uint32_t m_tmsi = 0;
  Tac tac = 0;

  static constexpr auto kFields = std::tuple{&Paging::m_tmsi, &Paging::tac};
};

/// (target) eNB → MME after X2 handover: request downlink path switch
/// (§2(d) — the MME re-points the S-GW at the new eNodeB).
struct PathSwitchRequest {
  static constexpr S1apType kType = S1apType::kPathSwitchRequest;
  static constexpr const char* kName = "PathSwitchRequest";
  std::uint32_t new_enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;
  Tac tac = 0;

  static constexpr auto kFields = std::tuple{
      &PathSwitchRequest::new_enb_id, &PathSwitchRequest::enb_ue_id,
      &PathSwitchRequest::mme_ue_id, &PathSwitchRequest::tac};
};

/// MME → eNB.
struct PathSwitchAck {
  static constexpr S1apType kType = S1apType::kPathSwitchAck;
  static constexpr const char* kName = "PathSwitchAck";
  std::uint32_t enb_id = 0;
  EnbUeId enb_ue_id = 0;
  MmeUeId mme_ue_id;

  static constexpr auto kFields = std::tuple{
      &PathSwitchAck::enb_id, &PathSwitchAck::enb_ue_id,
      &PathSwitchAck::mme_ue_id};
};

/// MME → eNB (the 3GPP S1AP OVERLOAD START analogue): the core is under
/// pressure — pace new Initial UE messages for `window_us` of sim time.
/// Advisory and idempotent; a fresh signal extends the window.
struct OverloadStart {
  static constexpr S1apType kType = S1apType::kOverloadStart;
  static constexpr const char* kName = "OverloadStart";
  std::uint8_t level = 0;       ///< pressure band that tripped the signal
  std::uint64_t window_us = 0;  ///< pacing-window length

  static constexpr auto kFields = std::tuple{
      &OverloadStart::level, &OverloadStart::window_us};
};

using S1apMessage =
    std::variant<InitialUeMessage, UplinkNasTransport, DownlinkNasTransport,
                 InitialContextSetupRequest, InitialContextSetupResponse,
                 UeContextReleaseCommand, UeContextReleaseComplete, Paging,
                 PathSwitchRequest, PathSwitchAck, OverloadStart>;

const char* s1ap_name(const S1apMessage& msg);

}  // namespace scale::proto
