// S11 — the MME ↔ S-GW interface (GTP-C): creates, modifies and tears down
// the per-device data path (§2: "carries the protocols to create and destroy
// the data-path for each device").
#pragma once

#include <cstdint>
#include <tuple>
#include <variant>

#include "proto/types.h"

namespace scale::proto {

enum class S11Type : std::uint8_t {
  kCreateSessionRequest = 1,
  kCreateSessionResponse = 2,
  kModifyBearerRequest = 3,
  kModifyBearerResponse = 4,
  kReleaseAccessBearersRequest = 5,
  kReleaseAccessBearersResponse = 6,
  kDeleteSessionRequest = 7,
  kDeleteSessionResponse = 8,
  kDownlinkDataNotification = 9,
  kDownlinkDataNotificationAck = 10,
};

/// MME → S-GW during Attach: allocate the EPS bearer.
struct CreateSessionRequest {
  static constexpr S11Type kType = S11Type::kCreateSessionRequest;
  static constexpr const char* kName = "CreateSessionRequest";
  Imsi imsi = 0;
  Teid mme_teid;  ///< sender TEID; top byte identifies the MMP (§5)

  static constexpr auto kFields = std::tuple{
      &CreateSessionRequest::imsi, &CreateSessionRequest::mme_teid};
};

/// S-GW → MME.
struct CreateSessionResponse {
  static constexpr S11Type kType = S11Type::kCreateSessionResponse;
  static constexpr const char* kName = "CreateSessionResponse";
  Teid mme_teid;
  Teid sgw_teid;

  static constexpr auto kFields = std::tuple{
      &CreateSessionResponse::mme_teid, &CreateSessionResponse::sgw_teid};
};

/// MME → S-GW: re-point the downlink at a (new) eNodeB (Service Request
/// re-activation and Handover path switch).
struct ModifyBearerRequest {
  static constexpr S11Type kType = S11Type::kModifyBearerRequest;
  static constexpr const char* kName = "ModifyBearerRequest";
  Teid sgw_teid;
  Teid mme_teid;
  std::uint32_t enb_id = 0;

  static constexpr auto kFields = std::tuple{
      &ModifyBearerRequest::sgw_teid, &ModifyBearerRequest::mme_teid,
      &ModifyBearerRequest::enb_id};
};

/// S-GW → MME.
struct ModifyBearerResponse {
  static constexpr S11Type kType = S11Type::kModifyBearerResponse;
  static constexpr const char* kName = "ModifyBearerResponse";
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{&ModifyBearerResponse::mme_teid};
};

/// MME → S-GW on Active → Idle: release the radio-side bearer but keep the
/// session (so downlink data triggers DownlinkDataNotification → Paging).
struct ReleaseAccessBearersRequest {
  static constexpr S11Type kType = S11Type::kReleaseAccessBearersRequest;
  static constexpr const char* kName = "ReleaseAccessBearersRequest";
  Teid sgw_teid;
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{
      &ReleaseAccessBearersRequest::sgw_teid,
      &ReleaseAccessBearersRequest::mme_teid};
};

/// S-GW → MME.
struct ReleaseAccessBearersResponse {
  static constexpr S11Type kType = S11Type::kReleaseAccessBearersResponse;
  static constexpr const char* kName = "ReleaseAccessBearersResponse";
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{
      &ReleaseAccessBearersResponse::mme_teid};
};

/// MME → S-GW on Detach.
struct DeleteSessionRequest {
  static constexpr S11Type kType = S11Type::kDeleteSessionRequest;
  static constexpr const char* kName = "DeleteSessionRequest";
  Teid sgw_teid;
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{
      &DeleteSessionRequest::sgw_teid, &DeleteSessionRequest::mme_teid};
};

/// S-GW → MME.
struct DeleteSessionResponse {
  static constexpr S11Type kType = S11Type::kDeleteSessionResponse;
  static constexpr const char* kName = "DeleteSessionResponse";
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{&DeleteSessionResponse::mme_teid};
};

/// S-GW → MME: downlink packet arrived for an Idle device → MME pages
/// (§2(c)).
struct DownlinkDataNotification {
  static constexpr S11Type kType = S11Type::kDownlinkDataNotification;
  static constexpr const char* kName = "DownlinkDataNotification";
  Teid mme_teid;

  static constexpr auto kFields = std::tuple{
      &DownlinkDataNotification::mme_teid};
};

/// MME → S-GW.
struct DownlinkDataNotificationAck {
  static constexpr S11Type kType = S11Type::kDownlinkDataNotificationAck;
  static constexpr const char* kName = "DownlinkDataNotificationAck";
  Teid sgw_teid;

  static constexpr auto kFields = std::tuple{
      &DownlinkDataNotificationAck::sgw_teid};
};

using S11Message =
    std::variant<CreateSessionRequest, CreateSessionResponse,
                 ModifyBearerRequest, ModifyBearerResponse,
                 ReleaseAccessBearersRequest, ReleaseAccessBearersResponse,
                 DeleteSessionRequest, DeleteSessionResponse,
                 DownlinkDataNotification, DownlinkDataNotificationAck>;

const char* s11_name(const S11Message& msg);

}  // namespace scale::proto
