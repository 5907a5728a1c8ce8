// NAS (Non-Access Stratum) messages — the UE ↔ MME dialogue, carried inside
// S1AP transport PDUs by the eNodeB.
//
// The message set covers the procedures of §2: Attach/Re-Attach (with EPS-AKA
// authentication and NAS security mode), Service Request, Tracking Area
// Update, and Detach. Field layouts are simplified but preserve everything
// the MME logic keys on (identities, auth material, timers).
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>
#include <variant>

#include "proto/buffer.h"
#include "proto/types.h"

namespace scale::proto {

enum class NasType : std::uint8_t {
  kAttachRequest = 1,
  kAuthenticationRequest = 2,
  kAuthenticationResponse = 3,
  kSecurityModeCommand = 4,
  kSecurityModeComplete = 5,
  kAttachAccept = 6,
  kAttachComplete = 7,
  kServiceRequest = 8,
  kServiceAccept = 9,
  kTauRequest = 10,
  kTauAccept = 11,
  kDetachRequest = 12,
  kDetachAccept = 13,
  kServiceReject = 14,
};

/// UE → MME. First message of the Attach procedure. Carries the IMSI on a
/// fresh attach, or the previous GUTI on re-attach.
struct NasAttachRequest {
  static constexpr NasType kType = NasType::kAttachRequest;
  static constexpr const char* kName = "AttachRequest";
  Imsi imsi = 0;
  std::optional<Guti> old_guti;
  Tac tac = 0;

  static constexpr auto kFields = std::tuple{
      &NasAttachRequest::imsi, &NasAttachRequest::old_guti,
      &NasAttachRequest::tac};
  bool operator==(const NasAttachRequest&) const = default;
};

/// MME → UE. EPS-AKA challenge built from the HSS auth vector.
struct NasAuthenticationRequest {
  static constexpr NasType kType = NasType::kAuthenticationRequest;
  static constexpr const char* kName = "AuthenticationRequest";
  std::uint64_t rand = 0;
  std::uint64_t autn = 0;

  static constexpr auto kFields = std::tuple{
      &NasAuthenticationRequest::rand, &NasAuthenticationRequest::autn};
  bool operator==(const NasAuthenticationRequest&) const = default;
};

/// UE → MME. RES computed by the USIM; MME checks against XRES.
struct NasAuthenticationResponse {
  static constexpr NasType kType = NasType::kAuthenticationResponse;
  static constexpr const char* kName = "AuthenticationResponse";
  std::uint64_t res = 0;

  static constexpr auto kFields = std::tuple{&NasAuthenticationResponse::res};
  bool operator==(const NasAuthenticationResponse&) const = default;
};

/// MME → UE. Activates NAS integrity/ciphering.
struct NasSecurityModeCommand {
  static constexpr NasType kType = NasType::kSecurityModeCommand;
  static constexpr const char* kName = "SecurityModeCommand";
  std::uint8_t integrity_algo = 1;
  std::uint8_t ciphering_algo = 1;

  static constexpr auto kFields = std::tuple{
      &NasSecurityModeCommand::integrity_algo,
      &NasSecurityModeCommand::ciphering_algo};
  bool operator==(const NasSecurityModeCommand&) const = default;
};

/// UE → MME.
struct NasSecurityModeComplete {
  static constexpr NasType kType = NasType::kSecurityModeComplete;
  static constexpr const char* kName = "SecurityModeComplete";
  static constexpr auto kFields = std::tuple{};
  bool operator==(const NasSecurityModeComplete&) const = default;
};

/// MME → UE. Assigns the GUTI the eNodeB will subsequently route on.
struct NasAttachAccept {
  static constexpr NasType kType = NasType::kAttachAccept;
  static constexpr const char* kName = "AttachAccept";
  Guti guti;
  std::uint32_t tau_timer_s = 3600;

  static constexpr auto kFields = std::tuple{
      &NasAttachAccept::guti, &NasAttachAccept::tau_timer_s};
  bool operator==(const NasAttachAccept&) const = default;
};

/// UE → MME. Closes the attach procedure.
struct NasAttachComplete {
  static constexpr NasType kType = NasType::kAttachComplete;
  static constexpr const char* kName = "AttachComplete";
  static constexpr auto kFields = std::tuple{};
  bool operator==(const NasAttachComplete&) const = default;
};

/// UE → MME. Idle → Active transition ("service request" of §2(a)). Per
/// 3GPP this carries the S-TMSI — MME code plus M-TMSI — and a short MAC;
/// the eNodeB routes on the MME code, the MLB reconstructs the full GUTI
/// from pool constants to hash the ring.
struct NasServiceRequest {
  static constexpr NasType kType = NasType::kServiceRequest;
  static constexpr const char* kName = "ServiceRequest";
  std::uint8_t mme_code = 0;
  std::uint32_t m_tmsi = 0;
  std::uint16_t short_mac = 0;

  static constexpr auto kFields = std::tuple{
      &NasServiceRequest::mme_code, &NasServiceRequest::m_tmsi,
      &NasServiceRequest::short_mac};
  bool operator==(const NasServiceRequest&) const = default;
};

/// MME → UE.
struct NasServiceAccept {
  static constexpr NasType kType = NasType::kServiceAccept;
  static constexpr const char* kName = "ServiceAccept";
  static constexpr auto kFields = std::tuple{};
  bool operator==(const NasServiceAccept&) const = default;
};

/// MME → UE. Sent e.g. when the serving node lost the context.
struct NasServiceReject {
  static constexpr NasType kType = NasType::kServiceReject;
  static constexpr const char* kName = "ServiceReject";
  std::uint8_t cause = 0;

  static constexpr auto kFields = std::tuple{&NasServiceReject::cause};
  bool operator==(const NasServiceReject&) const = default;
};

/// UE → MME. Periodic / mobility Tracking Area Update (§2(b)).
struct NasTauRequest {
  static constexpr NasType kType = NasType::kTauRequest;
  static constexpr const char* kName = "TauRequest";
  Guti guti;
  Tac tac = 0;
  /// Set when the network asked for a load-rebalancing TAU (the 3GPP
  /// overload-protection path of §3.1-2).
  bool rebalance = false;

  static constexpr auto kFields = std::tuple{
      &NasTauRequest::guti, &NasTauRequest::tac, &NasTauRequest::rebalance};
  bool operator==(const NasTauRequest&) const = default;
};

/// MME → UE. May re-assign the GUTI (it does on rebalancing TAU).
struct NasTauAccept {
  static constexpr NasType kType = NasType::kTauAccept;
  static constexpr const char* kName = "TauAccept";
  std::optional<Guti> new_guti;
  std::uint32_t tau_timer_s = 3600;

  static constexpr auto kFields = std::tuple{
      &NasTauAccept::new_guti, &NasTauAccept::tau_timer_s};
  bool operator==(const NasTauAccept&) const = default;
};

/// UE → MME.
struct NasDetachRequest {
  static constexpr NasType kType = NasType::kDetachRequest;
  static constexpr const char* kName = "DetachRequest";
  Guti guti;

  static constexpr auto kFields = std::tuple{&NasDetachRequest::guti};
  bool operator==(const NasDetachRequest&) const = default;
};

/// MME → UE.
struct NasDetachAccept {
  static constexpr NasType kType = NasType::kDetachAccept;
  static constexpr const char* kName = "DetachAccept";
  static constexpr auto kFields = std::tuple{};
  bool operator==(const NasDetachAccept&) const = default;
};

using NasMessage =
    std::variant<NasAttachRequest, NasAuthenticationRequest,
                 NasAuthenticationResponse, NasSecurityModeCommand,
                 NasSecurityModeComplete, NasAttachAccept, NasAttachComplete,
                 NasServiceRequest, NasServiceAccept, NasServiceReject,
                 NasTauRequest, NasTauAccept, NasDetachRequest,
                 NasDetachAccept>;

/// Tagged encode / decode of any NAS message (defined in codec.cpp).
void encode_nas(const NasMessage& msg, ByteWriter& w);
[[nodiscard]] NasMessage decode_nas(ByteReader& r);
const char* nas_name(const NasMessage& msg);

}  // namespace scale::proto
