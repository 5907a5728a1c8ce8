// S6a — the MME ↔ HSS interface: subscriber authentication vectors and
// location registration (§2: "used for protocol exchange to retrieve user
// information from the HSS").
#pragma once

#include <cstdint>
#include <tuple>
#include <variant>

#include "proto/types.h"

namespace scale::proto {

enum class S6Type : std::uint8_t {
  kAuthInfoRequest = 1,
  kAuthInfoAnswer = 2,
  kUpdateLocationRequest = 3,
  kUpdateLocationAnswer = 4,
};

/// MME → HSS: fetch an EPS-AKA authentication vector for the subscriber.
/// `hop_ref` mirrors Diameter's hop-by-hop identifier: the HSS echoes it so
/// a stateless proxy (SCALE's MLB) can route the answer to the issuing MMP.
struct AuthInfoRequest {
  static constexpr S6Type kType = S6Type::kAuthInfoRequest;
  static constexpr const char* kName = "AuthInfoRequest";
  Imsi imsi = 0;
  std::uint32_t hop_ref = 0;

  static constexpr auto kFields = std::tuple{
      &AuthInfoRequest::imsi, &AuthInfoRequest::hop_ref};
};

/// HSS → MME: the vector (RAND, AUTN, XRES; K_ASME folded into xres here).
struct AuthInfoAnswer {
  static constexpr S6Type kType = S6Type::kAuthInfoAnswer;
  static constexpr const char* kName = "AuthInfoAnswer";
  Imsi imsi = 0;
  std::uint32_t hop_ref = 0;
  bool known_subscriber = true;
  std::uint64_t rand = 0;
  std::uint64_t autn = 0;
  std::uint64_t xres = 0;

  static constexpr auto kFields = std::tuple{
      &AuthInfoAnswer::imsi, &AuthInfoAnswer::hop_ref,
      &AuthInfoAnswer::known_subscriber, &AuthInfoAnswer::rand,
      &AuthInfoAnswer::autn, &AuthInfoAnswer::xres};
};

/// MME → HSS: register which MME now serves the subscriber.
struct UpdateLocationRequest {
  static constexpr S6Type kType = S6Type::kUpdateLocationRequest;
  static constexpr const char* kName = "UpdateLocationRequest";
  Imsi imsi = 0;
  std::uint32_t mme_id = 0;
  std::uint32_t hop_ref = 0;

  static constexpr auto kFields = std::tuple{
      &UpdateLocationRequest::imsi, &UpdateLocationRequest::mme_id,
      &UpdateLocationRequest::hop_ref};
};

/// HSS → MME: subscription profile.
struct UpdateLocationAnswer {
  static constexpr S6Type kType = S6Type::kUpdateLocationAnswer;
  static constexpr const char* kName = "UpdateLocationAnswer";
  Imsi imsi = 0;
  bool ok = true;
  std::uint32_t profile_id = 0;
  std::uint32_t hop_ref = 0;

  static constexpr auto kFields = std::tuple{
      &UpdateLocationAnswer::imsi, &UpdateLocationAnswer::ok,
      &UpdateLocationAnswer::profile_id, &UpdateLocationAnswer::hop_ref};
};

using S6Message = std::variant<AuthInfoRequest, AuthInfoAnswer,
                               UpdateLocationRequest, UpdateLocationAnswer>;

const char* s6_name(const S6Message& msg);

}  // namespace scale::proto
