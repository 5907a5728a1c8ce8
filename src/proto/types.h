// Core LTE identifier types used across the control plane.
//
// These mirror their 3GPP counterparts closely enough that SCALE's routing
// tricks work exactly as §5 of the paper describes: the GUTI carries the
// logical MME identity the eNodeB routes on, and the MME-assigned S1AP UE id
// / S11 TEID embed the *MMP VM* id so the MLB can route Active-mode messages
// without any per-device table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

namespace scale::proto {

/// International Mobile Subscriber Identity (permanent device id).
using Imsi = std::uint64_t;

/// Tracking Area Code — the paging granularity.
using Tac = std::uint16_t;

/// Globally Unique Temporary Identifier. On the real wire this is
/// PLMN + MMEGI + MMEC + M-TMSI; we keep exactly those fields.
struct Guti {
  std::uint16_t plmn = 0;       ///< operator id
  std::uint16_t mme_group = 0;  ///< MME Group Identifier (pool id)
  std::uint8_t mme_code = 0;    ///< MME Code: selects the (logical) MME
  std::uint32_t m_tmsi = 0;     ///< temporary subscriber id within the MME

  /// Canonical 64-bit packing — the consistent-hash key (§4.3.1: "hashing
  /// its GUTI to yield its position on the ring").
  std::uint64_t key() const {
    // Injective over (plmn&0xFF, mme_group, mme_code, m_tmsi):
    // bits 56-63 plmn, 40-55 mme_group, 32-39 mme_code, 0-31 m_tmsi.
    return (static_cast<std::uint64_t>(plmn & 0xFF) << 56) |
           (static_cast<std::uint64_t>(mme_group) << 40) |
           (static_cast<std::uint64_t>(mme_code) << 32) |
           static_cast<std::uint64_t>(m_tmsi);
  }

  bool valid() const { return m_tmsi != 0; }
  bool operator==(const Guti&) const = default;
  std::string str() const;

  static constexpr auto kFields = std::tuple{
      &Guti::plmn, &Guti::mme_group, &Guti::mme_code, &Guti::m_tmsi};
};

/// S1AP UE id assigned by the eNodeB.
using EnbUeId = std::uint32_t;

/// S1AP UE id assigned by the MME side. SCALE's MMP embeds its VM id in the
/// top byte (§5 MLB(ii)): "each MMP embeds its unique ID in both the
/// S1AP-id & S11-tunnel-id, thus enabling the MLB to route the subsequent
/// requests to the appropriate active MMP".
struct MmeUeId {
  std::uint32_t raw = 0;

  static MmeUeId make(std::uint8_t mmp_id, std::uint32_t seq) {
    return MmeUeId{(static_cast<std::uint32_t>(mmp_id) << 24) |
                   (seq & 0x00FFFFFFu)};
  }
  std::uint8_t mmp_id() const {
    return static_cast<std::uint8_t>(raw >> 24);
  }
  std::uint32_t seq() const { return raw & 0x00FFFFFFu; }
  bool operator==(const MmeUeId&) const = default;

  static constexpr auto kFields = std::tuple{&MmeUeId::raw};
};

/// GTP-C Tunnel Endpoint Identifier on S11. MME-side TEIDs embed the MMP id
/// in the top byte, mirroring MmeUeId.
struct Teid {
  std::uint32_t raw = 0;

  static Teid make(std::uint8_t owner_id, std::uint32_t seq) {
    return Teid{(static_cast<std::uint32_t>(owner_id) << 24) |
                (seq & 0x00FFFFFFu)};
  }
  std::uint8_t owner_id() const {
    return static_cast<std::uint8_t>(raw >> 24);
  }
  bool valid() const { return raw != 0; }
  bool operator==(const Teid&) const = default;

  static constexpr auto kFields = std::tuple{&Teid::raw};
};

/// The control procedures the MME runs (§2, "MME Procedures").
enum class ProcedureType : std::uint8_t {
  kAttach = 0,
  kServiceRequest = 1,
  kTrackingAreaUpdate = 2,
  kPaging = 3,
  kHandover = 4,
  kDetach = 5,
};

const char* procedure_name(ProcedureType p);

/// Inverse of procedure_name ("attach" -> kAttach); npos-style nullopt for
/// unknown names. Lets tools round-trip the typed enum through JSON/CLI
/// without a parallel string table drifting out of sync.
[[nodiscard]] std::optional<ProcedureType> parse_procedure_name(
    std::string_view name);

/// All procedure types, in enum order (for iteration in reports/tests).
inline constexpr ProcedureType kAllProcedures[] = {
    ProcedureType::kAttach,        ProcedureType::kServiceRequest,
    ProcedureType::kTrackingAreaUpdate, ProcedureType::kPaging,
    ProcedureType::kHandover,      ProcedureType::kDetach,
};

/// Number of procedure types — THE size for per-procedure counter arrays
/// (std::array<.., kProcedureTypeCount>), so growing the enum resizes every
/// table instead of silently reading past a literal `[6]`.
inline constexpr std::size_t kProcedureTypeCount =
    sizeof(kAllProcedures) / sizeof(kAllProcedures[0]);
static_assert(kProcedureTypeCount ==
                  static_cast<std::size_t>(ProcedureType::kDetach) + 1,
              "kAllProcedures must list every ProcedureType exactly once");

}  // namespace scale::proto

template <>
struct std::hash<scale::proto::Guti> {
  std::size_t operator()(const scale::proto::Guti& g) const noexcept {
    return std::hash<std::uint64_t>{}(g.key());
  }
};
