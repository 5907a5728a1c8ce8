// HSS — Home Subscriber Server: the subscription database (§2).
//
// Serves EPS-AKA authentication vectors over S6a and records location
// updates. Vectors are derived deterministically from the subscriber key so
// that the UE (which holds the same key) computes a RES that matches XRES —
// a real end-to-end authentication check, not a stub.
#pragma once

#include <cstdint>

#include "epc/fabric.h"
#include "epc/flat_index.h"
#include "epc/reliable.h"
#include "sim/cpu.h"

namespace scale::epc {

class Hss : public Endpoint {
 public:
  explicit Hss(Fabric& fabric);

  sim::CpuModel& cpu() { return cpu_; }
  const ReliableChannel& transport() const { return rel_; }

  /// Register a subscriber with its permanent key K.
  void provision_subscriber(proto::Imsi imsi, std::uint64_t key,
                            std::uint32_t profile_id = 1);

  /// MME id recorded by the last Update Location for this subscriber
  /// (0 = never registered / unknown IMSI).
  std::uint32_t serving_mme_of(proto::Imsi imsi) const;

  /// Deterministic AKA response function — shared with the USIM side (Ue).
  static std::uint64_t f_res(std::uint64_t key, std::uint64_t rand);

  void receive(NodeId from, const proto::PduRef& pdu) override;

  std::uint64_t auth_requests_served() const { return auth_served_; }

 private:
  struct Subscriber {
    std::uint64_t key = 0;
    std::uint32_t profile_id = 0;
    std::uint32_t serving_mme = 0;
  };

  void handle_auth(NodeId from, const proto::AuthInfoRequest& req);
  void handle_location(NodeId from, const proto::UpdateLocationRequest& req);

  ReliableChannel rel_;
  sim::CpuModel cpu_;
  FlatMap<proto::Imsi, Subscriber> subscribers_;
  std::uint64_t rand_counter_ = 0x1234'5678;
  std::uint64_t auth_served_ = 0;
};

}  // namespace scale::epc
