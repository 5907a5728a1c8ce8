// Parameterized property sweeps across module boundaries (TEST_P).
#include <gtest/gtest.h>

#include <set>

#include "core/provisioner.h"
#include "hash/ring.h"
#include "proto/codec.h"
#include "workload/population.h"

namespace scale {
namespace {

// ---------------------------------------------------- provisioning invariants

struct ProvisionCase {
  std::uint64_t load;
  std::uint64_t devices;
  double beta;
};

class ProvisionSweep : public ::testing::TestWithParam<ProvisionCase> {};

TEST_P(ProvisionSweep, DecisionInvariants) {
  const auto p = GetParam();
  core::Provisioner::Config cfg;
  cfg.alpha = 1.0;
  cfg.requests_per_vm_epoch = 1000;
  cfg.devices_per_vm = 5000;
  cfg.replicas = 2;
  cfg.max_vms = 1000;
  core::Provisioner prov(cfg);
  prov.set_beta(p.beta);
  const auto d = prov.decide(p.load, p.devices);

  // V = max(V_C, V_S), clamped.
  EXPECT_EQ(d.vms, std::clamp(std::max(d.compute_vms, d.storage_vms),
                              cfg.min_vms, cfg.max_vms));
  // Enough compute for the load estimate.
  EXPECT_GE(static_cast<double>(d.compute_vms) *
                static_cast<double>(cfg.requests_per_vm_epoch),
            d.load_estimate - 1e-9);
  // Enough storage for β·R·K.
  EXPECT_GE(static_cast<double>(d.storage_vms) *
                static_cast<double>(cfg.devices_per_vm),
            p.beta * 2.0 * static_cast<double>(p.devices) -
                static_cast<double>(cfg.devices_per_vm));
  // β only ever shrinks the storage term.
  core::Provisioner full(cfg);
  full.set_beta(1.0);
  EXPECT_LE(d.storage_vms, full.decide(p.load, p.devices).storage_vms);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProvisionSweep,
    ::testing::Values(ProvisionCase{0, 0, 1.0},
                      ProvisionCase{100, 1000, 1.0},
                      ProvisionCase{50000, 1000, 0.8},
                      ProvisionCase{100, 2'000'000, 0.75},
                      ProvisionCase{750000, 3'000'000, 0.5},
                      ProvisionCase{1, 1, 0.01}));

// ----------------------------------------------------------- ring vs replicas

class RingReplicaSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

// For every (tokens, R): the preference list is stable under unrelated node
// churn — adding and removing an unrelated node restores the exact list.
TEST_P(RingReplicaSweep, PreferenceListStableUnderUnrelatedChurn) {
  const auto [tokens, R] = GetParam();
  hash::ConsistentHashRing ring(tokens);
  for (hash::RingNodeId n = 1; n <= 12; ++n) ring.add_node(n);

  std::vector<std::vector<hash::RingNodeId>> before(200);
  for (std::uint64_t key = 0; key < 200; ++key)
    ring.preference_list(key, R, before[key]);

  ring.add_node(777);
  ring.remove_node(777);

  std::vector<hash::RingNodeId> after;
  for (std::uint64_t key = 0; key < 200; ++key) {
    ring.preference_list(key, R, after);
    EXPECT_EQ(after, before[key]) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TokensAndR, RingReplicaSweep,
    ::testing::Combine(::testing::Values(1u, 5u, 16u),
                       ::testing::Values(1u, 2u, 4u)));

// ------------------------------------------------------------ codec roundtrip

class NasRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Randomized field fuzz: any NasAttachRequest round-trips bit-exactly.
TEST_P(NasRoundTripSweep, AttachRequestFieldFuzz) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    proto::NasAttachRequest req;
    req.imsi = rng.next_u64();
    if (rng.chance(0.5)) {
      proto::Guti g;
      g.plmn = static_cast<std::uint16_t>(rng.next_below(1 << 16));
      g.mme_group = static_cast<std::uint16_t>(rng.next_below(1 << 16));
      g.mme_code = static_cast<std::uint8_t>(rng.next_below(256));
      g.m_tmsi = static_cast<std::uint32_t>(rng.next_u64());
      req.old_guti = g;
    }
    req.tac = static_cast<std::uint16_t>(rng.next_below(1 << 16));

    proto::ByteWriter w;
    proto::encode_nas(proto::NasMessage{req}, w);
    proto::ByteReader r(w.data());
    const auto back = proto::decode_nas(r);
    ASSERT_TRUE(std::holds_alternative<proto::NasAttachRequest>(back));
    EXPECT_EQ(std::get<proto::NasAttachRequest>(back), req);
    EXPECT_TRUE(r.at_end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NasRoundTripSweep,
                         ::testing::Values(1u, 77u, 4242u));

// -------------------------------------------------------- population shaping

class BimodalSweep : public ::testing::TestWithParam<double> {};

TEST_P(BimodalSweep, FractionsAreExact) {
  const double frac = GetParam();
  const auto w = workload::bimodal_access(1000, frac, 0.1, 0.9);
  const auto low = static_cast<std::size_t>(
      std::count(w.begin(), w.end(), 0.1));
  EXPECT_EQ(low, static_cast<std::size_t>(frac * 1000.0));
  EXPECT_EQ(w.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Fractions, BimodalSweep,
                         ::testing::Values(0.0, 0.125, 0.25, 0.5, 0.75,
                                           1.0));

}  // namespace
}  // namespace scale
