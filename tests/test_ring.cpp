#include <gtest/gtest.h>

#include "common/check.h"

#include <map>
#include <set>
#include <vector>

#include "hash/md5.h"
#include "hash/ring.h"

namespace scale::hash {
namespace {

ConsistentHashRing make_ring(unsigned tokens, std::initializer_list<RingNodeId> nodes) {
  ConsistentHashRing ring(tokens);
  for (RingNodeId n : nodes) ring.add_node(n);
  return ring;
}

std::vector<RingNodeId> prefs_of(const ConsistentHashRing& ring,
                                 std::uint64_t key, std::size_t n) {
  std::vector<RingNodeId> out;
  ring.preference_list(key, n, out);
  return out;
}

TEST(Ring, EmptyRingRejectsLookups) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.owner(1), scale::CheckError);
  EXPECT_THROW(prefs_of(ring, 1, 2), scale::CheckError);
  EXPECT_THROW((void)ring.replica_of(1), scale::CheckError);
}

TEST(Ring, AddRemoveMembership) {
  auto ring = make_ring(5, {1, 2, 3});
  EXPECT_EQ(ring.node_count(), 3u);
  EXPECT_EQ(ring.token_count(), 15u);
  EXPECT_TRUE(ring.contains(2));
  ring.remove_node(2);
  EXPECT_FALSE(ring.contains(2));
  EXPECT_EQ(ring.token_count(), 10u);
}

TEST(Ring, DuplicateAddRejected) {
  auto ring = make_ring(5, {1});
  EXPECT_THROW(ring.add_node(1), scale::CheckError);
}

TEST(Ring, RemoveUnknownRejected) {
  auto ring = make_ring(5, {1});
  EXPECT_THROW(ring.remove_node(9), scale::CheckError);
}

TEST(Ring, OwnerIsDeterministic) {
  auto a = make_ring(5, {1, 2, 3, 4});
  auto b = make_ring(5, {4, 3, 2, 1});  // insertion order must not matter
  for (std::uint64_t key = 0; key < 2000; ++key)
    EXPECT_EQ(a.owner(key), b.owner(key));
}

TEST(Ring, PreferenceListDistinctAndStartsAtOwner) {
  auto ring = make_ring(5, {10, 20, 30, 40, 50});
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto prefs = prefs_of(ring, key, 3);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_EQ(prefs[0], ring.owner(key));
    std::set<RingNodeId> uniq(prefs.begin(), prefs.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(Ring, PreferenceListCappedByNodeCount) {
  auto ring = make_ring(5, {1, 2});
  const auto prefs = prefs_of(ring, 7, 10);
  EXPECT_EQ(prefs.size(), 2u);
}

TEST(Ring, PreferenceListIntoBufferReplacesItsContents) {
  auto ring = make_ring(5, {10, 20, 30, 40, 50});
  std::vector<RingNodeId> out{99, 98, 97, 96, 95, 94};
  for (std::uint64_t key = 0; key < 200; ++key) {
    ring.preference_list(key, 3, out);
    EXPECT_EQ(out, prefs_of(ring, key, 3)) << "key " << key;
  }
  ring.preference_list(7, 10, out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(Ring, ReplicaOfSingleNodeIsNull) {
  auto ring = make_ring(5, {1});
  EXPECT_FALSE(ring.replica_of(123).has_value());
}

TEST(Ring, ReplicaDiffersFromOwner) {
  auto ring = make_ring(5, {1, 2, 3});
  for (std::uint64_t key = 0; key < 300; ++key) {
    const auto rep = ring.replica_of(key);
    ASSERT_TRUE(rep.has_value());
    EXPECT_NE(*rep, ring.owner(key));
    EXPECT_EQ(*rep, prefs_of(ring, key, 2).at(1)) << "key " << key;
  }
}

TEST(Ring, NodeRemovalOnlyMovesItsKeys) {
  // The consistent-hashing contract (§4.3.1): removing a VM only remaps
  // the keys it owned; every other key keeps its owner.
  auto ring = make_ring(5, {1, 2, 3, 4, 5, 6});
  std::map<std::uint64_t, RingNodeId> before;
  for (std::uint64_t key = 0; key < 5000; ++key) before[key] = ring.owner(key);
  ring.remove_node(3);
  for (const auto& [key, owner] : before) {
    if (owner == 3) {
      EXPECT_NE(ring.owner(key), 3u);
    } else {
      EXPECT_EQ(ring.owner(key), owner) << "key " << key << " moved needlessly";
    }
  }
}

TEST(Ring, NodeAdditionOnlyStealsKeys) {
  auto ring = make_ring(5, {1, 2, 3, 4, 5});
  std::map<std::uint64_t, RingNodeId> before;
  for (std::uint64_t key = 0; key < 5000; ++key) before[key] = ring.owner(key);
  ring.add_node(99);
  std::size_t moved = 0;
  for (const auto& [key, owner] : before) {
    const RingNodeId now = ring.owner(key);
    if (now != owner) {
      EXPECT_EQ(now, 99u) << "key moved to a node other than the new one";
      ++moved;
    }
  }
  // New node takes roughly 1/6 of the space.
  EXPECT_GT(moved, 5000 / 6 / 3);
  EXPECT_LT(moved, 5000 / 2);
}

TEST(Ring, TokensImproveBalanceOverTokenless) {
  // Fig. 10(a)'s "basic consistent hashing" baseline: 1 token per node
  // yields much worse balance than 5+ tokens.
  auto balance_spread = [](unsigned tokens) {
    ConsistentHashRing ring(tokens);
    for (RingNodeId n = 1; n <= 10; ++n) ring.add_node(n);
    std::map<RingNodeId, std::size_t> counts;
    for (std::uint64_t key = 0; key < 40000; ++key) ++counts[ring.owner(key)];
    std::size_t min_c = SIZE_MAX, max_c = 0;
    for (const auto& [n, c] : counts) {
      min_c = std::min(min_c, c);
      max_c = std::max(max_c, c);
    }
    return static_cast<double>(max_c) / static_cast<double>(std::max<std::size_t>(1, min_c));
  };
  EXPECT_LT(balance_spread(32), balance_spread(1));
}

TEST(Ring, OwnershipFractionsSumToOne) {
  auto ring = make_ring(7, {1, 2, 3, 4});
  double total = 0.0;
  for (RingNodeId n : ring.nodes()) total += ring.ownership_fraction(n);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Ring, OwnershipFractionMatchesEmpiricalShare) {
  auto ring = make_ring(16, {1, 2, 3});
  std::map<RingNodeId, std::size_t> counts;
  const std::uint64_t n_keys = 60000;
  for (std::uint64_t key = 0; key < n_keys; ++key) ++counts[ring.owner(key)];
  for (RingNodeId n : ring.nodes()) {
    const double empirical =
        static_cast<double>(counts[n]) / static_cast<double>(n_keys);
    EXPECT_NEAR(ring.ownership_fraction(n), empirical, 0.02);
  }
}

// The position memo is direct-mapped with far fewer slots than the keys
// below, so these passes evict and refill every slot many times: any key
// answered from a slot another key owns shows up as a wrong position.
TEST(RingMemo, CollidingKeysEachGetTheirOwnPosition) {
  auto ring = make_ring(5, {1, 2, 3});
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t key = 0; key < 4096; ++key)
      ASSERT_EQ(ring.position_of_key(key), md5_u64(key))
          << "pass " << pass << " key " << key;
  // Two keys forced into one slot: of any 1025 keys, two share one of the
  // 1024 slots, so alternating over them hits at least one shared slot.
  for (std::uint64_t a = 0; a < 1025; ++a) {
    const std::uint64_t b = (a * 7919 + 13) % 1025;
    ASSERT_EQ(ring.position_of_key(a), md5_u64(a));
    ASSERT_EQ(ring.position_of_key(b), md5_u64(b));
    ASSERT_EQ(ring.position_of_key(a), md5_u64(a));
  }
}

TEST(RingMemo, ExtremeKeysOnAFreshRing) {
  // A fresh memo holds no sentinel a real key could be mistaken for: the
  // first lookup of key 0 and of key ~0 both compute their own MD5.
  for (const std::uint64_t key : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    auto ring = make_ring(5, {1, 2});
    EXPECT_EQ(ring.position_of_key(key), md5_u64(key)) << key;
    EXPECT_EQ(ring.position_of_key(key), md5_u64(key)) << key;
  }
}

TEST(RingMemo, OwnersMatchAFreshRingAfterMembershipChanges) {
  // Warm the memo, change membership, and compare every answer with a ring
  // built from scratch with the final membership: the memo caches key
  // positions only, which membership never moves.
  auto ring = make_ring(5, {1, 2, 3, 4});
  for (std::uint64_t key = 0; key < 3000; ++key) (void)ring.owner(key);
  ring.add_node(9);
  ring.remove_node(2);
  const auto fresh = make_ring(5, {1, 3, 4, 9});
  for (std::uint64_t key = 0; key < 3000; ++key) {
    ASSERT_EQ(ring.owner(key), fresh.owner(key)) << "key " << key;
    ASSERT_EQ(prefs_of(ring, key, 3), prefs_of(fresh, key, 3)) << key;
    ASSERT_EQ(ring.replica_of(key), fresh.replica_of(key)) << "key " << key;
  }
}

class RingTokenSweep : public ::testing::TestWithParam<unsigned> {};

// Property sweep: for any token count, preference lists are duplicate-free
// prefixes of ring order and owners are stable across rebuilds.
TEST_P(RingTokenSweep, PreferenceListInvariants) {
  const unsigned tokens = GetParam();
  ConsistentHashRing ring(tokens);
  for (RingNodeId n = 1; n <= 8; ++n) ring.add_node(n);
  for (std::uint64_t key = 1; key < 400; key += 7) {
    const auto prefs = prefs_of(ring, key, 4);
    ASSERT_EQ(prefs.size(), 4u);
    std::set<RingNodeId> uniq(prefs.begin(), prefs.end());
    EXPECT_EQ(uniq.size(), prefs.size());
    EXPECT_EQ(prefs[0], ring.owner(key));
  }
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, RingTokenSweep,
                         ::testing::Values(1u, 2u, 5u, 16u, 64u));

}  // namespace
}  // namespace scale::hash
