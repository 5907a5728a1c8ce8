// Token-based consistent hashing (Karger et al.) tailored for the MMP
// cluster, as described in §4.3 of the paper:
//
//  * each MMP VM is represented by `tokens_per_node` pseudo-random tokens on
//    a fixed circular 64-bit ring;
//  * a device's GUTI hashes (MD5, the ring's only hash) to a ring position;
//    the first token clockwise identifies the *master* MMP;
//  * the next distinct VMs clockwise are the replica targets, so the states
//    of one VM's devices spread across many neighbors (avoids the pairwise
//    hot-spot the SIMPLE baseline suffers — Fig. 9);
//  * adding/removing a VM only remaps the arcs adjacent to its tokens.
//
// Setting tokens_per_node = 1 yields the "basic consistent hashing" baseline
// of Fig. 10(a).
//
// A procedure asks the cluster ring about the same GUTI several times
// (master check, replica push, Idle sync), so each ring memoises the key's
// MD5 position in a small direct-mapped table. md5(key) never changes, so
// the memo needs no invalidation when nodes come and go (DESIGN.md §8).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"

namespace scale::hash {

/// Identifier of a node (an MMP VM) participating in the ring.
using RingNodeId = std::uint32_t;

class ConsistentHashRing {
 public:
  /// Virtual tokens per node; 1 = classic token-less consistent hashing.
  explicit ConsistentHashRing(unsigned tokens_per_node = 5);

  /// Adds a node; its tokens are deterministic functions of (node, index).
  /// Precondition: the node is not already present.
  void add_node(RingNodeId node);

  /// Removes a node and all its tokens. Precondition: node is present.
  void remove_node(RingNodeId node);

  bool contains(RingNodeId node) const;
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t token_count() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  std::vector<RingNodeId> nodes() const;

  /// Ring position of an arbitrary 64-bit key (e.g. a GUTI's M-TMSI):
  /// md5_u64(key), memoised.
  std::uint64_t position_of_key(std::uint64_t key) const;

  /// Master node for a key: first token clockwise from the key's position.
  /// Precondition: ring not empty.
  RingNodeId owner(std::uint64_t key) const;

  /// Master followed by the next n-1 *distinct* nodes clockwise — the
  /// replica preference list — written into `out` (cleared first), so
  /// per-request callers reuse one buffer instead of allocating on every
  /// call. Yields fewer entries if the ring has fewer than n nodes.
  /// Precondition: ring not empty.
  void preference_list(std::uint64_t key, std::size_t n,
                       std::vector<RingNodeId>& out) const;

  /// The single replica target (second entry of the preference list), or
  /// nullopt when the ring has only one node. Precondition: ring not empty.
  std::optional<RingNodeId> replica_of(std::uint64_t key) const;

  /// Fraction of the key space owned by `node` (sum of its arcs). Useful
  /// for balance tests; O(tokens).
  double ownership_fraction(RingNodeId node) const;

 private:
  std::uint64_t token_position(RingNodeId node, unsigned index) const;
  std::size_t first_token_at_or_after(std::uint64_t pos) const;

  // 1024 entries × 16 B = 16 KB per ring. A slot caches one (key,
  // position) pair; every slot starts as key 0's, so no entry is ever
  // invalid and no key needs a sentinel.
  static constexpr unsigned kMemoBits = 10;
  struct MemoEntry {
    std::uint64_t key;
    std::uint64_t pos;
  };

  unsigned tokens_per_node_;
  std::vector<std::pair<std::uint64_t, RingNodeId>> ring_;  // sorted by pos
  std::vector<RingNodeId> nodes_;                           // sorted
  mutable std::array<MemoEntry, std::size_t{1} << kMemoBits> memo_;
};

}  // namespace scale::hash
