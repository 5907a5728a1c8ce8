#include "hash/ring.h"

#include <algorithm>

#include "hash/md5.h"

namespace scale::hash {

ConsistentHashRing::ConsistentHashRing(unsigned tokens_per_node)
    : tokens_per_node_(tokens_per_node) {
  SCALE_CHECK(tokens_per_node_ >= 1);
  memo_.fill(MemoEntry{0, md5_u64(0)});
}

std::uint64_t ConsistentHashRing::token_position(RingNodeId node,
                                                 unsigned index) const {
  // Mix node id and token index into one 64-bit key, then hash. The mixing
  // constant keeps (node=1, idx=0) far from (node=0, idx=1).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(node) << 20) ^ index ^ 0xA5A5'0000'0000ull;
  return md5_u64(key);
}

void ConsistentHashRing::add_node(RingNodeId node) {
  SCALE_CHECK_MSG(!contains(node), "node already on ring");
  for (unsigned i = 0; i < tokens_per_node_; ++i) {
    std::uint64_t pos = token_position(node, i);
    // Token collisions across nodes are astronomically unlikely but would
    // make ownership order-dependent; perturb deterministically if one
    // occurs.
    while (std::binary_search(
        ring_.begin(), ring_.end(), std::make_pair(pos, RingNodeId{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; })) {
      pos = md5_u64(pos);
    }
    ring_.emplace_back(pos, node);
  }
  std::sort(ring_.begin(), ring_.end());
  nodes_.insert(std::upper_bound(nodes_.begin(), nodes_.end(), node), node);
}

void ConsistentHashRing::remove_node(RingNodeId node) {
  SCALE_CHECK_MSG(contains(node), "node not on ring");
  std::erase_if(ring_, [node](const auto& t) { return t.second == node; });
  nodes_.erase(std::find(nodes_.begin(), nodes_.end(), node));
}

bool ConsistentHashRing::contains(RingNodeId node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

std::vector<RingNodeId> ConsistentHashRing::nodes() const { return nodes_; }

std::uint64_t ConsistentHashRing::position_of_key(std::uint64_t key) const {
  // Fibonacci hashing spreads near-sequential GUTI keys over the slots.
  MemoEntry& e = memo_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits)];
  if (e.key != key) e = MemoEntry{key, md5_u64(key)};
  return e.pos;
}

std::size_t ConsistentHashRing::first_token_at_or_after(
    std::uint64_t pos) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), pos,
      [](const auto& token, std::uint64_t p) { return token.first < p; });
  if (it == ring_.end()) return 0;  // wrap around
  return static_cast<std::size_t>(it - ring_.begin());
}

RingNodeId ConsistentHashRing::owner(std::uint64_t key) const {
  SCALE_CHECK_MSG(!ring_.empty(), "owner() on empty ring");
  return ring_[first_token_at_or_after(position_of_key(key))].second;
}

void ConsistentHashRing::preference_list(std::uint64_t key, std::size_t n,
                                         std::vector<RingNodeId>& out) const {
  SCALE_CHECK_MSG(!ring_.empty(), "preference_list() on empty ring");
  out.clear();
  out.reserve(std::min(n, nodes_.size()));
  std::size_t idx = first_token_at_or_after(position_of_key(key));
  for (std::size_t walked = 0;
       walked < ring_.size() && out.size() < std::min(n, nodes_.size());
       ++walked) {
    const RingNodeId candidate = ring_[idx].second;
    if (std::find(out.begin(), out.end(), candidate) == out.end())
      out.push_back(candidate);
    idx = (idx + 1) % ring_.size();
  }
}

std::optional<RingNodeId> ConsistentHashRing::replica_of(
    std::uint64_t key) const {
  SCALE_CHECK_MSG(!ring_.empty(), "replica_of() on empty ring");
  if (nodes_.size() < 2) return std::nullopt;
  // The first token clockwise that belongs to another node than the
  // master's; one exists since the ring holds two nodes.
  std::size_t idx = first_token_at_or_after(position_of_key(key));
  const RingNodeId master = ring_[idx].second;
  while (ring_[idx].second == master) idx = (idx + 1) % ring_.size();
  return ring_[idx].second;
}

double ConsistentHashRing::ownership_fraction(RingNodeId node) const {
  SCALE_CHECK(!ring_.empty());
  if (ring_.size() == 1) return ring_[0].second == node ? 1.0 : 0.0;
  // Each token owns the arc that *ends* at its position (keys map clockwise
  // to the first token at-or-after them).
  long double owned = 0.0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].second != node) continue;
    const std::uint64_t end = ring_[i].first;
    const std::uint64_t start =
        i == 0 ? ring_.back().first : ring_[i - 1].first;
    const std::uint64_t arc = end - start;  // wraps correctly mod 2^64
    owned += static_cast<long double>(arc);
  }
  return static_cast<double>(owned / 18446744073709551615.0L);
}

}  // namespace scale::hash
