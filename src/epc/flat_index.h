// FlatIndex — open-addressing hash index from an integer key to a 32-bit
// slot number, used by UeContextStore for its GUTI/IMSI/TEID/MME-UE-id
// indices.
//
// Robin-hood linear probing over one flat power-of-two array: lookups touch
// one cache line in the common case instead of chasing an unordered_map
// bucket node, and the table stores plain {key, slot} entries — 16 B for a
// 64-bit key (GUTI, IMSI), 8 B for a 32-bit one (TEID, MME-UE-id) — so
// holding 10⁶ keys costs ~16 MB (resp. ~8 MB) per index at full load instead
// of ~48 MB of node heap (ROADMAP item 2; DESIGN.md §12). Deletion uses
// backward-shift so there are no tombstones and probe distances stay minimal
// under churn.
//
// Both key widths hash the zero-extended 64-bit key, so a 32-bit table
// probes exactly as a 64-bit table holding the same keys would.
//
// FlatMap<Key, Value> puts a value store behind the same index: the
// per-PDU node tables (eNB connections and camped UEs, S-GW sessions, MME
// transactions) that were std::unordered_maps paying one heap node per
// insert (DESIGN.md §8, HotLoop III).
//
// Determinism note: the table layout (and hence for_each_entry / for_each
// order) depends on insertion history, never on pointer values or a
// per-process seed — the same trajectory always produces the same layout.
// Callers that surface iteration order (UeContextStore::for_each/keys_if,
// EnodeB::rrc_sweep) still sort by key so no layout detail leaks into
// trajectories; ScaleLint L2 flags every unannotated walk.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace scale::epc {

template <class Key>
class BasicFlatIndex {
  static_assert(std::is_same_v<Key, std::uint32_t> ||
                    std::is_same_v<Key, std::uint64_t>,
                "FlatIndex keys are u32 or u64");

 public:
  /// Sentinel "no slot": also the only illegal value argument to insert().
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Slot mapped to `key`, or kNone.
  std::uint32_t find(Key key) const {
    if (size_ == 0) return kNone;
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = bucket(key);
    for (std::uint32_t dist = 0;; ++dist, i = (i + 1) & mask) {
      const Entry& e = slots_[i];
      if (e.value == kNone) return kNone;
      if (e.key == key) return e.value;
      // Robin-hood invariant: every resident entry sits at least as far
      // from its home bucket as any key still probing past it — so once we
      // pass an entry that is *closer* to home than our probe is long, the
      // key cannot be further along.
      if (probe_dist(e.key, i) < dist) return kNone;
    }
  }

  bool contains(Key key) const { return find(key) != kNone; }

  /// Maps `key` to `value`. Precondition: key absent, value != kNone.
  void insert(Key key, std::uint32_t value) {
    SCALE_CHECK_MSG(value != kNone, "FlatIndex value is the empty sentinel");
    if (cap_ == 0 || (size_ + 1) * 8 > static_cast<std::size_t>(cap_) * 7)
      grow();
    insert_unchecked(key, value);
    ++size_;
  }

  /// Removes `key`; returns false if it was absent.
  bool erase(Key key) {
    if (size_ == 0) return false;
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = bucket(key);
    for (std::uint32_t dist = 0;; ++dist, i = (i + 1) & mask) {
      const Entry& e = slots_[i];
      if (e.value == kNone) return false;
      if (e.key == key) break;
      if (probe_dist(e.key, i) < dist) return false;
    }
    // Backward-shift: pull successors one step toward home until a hole or
    // an at-home entry; no tombstone is left behind.
    std::uint32_t j = (i + 1) & mask;
    while (slots_[j].value != kNone && probe_dist(slots_[j].key, j) > 0) {
      slots_[i] = slots_[j];
      i = j;
      j = (j + 1) & mask;
    }
    slots_[i].value = kNone;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// Bytes held by the table array (footprint accounting, DESIGN.md §12).
  std::size_t memory_bytes() const { return cap_ * sizeof(Entry); }

  /// Visit every (key, slot) entry in table order. Table order is
  /// insertion-history-dependent: use only for order-independent work
  /// (audits, snapshot-then-sort) — see the determinism note above.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::uint32_t i = 0; i < cap_; ++i)
      if (slots_[i].value != kNone) fn(slots_[i].key, slots_[i].value);
  }

 private:
  struct Entry {
    Key key = 0;
    std::uint32_t value = kNone;
  };

  // splitmix64 finalizer: GUTI/TEID keys are near-sequential, so the table
  // needs a strong bit mix ahead of the power-of-two mask.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::uint32_t bucket(Key key) const {
    return static_cast<std::uint32_t>(mix(key)) & (cap_ - 1);
  }

  std::uint32_t probe_dist(Key key, std::uint32_t at) const {
    return (at + cap_ - bucket(key)) & (cap_ - 1);
  }

  void insert_unchecked(Key key, std::uint32_t value) {
    const std::uint32_t mask = cap_ - 1;
    Entry cur{key, value};
    std::uint32_t i = bucket(cur.key);
    for (std::uint32_t dist = 0;; ++dist, i = (i + 1) & mask) {
      Entry& e = slots_[i];
      if (e.value == kNone) {
        e = cur;
        return;
      }
      const std::uint32_t d = probe_dist(e.key, i);
      if (d < dist) {  // rich entry: displace it, keep probing with it
        std::swap(e, cur);
        dist = d;
      }
    }
  }

  void grow() {
    const std::uint32_t new_cap = cap_ == 0 ? 64 : cap_ * 2;
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(new_cap, Entry{});
    cap_ = new_cap;
    for (const Entry& e : old)
      if (e.value != kNone) insert_unchecked(e.key, e.value);
  }

  std::vector<Entry> slots_;
  std::uint32_t cap_ = 0;
  std::size_t size_ = 0;
};

/// GUTI-key and IMSI indices: 16-byte entries.
using FlatIndex = BasicFlatIndex<std::uint64_t>;
/// TEID and MME-UE-id indices (32-bit raw identifiers): 8-byte entries.
using FlatIndex32 = BasicFlatIndex<std::uint32_t>;

/// Key → Value table: a BasicFlatIndex maps the key to a slot in a value
/// store of chunks that double in size and never move, so a reference to a
/// value stays valid until its own key is erased, across any growth. Erased
/// slots are recycled LIFO through a free list: a table at steady size
/// makes no heap call.
template <class Key, class Value>
class FlatMap {
 public:
  Value* find(Key key) {
    const std::uint32_t slot = index_.find(key);
    return slot == kNone ? nullptr : &at(slot);
  }
  const Value* find(Key key) const {
    const std::uint32_t slot = index_.find(key);
    return slot == kNone ? nullptr : &at(slot);
  }
  bool contains(Key key) const { return index_.contains(key); }

  /// The value mapped to `key`; inserts a value-initialized one if absent.
  Value& operator[](Key key) {
    const std::uint32_t found = index_.find(key);
    if (found != kNone) return at(found);
    const std::uint32_t slot = alloc_slot();
    index_.insert(key, slot);
    return at(slot) = Value{};
  }

  /// Removes `key`; returns false if it was absent.
  bool erase(Key key) {
    const std::uint32_t slot = index_.find(key);
    if (slot == kNone) return false;
    index_.erase(key);
    free_.push_back(slot);
    return true;
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Visit every (key, value) in table order — insertion-history-dependent,
  /// like BasicFlatIndex::for_each_entry: use only for order-independent
  /// work, or collect and sort. No insert or erase during the walk.
  template <class Fn>
  void for_each(Fn&& fn) {
    // lint: order-independent — pass-through; L2 checks each caller.
    index_.for_each_entry([&](Key key, std::uint32_t slot) {
      fn(key, at(slot));
    });
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    // lint: order-independent — pass-through; L2 checks each caller.
    index_.for_each_entry([&](Key key, std::uint32_t slot) {
      fn(key, at(slot));
    });
  }

 private:
  static constexpr std::uint32_t kNone = BasicFlatIndex<Key>::kNone;
  // Chunk c holds kFirst << c slots and starts at slot kFirst·(2^c − 1).
  static constexpr std::uint32_t kFirstShift = 4;
  static constexpr std::uint32_t kFirst = 1u << kFirstShift;

  /// (chunk, offset) of a slot.
  static std::pair<std::size_t, std::uint32_t> locate(std::uint32_t slot) {
    const std::uint32_t j = slot + kFirst;
    const auto c = static_cast<std::uint32_t>(std::bit_width(j)) - 1 -
                   kFirstShift;
    return {c, j - (kFirst << c)};
  }
  Value& at(std::uint32_t slot) {
    const auto [c, off] = locate(slot);
    return chunks_[c][off];
  }
  const Value& at(std::uint32_t slot) const {
    const auto [c, off] = locate(slot);
    return chunks_[c][off];
  }

  std::uint32_t alloc_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (slots_ == (kFirst << chunks_.size()) - kFirst)
      chunks_.push_back(std::make_unique<Value[]>(kFirst << chunks_.size()));
    return slots_++;
  }

  BasicFlatIndex<Key> index_;
  std::vector<std::unique_ptr<Value[]>> chunks_;
  std::vector<std::uint32_t> free_;  ///< erased slots, reused LIFO
  std::uint32_t slots_ = 0;          ///< slots handed out so far
};

}  // namespace scale::epc
