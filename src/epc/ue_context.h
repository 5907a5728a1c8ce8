// Per-device MME state and the store that holds it.
//
// The store tracks three replica roles (§4.3): Master (the hash-ring owner
// within the home DC), Replica (ring-neighbor copy used for fine-grained
// load balancing), and External (a geo replica held for a *remote* DC).
// Memory accounting is explicit because VM provisioning trades compute
// against exactly this footprint (Eq. 1: V_S = ⌈β·R·K/S⌉).
//
// Layout (DESIGN.md §12, "Memory layout at scale"): records live in a
// chunked slab — fixed-size chunks that never move, so `insert()`'s
// stable-reference contract survives growth to 10⁶+ contexts — addressed by
// a 32-bit slot number. A chunk is raw storage; a slot is constructed the
// first time it is handed out, so the untouched tail of the newest chunk
// costs no resident memory. All four lookup paths (GUTI key, IMSI, MME
// TEID, MME-UE-S1AP id) are open-addressing FlatIndex tables mapping key →
// slot, with 8-byte entries for the two 32-bit identifiers. Per-slot
// runtime fields (epoch hits, inactivity timer) are struct-of-arrays
// columns indexed by slot, so the per-epoch wᵢ sweep walks a dense u32
// array instead of striding 128-byte records.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "epc/flat_index.h"
#include "proto/cluster.h"
#include "sim/engine.h"

namespace scale::epc {

enum class ContextRole : std::uint8_t {
  kMaster = 0,
  kReplica = 1,
  kExternal = 2,  ///< geo replica owned by a remote DC
};

/// One device's state as held by an MME/MMP VM: the serializable record
/// plus the runtime bookkeeping that travels with the record. Per-slot
/// runtime state (epoch hits, inactivity timer) lives in UeContextStore
/// columns — access it through the store.
struct UeContext {
  proto::UeContextRecord rec;
  ContextRole role = ContextRole::kMaster;

  // Runtime-only fields (never serialized; reset on transfer):
  bool replica_dirty = false;     ///< replica copy is stale vs this copy
  std::uint32_t serving_mmp = 0;  ///< VM currently serving its Active run

  std::uint64_t key() const { return rec.guti.key(); }

 private:
  friend class UeContextStore;
  std::uint32_t slot_ = 0xFFFFFFFFu;  ///< slab slot; column row id
  // What the store has indexed for this context (0 = nothing) — the exact
  // erase / stale-entry fix: rec identifiers may be overwritten before
  // re-indexing, so the store remembers the indexed key itself. Kept next
  // to the record, not in columns: every re-index reads the record too.
  std::uint64_t indexed_imsi_ = 0;
  std::uint32_t indexed_teid_ = 0;
  std::uint32_t indexed_ue_id_ = 0;
  // One-deep aliases: the identifier indexed *before* the current one —
  // still routable for in-flight messages, retired on the next
  // reassignment (see sync_teid in ue_context.cpp).
  std::uint32_t prev_teid_ = 0;
  std::uint32_t prev_ue_id_ = 0;
};

// Slab chunks are released without running destructors (see ChunkFree).
static_assert(std::is_trivially_destructible_v<UeContext>);
// Two cache lines: the record plus what the store indexed for it.
static_assert(sizeof(UeContext) == 128);

/// Container for UeContexts with secondary indices (IMSI, MME TEID,
/// MME-UE-S1AP id) and byte-level memory accounting.
class UeContextStore {
 public:
  /// Inserts a context; returns a stable reference (the record address
  /// never changes for the context's lifetime, across any store growth).
  /// Precondition: no context with the same GUTI key exists; secondary
  /// identifiers, where set, collide with no live context.
  UeContext& insert(proto::UeContextRecord rec, ContextRole role);

  /// Lookup by GUTI key; nullptr if absent.
  UeContext* find(std::uint64_t guti_key) {
    const std::uint32_t slot = by_key_.find(guti_key);
    return slot == FlatIndex::kNone ? nullptr : slot_ptr(slot);
  }
  const UeContext* find(std::uint64_t guti_key) const {
    const std::uint32_t slot = by_key_.find(guti_key);
    return slot == FlatIndex::kNone ? nullptr : slot_ptr(slot);
  }

  UeContext* find_by_imsi(proto::Imsi imsi);
  /// The IMSI this context holds the index entry for (0 if none). Nonzero
  /// means find_by_imsi(that IMSI) returns this context.
  proto::Imsi indexed_imsi(const UeContext& ctx) const {
    return ctx.indexed_imsi_;
  }
  UeContext* find_by_teid(proto::Teid mme_teid);
  UeContext* find_by_mme_ue_id(proto::MmeUeId id);

  /// Re-index a context after the MME assigns identifiers mid-procedure.
  /// The store remembers what it indexed (shadow columns), so a re-assigned
  /// TEID/UE-id unindexes the old key exactly — no stale entries — and a
  /// collision with a different live context CHECK-fails instead of
  /// silently overwriting.
  void index_teid(UeContext& ctx) { sync_teid(ctx); }
  void index_mme_ue_id(UeContext& ctx) { sync_ue_id(ctx); }
  /// Sync all secondary indices to the context's current record (used
  /// after wholesale record replacement, e.g. MmeApp::adopt).
  void reindex(UeContext& ctx) {
    sync_imsi(ctx);
    sync_teid(ctx);
    sync_ue_id(ctx);
  }

  /// Change a context's replica role, keeping accounting consistent (ring
  /// membership changes promote replicas to masters and vice versa).
  void set_role(UeContext& ctx, ContextRole role);

  /// Re-key a context under a new GUTI (a classic MME assigns a fresh GUTI
  /// — with its own MME code — when it adopts a reassigned device).
  /// Precondition: old key present, new key absent. Returns the context.
  UeContext& rekey(std::uint64_t old_key, const proto::Guti& new_guti);

  /// Removes a context. Precondition: present.
  void erase(std::uint64_t guti_key);
  bool contains(std::uint64_t guti_key) const {
    return by_key_.contains(guti_key);
  }

  std::size_t size() const { return size_; }
  std::size_t count(ContextRole role) const {
    return role_count_[role_index(role)];
  }
  std::uint64_t bytes(ContextRole role) const {
    return role_bytes_[role_index(role)];
  }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Actual container memory: constructed slab slots + SoA columns + index
  /// tables (the denominator of the bytes-per-UE budget, DESIGN.md §12).
  /// The never-handed-out tail of the newest chunk is not counted: it is
  /// never written, so it is never resident. Excludes the heap the
  /// records' own state_bytes model.
  std::size_t footprint_bytes() const;

  // --- SoA runtime columns ------------------------------------------------
  // Indexed by the context's slab slot; accessed through the store so the
  // hot sweeps can touch the dense columns without loading records.
  void add_epoch_hit(UeContext& ctx) { ++epoch_hits_[ctx.slot_]; }
  void set_epoch_hits(UeContext& ctx, std::uint32_t hits) {
    epoch_hits_[ctx.slot_] = hits;
  }

  /// Inactivity-timer column: EventId 0 is the engine's never-valid
  /// sentinel, so one u64 cell encodes both "armed?" and the handle.
  bool timer_armed(const UeContext& ctx) const {
    return timer_[ctx.slot_] != 0;
  }
  void arm_timer(UeContext& ctx, sim::EventId id) {
    SCALE_CHECK_MSG(id != 0, "EventId 0 is the unarmed sentinel");
    timer_[ctx.slot_] = id;
  }
  /// Clears the timer cell; returns the previously armed id (0 if none).
  /// The caller owns cancellation — a fired timer clears without a cancel.
  sim::EventId disarm_timer(UeContext& ctx) {
    return std::exchange(timer_[ctx.slot_], sim::EventId{0});
  }

  /// Visit every context (mutable) in ascending GUTI-key order;
  /// insertion/erasure during iteration is not allowed. Sorted order, not
  /// table order: epoch sweeps draw RNG per visited context (geo candidate
  /// selection, eviction marking), so index-layout order would leak into
  /// the trajectory (DESIGN.md §6, L2).
  template <class Fn>
  void for_each(Fn&& fn) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> snapshot;
    snapshot.reserve(size_);
    // lint: order-independent — the snapshot is sorted before any visit.
    by_key_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
      snapshot.emplace_back(key, slot);
    });
    std::sort(snapshot.begin(), snapshot.end());
    for (const auto& [key, slot] : snapshot) fn(*slot_ptr(slot));
  }

  /// Collect the GUTI keys of contexts matching a predicate. Migration and
  /// eviction iterate this list and emit messages per key, so its order is
  /// trajectory-visible; sorted to make it layout-free.
  template <class Pred>
  std::vector<std::uint64_t> keys_if(Pred&& pred) const {
    std::vector<std::uint64_t> keys;
    // lint: order-independent — the keys are sorted before they return.
    by_key_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
      if (pred(*slot_ptr(slot))) keys.push_back(key);
    });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Dense slot-order sweep over (context, epoch-hit cell) — the wᵢ-EWMA
  /// epoch scan. Slot order is insertion-history-dependent: callers must be
  /// order-independent per visit (no RNG draws, no FP accumulation across
  /// visits, no per-visit message emission).
  template <class Fn>
  void epoch_scan(Fn&& fn) {
    const std::uint32_t n = static_cast<std::uint32_t>(live_.size());
    for (std::uint32_t s = 0; s < n; ++s)
      if (live_[s]) fn(*slot_ptr(s), epoch_hits_[s]);
  }

  /// Dense slot-order read-only sweep; same order caveat as epoch_scan.
  template <class Fn>
  void scan(Fn&& fn) const {
    const std::uint32_t n = static_cast<std::uint32_t>(live_.size());
    for (std::uint32_t s = 0; s < n; ++s)
      if (live_[s]) fn(*slot_ptr(s));
  }

  /// Debug invariant check: every index entry round-trips to a live
  /// context, shadow columns mirror the indices, role/byte accounting sums
  /// match, and the free list accounts for every dead slot. O(n); called
  /// from tests (churn) and deliberately cheap enough for bench asserts.
  void audit() const;

 private:
  // 8192 records per chunk: 1 MB chunks, 123 chunks at 10⁶ UEs. Chunks
  // never move or shrink; freed slots are recycled LIFO.
  static constexpr std::uint32_t kChunkShift = 13;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // A chunk is uninitialized storage for kChunkSize records; alloc_slot
  // constructs each slot on first hand-out. UeContext is trivially
  // destructible, so releasing the storage is all a chunk's teardown needs.
  struct ChunkFree {
    void operator()(UeContext* chunk) const {
      std::allocator<UeContext>().deallocate(chunk, kChunkSize);
    }
  };

  static std::size_t role_index(ContextRole role) {
    const auto i = static_cast<std::size_t>(role);
    SCALE_CHECK_MSG(i < 3, "invalid ContextRole");
    return i;
  }

  UeContext* slot_ptr(std::uint32_t slot) {
    return &chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const UeContext* slot_ptr(std::uint32_t slot) const {
    return &chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot();

  // Shadow-column index sync: unindex exactly what was indexed before,
  // CHECK collisions, index the current record value.
  void sync_imsi(UeContext& ctx);
  void sync_teid(UeContext& ctx);
  void sync_ue_id(UeContext& ctx);

  std::vector<std::unique_ptr<UeContext[], ChunkFree>> chunks_;
  std::vector<std::uint32_t> free_;  ///< dead slots, reused LIFO

  // SoA columns, slot-indexed (sized with the slab, never shrunk):
  std::vector<std::uint8_t> live_;  ///< also counts the constructed slots
  std::vector<std::uint32_t> epoch_hits_;
  std::vector<sim::EventId> timer_;

  FlatIndex by_key_;
  FlatIndex by_imsi_;
  FlatIndex32 by_teid_;
  FlatIndex32 by_ue_id_;

  std::size_t size_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint64_t, 3> role_bytes_{};
  std::array<std::size_t, 3> role_count_{};
};

}  // namespace scale::epc
