// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a strictly increasing sequence number breaks ties), so a
// given seed always reproduces the same trajectory — the property every
// benchmark in this repo leans on.
//
// The hot path is allocation-free (DESIGN.md §8): events live in a
// slab-allocated slot pool threaded with a free list, their callbacks in
// InlineAction's 40-byte inline storage. The ready queue is an exact
// hierarchical timing wheel (Varghese & Lauck, SOSP '87) with three levels:
//
//   * the *fine* level: 2^16 buckets of 1 µs covering the current window
//     [cur·2^16, (cur+1)·2^16) µs — the only level events fire from;
//   * the *ring*: 1024 coarse slots of 2^16 µs (~65.5 ms) covering the next
//     1024 windows (~67 s), each emptied into the fine level when the clock
//     reaches it;
//   * the *overflow* heap: a 4-ary (time, seq) heap for anything later
//     (Time::max(), timers past the ring), pulled into the ring as the
//     windows it covers come into range.
//
// Every bucket and ring slot is a FIFO chain threaded through the slot pool
// itself (circular, doubly linked: two indices per slot), so the queue owns
// no per-bucket storage and pop is three count-trailing-zeros bitmap scans
// plus one unlink. FIFO order within a 1 µs bucket equals seq order: a
// direct schedule appends in seq order, and every move down a level (ring
// slot → fine buckets, overflow → ring) runs in FIFO or (time, seq) order
// before any later schedule can append to the slots it exposes.
//
// Cancellation is O(1) via generation-tagged EventIds: the handle packs
// (generation, slot), a slot's generation bumps on every release, so a stale
// handle can never touch a recycled slot (and cancel() after the event fired
// reports false). A cancelled wheel entry is unlinked on the spot and its
// slot reused at once; a cancelled overflow entry stays queued until the
// heap pops it or a sweep (once cancelled entries outnumber live ones there)
// removes it.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/inline_action.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation
/// (e.g. a UE inactivity timer reset on each request). Packs
/// (generation << 32 | slot); generations start at 1, so 0 is never a valid
/// id — callers may keep using 0 as an "unarmed" sentinel.
using EventId = std::uint64_t;

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time. Monotone non-decreasing across callbacks.
  Time now() const { return now_; }

  /// Schedule a callable at absolute time t (must be >= now()). Accepts any
  /// void() callable (or an InlineAction) and constructs it directly inside
  /// the event slot — no intermediate Action object. Defined inline (like
  /// the rest of the schedule/fire hot path) so callers' translation units
  /// can inline the whole event turnaround.
  template <typename F>
  EventId at(Time t, F&& fn) {
    SCALE_CHECK_MSG(t >= now_, "cannot schedule into the past");
    SCALE_CHECK_MSG(next_seq_ < kMaxSeq, "sequence space exhausted");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_slot();
    Slot& s = pool_[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, InlineAction>)
      s.action = std::forward<F>(fn);
    else
      s.action.emplace(std::forward<F>(fn));
    const EventId id = make_id(s.generation, slot);
    ++live_;
    // cur_ <= now_ >> kFineBits always holds, so the window distance is >= 0.
    const std::int64_t at_us = t.count_us();
    const std::int64_t d = (at_us >> kFineBits) - cur_;
    if (d == 0)
      fine_push(slot, at_us & kFineMask);
    else if (d <= kRingSlots)
      ring_push(slot, at_us);
    else
      push_overflow(slot, at_us, seq);
    return id;
  }

  /// Schedule a callable after a relative delay (must be >= 0).
  template <typename F>
  EventId after(Duration d, F&& fn) {
    SCALE_CHECK_MSG(d >= Duration::zero(), "negative delay");
    return at(now_ + d, std::forward<F>(fn));
  }

  /// Best-effort cancellation; returns false if the event already fired or
  /// was cancelled before.
  bool cancel(EventId id);

  /// Run until the event queue is empty or `limit` events have fired.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Run events with timestamp <= t, then advance the clock to exactly t.
  void run_until(Time t);

  /// True if nothing remains scheduled.
  bool idle() const { return live_ == 0; }

  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t events_scheduled() const { return next_seq_; }

  /// Credit logical events folded into one scheduled event by a batching
  /// layer (Fabric's same-destination delivery batches, DESIGN.md §12).
  /// Keeps events_processed meaning "logical deliveries + timers executed"
  /// — comparable across batched and unbatched builds — rather than
  /// counting scheduler bookkeeping.
  void credit_batched(std::uint64_t n) { processed_ += n; }

  /// Publish event-loop stats under `prefix` ("engine.events_processed",
  /// "engine.now_ms", ...). Read-only: scheduling is not perturbed.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Fine level: 2^kFineBits buckets of 1 µs; one window is one ring slot.
  static constexpr int kFineBits = 16;
  static constexpr std::int64_t kFineSlots = std::int64_t{1} << kFineBits;
  static constexpr std::int64_t kFineMask = kFineSlots - 1;
  /// Ring: the kRingSlots windows after the current one.
  static constexpr std::int64_t kRingSlots = 1024;
  static constexpr std::int64_t kRingMask = kRingSlots - 1;

  /// Slot::where of a queued event: a fine bucket index (< kInRing), a ring
  /// slot (kInRing | ring index << kFineBits | fine offset — the offset is
  /// the bucket it drops into when its window opens), or one of the two
  /// overflow tags.
  static constexpr std::uint32_t kInRing = 1u << 30;
  static constexpr std::uint32_t kInOverflow = 0xFFFF'FFFEu;
  /// Cancelled but still referenced by an overflow heap entry: the slot
  /// rejoins the free list when that entry is popped or swept.
  static constexpr std::uint32_t kCancelledInOverflow = 0xFFFF'FFFFu;

  /// Pooled event state, exactly one cacheline (48 + 4 × 4). While queued,
  /// next/prev link the slot into its bucket's chain; while free, next links
  /// the free list. The generation only matches an EventId while that exact
  /// event is armed, so no separate `armed` flag is needed.
  struct Slot {
    InlineAction action;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
    std::uint32_t generation = 1;  ///< bumped on release; part of EventId
    std::uint32_t where = 0;       ///< queue position, see kInRing
  };
  static_assert(sizeof(Slot) == 64, "Slot should stay one cacheline");

  /// Overflow heap entries pack to 16 bytes: slot in the low 24 bits
  /// (≤ 16.7M concurrent events, checked in acquire_slot), seq in the high
  /// 40 (≥ 10^12 events per engine, checked in at()). seq is unique, so
  /// ordering by the packed word equals ordering by seq.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  struct HeapEntry {
    std::int64_t at_us;      ///< Time::count_us of the deadline
    std::uint64_t seq_slot;  ///< (seq << kSlotBits) | pool index
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
  };

  /// Bucket heads and occupancy bitmaps of the fine level and the ring, in
  /// one block. A head is read only while its bitmap bit is set, so the
  /// head arrays are never initialised (and their pages never touched
  /// before a bucket is used).
  struct Wheel {
    std::array<std::uint32_t, kFineSlots> fine_head;
    std::array<std::uint64_t, kFineSlots / 64> fine_bits;
    std::array<std::uint64_t, kFineSlots / 64 / 64> fine_mid;
    std::array<std::uint32_t, kRingSlots> ring_head;
    std::array<std::uint64_t, kRingSlots / 64> ring_bits;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFF'FFFFu);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// The slot pool and the overflow heap (on first use) start with room
  /// for this many events: one up-front allocation replaces the doubling
  /// ladder a default-constructed vector climbs.
  static constexpr std::size_t kInitialCapacity = 512;

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = pool_[slot].next;
      return slot;
    }
    SCALE_CHECK_MSG(pool_.size() < kMaxSlots, "event pool exhausted");
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  /// The event in `slot` is no longer armed (its action was moved out):
  /// stale EventIds now fail cancel()'s compare.
  void retire(std::uint32_t slot) {
    ++pool_[slot].generation;
    --live_;
  }

  void free_slot(std::uint32_t slot) {
    pool_[slot].next = free_head_;
    free_head_ = slot;
  }

  /// Append `x` to the chain at `head` (circular: the head's prev is the
  /// tail); `empty` says the chain has no entries yet.
  void chain_append(std::uint32_t& head, bool empty, std::uint32_t x) {
    Slot& n = pool_[x];
    if (empty) {
      n.next = n.prev = x;
      head = x;
      return;
    }
    Slot& h = pool_[head];
    const std::uint32_t tail = h.prev;
    n.prev = tail;
    n.next = head;
    pool_[tail].next = x;
    h.prev = x;
  }

  /// Unlink `x` from the chain at `head`; true if the chain is now empty.
  bool chain_unlink(std::uint32_t& head, std::uint32_t x) {
    const Slot& n = pool_[x];
    if (n.next == x) return true;
    pool_[n.prev].next = n.next;
    pool_[n.next].prev = n.prev;
    if (head == x) head = n.next;
    return false;
  }

  void fine_push(std::uint32_t x, std::int64_t b) {
    Wheel& w = *wheel_;
    pool_[x].where = static_cast<std::uint32_t>(b);
    std::uint64_t& word = w.fine_bits[static_cast<std::size_t>(b >> 6)];
    const std::uint64_t bit = 1ull << (b & 63);
    chain_append(w.fine_head[static_cast<std::size_t>(b)], (word & bit) == 0,
                 x);
    word |= bit;
    w.fine_mid[static_cast<std::size_t>(b >> 12)] |= 1ull << ((b >> 6) & 63);
    fine_top_ |= 1ull << (b >> 12);
  }

  void fine_unlink(std::uint32_t x, std::int64_t b) {
    Wheel& w = *wheel_;
    if (!chain_unlink(w.fine_head[static_cast<std::size_t>(b)], x)) return;
    std::uint64_t& word = w.fine_bits[static_cast<std::size_t>(b >> 6)];
    word &= ~(1ull << (b & 63));
    if (word != 0) return;
    std::uint64_t& mid = w.fine_mid[static_cast<std::size_t>(b >> 12)];
    mid &= ~(1ull << ((b >> 6) & 63));
    if (mid == 0) fine_top_ &= ~(1ull << (b >> 12));
  }

  /// Index of the earliest non-empty fine bucket (fine_top_ != 0).
  std::int64_t fine_first() const {
    const Wheel& w = *wheel_;
    const int top = std::countr_zero(fine_top_);
    const std::int64_t mid =
        top * 64 + std::countr_zero(w.fine_mid[static_cast<std::size_t>(top)]);
    return mid * 64 +
           std::countr_zero(w.fine_bits[static_cast<std::size_t>(mid)]);
  }

  void ring_push(std::uint32_t x, std::int64_t at_us) {
    Wheel& w = *wheel_;
    const std::int64_t i = (at_us >> kFineBits) & kRingMask;
    pool_[x].where = kInRing | static_cast<std::uint32_t>(
                                   (i << kFineBits) | (at_us & kFineMask));
    std::uint64_t& word = w.ring_bits[static_cast<std::size_t>(i >> 6)];
    const std::uint64_t bit = 1ull << (i & 63);
    chain_append(w.ring_head[static_cast<std::size_t>(i)], (word & bit) == 0,
                 x);
    word |= bit;
    ring_top_ |= 1ull << (i >> 6);
  }

  /// Ring slot `i` is now empty.
  void ring_clear(std::size_t i) {
    std::uint64_t& word = wheel_->ring_bits[i >> 6];
    word &= ~(1ull << (i & 63));
    if (word == 0) ring_top_ &= ~(1ull << (i >> 6));
  }

  /// Earliest live event's fine bucket if its deadline is <= limit_us, else
  /// -1. Opens ring slots (and pulls overflow entries) only for windows
  /// that start at or before limit_us, so the current window never starts
  /// after the clock run_until parks at. Fires nothing.
  std::int64_t next_due(std::int64_t limit_us) {
    while (fine_top_ == 0) {
      const std::int64_t k = next_window();
      if (k < 0 || (k << kFineBits) > limit_us) return -1;
      open_window(k);
    }
    const std::int64_t b = fine_first();
    return base_us_ + b <= limit_us ? b : -1;
  }

  /// Fire the head of fine bucket `b`. Detaches the callback and frees the
  /// slot before invoking it, so the callback can freely schedule into (and
  /// grow) the pool and the queue.
  void fire(std::int64_t b) {
    now_ = Time::from_us(base_us_ + b);
    const std::uint32_t x = wheel_->fine_head[static_cast<std::size_t>(b)];
    fine_unlink(x, b);
    InlineAction action = std::move(pool_[x].action);
    retire(x);
    free_slot(x);
    ++processed_;
    action();
  }

  std::int64_t next_window();
  void open_window(std::int64_t k);
  void push_overflow(std::uint32_t slot, std::int64_t at_us, std::uint64_t seq);
  void pop_overflow();
  void sweep_overflow();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t live_ = 0;   ///< armed (scheduled, not fired/cancelled) events
  std::uint64_t stale_ = 0;  ///< cancelled entries still in the overflow heap
  std::vector<Slot> pool_;
  std::uint32_t free_head_ = kNoSlot;
  /// The current window: the fine level holds deadlines in
  /// [base_us_, base_us_ + kFineSlots), base_us_ == cur_ << kFineBits, and
  /// the ring the windows cur_ + 1 .. cur_ + kRingSlots.
  std::int64_t cur_ = 0;
  std::int64_t base_us_ = 0;
  std::uint64_t fine_top_ = 0;  ///< bit i: Wheel::fine_mid[i] != 0
  std::uint64_t ring_top_ = 0;  ///< bit i: Wheel::ring_bits[i] != 0
  std::unique_ptr<Wheel> wheel_;
  /// Implicit 4-ary (time, seq) min-heap of deadlines past the ring.
  std::vector<HeapEntry> overflow_;
};

}  // namespace scale::sim
