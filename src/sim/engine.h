// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a strictly increasing sequence number breaks ties), so a
// given seed always reproduces the same trajectory — the property every
// benchmark in this repo leans on.
//
// The hot path is allocation-free (DESIGN.md §8): events live in a
// slab-allocated slot pool threaded with a free list, their callbacks in
// InlineAction's 40-byte inline storage. The ready queue has two tiers of
// 16-byte (time, seq|slot) entries, each an implicit 4-ary min-heap —
// shallower and more cache-friendly than a binary heap, with no per-node
// pointers. The *near* heap holds every deadline before a moving horizon
// (~65 ms past the earliest pending event when it was last refilled) and is
// the only tier events fire from; the *far* heap holds everything later and
// refills the near heap, in order, whenever the near heap runs dry. Most
// events (message hops, CPU completions) never leave the small near heap;
// only long timers pay the big heap's cache misses, once each.
//
// Cancellation is O(1) via generation-tagged EventIds: the handle packs
// (generation, slot), a slot's generation bumps on every release, so a stale
// handle can never touch a recycled slot (and cancel() after the event fired
// reports false). A cancelled entry stays queued until it is popped, moved
// from the far to the near tier (where it is dropped), or swept by an O(n)
// rebuild of both tiers once cancelled entries outnumber live ones — so a
// cancelled 30 s guard timer leaves the queue long before its deadline.
#pragma once

#include <cstdint>
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
  using Action = InlineAction;

  Engine() {
    pool_.reserve(kInitialCapacity);
    near_.reserve(kInitialCapacity);
  }
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
    s.seq = seq;
    const EventId id = make_id(s.generation, slot);
    ++live_;
    const HeapEntry e{t.count_us(), (seq << kSlotBits) | slot};
    if (e.at_us < horizon_us_)
      heap_push(near_, e);
    else
      push_far(e);
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
  /// seq value a released slot is poisoned with; never equals a real seq,
  /// so one compare answers "is this heap entry still live?".
  static constexpr std::uint64_t kFreeSeq = UINT64_MAX;

  /// Pooled event state, exactly one cacheline (48 + 8 + 4 + 4). A heap
  /// entry is live iff its slot still holds the same seq — release poisons
  /// seq and bumps the generation, so stale heap entries and stale EventIds
  /// each fail their single compare. No separate `armed` flag needed: the
  /// generation only matches an EventId while that exact event is armed.
  struct Slot {
    InlineAction action;
    std::uint64_t seq = kFreeSeq;
    std::uint32_t generation = 1;  ///< bumped on release; part of EventId
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Slot) == 64, "Slot should stay one cacheline");

  /// Heap entries pack to 16 bytes so all four children of a 4-ary node
  /// share one cacheline and the sift loops move half the data. seq and
  /// slot share a word: slot in the low 24 bits (≤ 16.7M concurrent
  /// events, checked in acquire_slot), seq in the high 40 (≥ 10^12 events
  /// per engine, checked in at()). seq is unique, so ordering by the packed
  /// word equals ordering by seq — slot bits never influence the order.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  struct HeapEntry {
    std::int64_t at_us;      ///< Time::count_us of the deadline
    std::uint64_t seq_slot;  ///< (seq << kSlotBits) | pool index
    std::uint64_t seq() const { return seq_slot >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
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

  /// Fires at equal `at` resolve by schedule order — the exact total order
  /// of the old priority_queue comparator (seq is unique). Written with
  /// bitwise ops so the sift loops compile to cmovs instead of branches:
  /// child-vs-child time comparisons are coin flips the predictor loses.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return (a.at_us < b.at_us) |
           ((a.at_us == b.at_us) & (a.seq_slot < b.seq_slot));
  }

  /// c ? a : b as mask arithmetic. The ternary spelling leaves the choice to
  /// the compiler, which (measured, gcc -O2) emits compare-and-branch inside
  /// the sift loop — exactly the unpredictable branch earlier() exists to
  /// avoid. Masks force branch-free selection.
  static HeapEntry blend(bool c, const HeapEntry& a, const HeapEntry& b) {
    const std::uint64_t m = 0ull - static_cast<std::uint64_t>(c);
    HeapEntry r;
    r.at_us = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(a.at_us) & m) |
        (static_cast<std::uint64_t>(b.at_us) & ~m));
    r.seq_slot = (a.seq_slot & m) | (b.seq_slot & ~m);
    return r;
  }
  static std::size_t iblend(bool c, std::size_t a, std::size_t b) {
    const std::size_t m = 0ull - static_cast<std::size_t>(c);
    return (a & m) | (b & ~m);
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = pool_[slot].next_free;
      return slot;
    }
    SCALE_CHECK_MSG(pool_.size() < kMaxSlots, "event pool exhausted");
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = pool_[slot];
    s.action.reset();
    s.seq = kFreeSeq;   // stale heap entries now fail their liveness compare
    ++s.generation;     // stale EventIds now fail cancel()'s compare
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  using Heap = std::vector<HeapEntry>;

  /// Width of the near tier: a refill moves every far entry due within this
  /// span of the earliest one. Long enough that message hops and CPU
  /// completions scheduled inside it stay near; short enough that the near
  /// heap stays small next to the population's long timers.
  static constexpr std::int64_t kNearSpanUs = std::int64_t{1} << 16;

  /// The slot pool and each tier start with room for this many events
  /// (32 KiB of slots, 8 KiB per tier; the far tier on first use): the near
  /// heap routinely holds a few hundred entries, so one up-front allocation
  /// per vector replaces the doubling ladder a default-constructed vector
  /// climbs.
  static constexpr std::size_t kInitialCapacity = 512;

  bool is_live(const HeapEntry& e) const {
    return pool_[e.slot()].seq == e.seq();
  }

  // Both sifts move the displaced entry through a "hole" and write it once
  // at its final position — half the copies of swap-based sifting.
  static void heap_push(Heap& heap, HeapEntry e) {
    std::size_t i = heap.size();
    heap.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = e;
  }

  /// Bottom-up (Wegener) deletion: sink the hole to a leaf taking the min
  /// child unconditionally — no displaced-entry compare per level, which
  /// would be a coin-flip branch — then bubble the ex-leaf entry up (it
  /// nearly always belongs back near the bottom, so that loop exits after
  /// one predictable compare). Full nodes pick their min with a branchless
  /// blend tree of independent loads; the tail node (at most one per pop)
  /// falls back to the scalar loop.
  static void heap_pop_top(Heap& heap) {
    const HeapEntry e = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) return;
    HeapEntry* h = heap.data();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first + 4 <= n) {
        const HeapEntry e0 = h[first];
        const HeapEntry e1 = h[first + 1];
        const HeapEntry e2 = h[first + 2];
        const HeapEntry e3 = h[first + 3];
        const bool b01 = earlier(e1, e0);
        const bool b23 = earlier(e3, e2);
        const HeapEntry m01 = blend(b01, e1, e0);
        const HeapEntry m23 = blend(b23, e3, e2);
        const bool bb = earlier(m23, m01);
        h[i] = blend(bb, m23, m01);
        i = iblend(bb, first + 2 + static_cast<std::size_t>(b23),
                   first + static_cast<std::size_t>(b01));
        continue;
      }
      if (first >= n) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      h[i] = h[best];
      i = best;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  /// Make near_[0] the earliest live event: pop cancelled tops and refill
  /// the near tier from the far one when it runs dry. False when nothing
  /// live remains. Fires nothing.
  bool settle() {
    for (;;) {
      if (near_.empty()) {
        if (far_.empty()) return false;
        refill_near();
        continue;
      }
      // stale_ counts cancelled entries still queued; when it is zero the
      // top is live by construction and the random pool load for the
      // liveness compare is skipped entirely.
      if (stale_ == 0 || is_live(near_[0])) return true;
      heap_pop_top(near_);
      --stale_;
    }
  }

  /// Fire the near heap's top entry (must be live). Detaches the callback
  /// and frees the slot before invoking it, so the callback can freely
  /// schedule into (and grow) the pool and the queue.
  void fire_top() {
    const HeapEntry top = near_[0];
    SCALE_CHECK(top.at_us >= now_.count_us());
    now_ = Time::from_us(top.at_us);
    const std::uint32_t slot = top.slot();
    InlineAction action = std::move(pool_[slot].action);
    release_slot(slot);
    heap_pop_top(near_);
    ++processed_;
    action();
  }

  void push_far(HeapEntry e);
  void refill_near();
  void compact();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t live_ = 0;   ///< armed (scheduled, not fired/cancelled) events
  std::uint64_t stale_ = 0;  ///< cancelled entries still queued (either tier)
  std::vector<Slot> pool_;
  std::uint32_t free_head_ = kNoSlot;
  /// Tier boundary: near_ holds exactly the entries with at_us below it,
  /// far_ the rest, so near_'s top is the global minimum whenever near_ is
  /// non-empty. Moves only while near_ is empty: on a refill, or when a
  /// schedule lands in an empty queue.
  std::int64_t horizon_us_ = kNearSpanUs;
  Heap near_;  ///< implicit 4-ary min-heap, deadlines < horizon_us_
  Heap far_;   ///< implicit 4-ary min-heap, deadlines >= horizon_us_
};

}  // namespace scale::sim
