#include "sim/engine.h"

#include <algorithm>

#include "obs/registry.h"

namespace scale::sim {

namespace {

/// Overflow heap order: (time, seq). seq is unique, so this is total.
template <typename Entry>
bool earlier(const Entry& a, const Entry& b) {
  return a.at_us < b.at_us || (a.at_us == b.at_us && a.seq_slot < b.seq_slot);
}

/// Move h[i] down an implicit 4-ary min-heap of size n to its place.
template <typename Entry>
void sift_down4(Entry* h, std::size_t n, std::size_t i) {
  const Entry e = h[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(h[c], h[best])) best = c;
    if (!earlier(h[best], e)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}

}  // namespace

Engine::Engine() : wheel_(std::make_unique_for_overwrite<Wheel>()) {
  pool_.reserve(kInitialCapacity);
  wheel_->fine_bits.fill(0);
  wheel_->fine_mid.fill(0);
  wheel_->ring_bits.fill(0);
}

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= pool_.size()) return false;
  Slot& s = pool_[slot];
  // Generation matches iff this exact event is still armed: retire() bumps
  // it the moment an event fires or is cancelled.
  if (s.generation != generation_of(id)) return false;
  // Move the callback out before releasing: its captures' destructors may
  // re-enter the engine (and grow pool_), so they must run after all slot
  // and queue bookkeeping is done.
  InlineAction doomed = std::move(s.action);
  const std::uint32_t where = s.where;
  retire(slot);
  if (where >= kInOverflow) {
    // The heap entry still names this slot; it is freed when that entry
    // leaves the heap. Sweep once the dead outnumber the live: each sweep
    // costs O(heap) and removes more than half of it, so a cancel pays
    // O(1) amortized.
    pool_[slot].where = kCancelledInOverflow;
    ++stale_;
    if (2 * stale_ > overflow_.size()) sweep_overflow();
    return true;
  }
  if (where < kInRing) {
    fine_unlink(slot, where);
  } else {
    const std::uint32_t i = (where - kInRing) >> kFineBits;
    if (chain_unlink(wheel_->ring_head[i], slot)) ring_clear(i);
  }
  free_slot(slot);
  return true;
}

std::int64_t Engine::next_window() {
  if (ring_top_ != 0) {
    // First occupied ring slot at or after the window after cur_, wrapping:
    // the ring holds windows cur_ + 1 .. cur_ + kRingSlots, one per index.
    const Wheel& w = *wheel_;
    const std::int64_t start = (cur_ + 1) & kRingMask;
    const std::int64_t sw = start >> 6;
    std::int64_t i = -1;
    const std::uint64_t here =
        w.ring_bits[static_cast<std::size_t>(sw)] & (~0ull << (start & 63));
    if (here != 0) {
      i = sw * 64 + std::countr_zero(here);
    } else {
      const std::uint64_t later = ring_top_ & ~((2ull << sw) - 1);
      const int word = std::countr_zero(later != 0 ? later : ring_top_);
      i = word * 64 +
          std::countr_zero(w.ring_bits[static_cast<std::size_t>(word)]);
    }
    return cur_ + ((i - cur_ - 1) & kRingMask) + 1;
  }
  // The ring is empty: the next window is the overflow top's, once the
  // cancelled entries above it are gone.
  while (!overflow_.empty()) {
    const std::uint32_t x = overflow_[0].slot();
    if (pool_[x].where != kCancelledInOverflow)
      return overflow_[0].at_us >> kFineBits;
    pop_overflow();
    free_slot(x);
    --stale_;
  }
  return -1;
}

void Engine::open_window(std::int64_t k) {
  cur_ = k;
  base_us_ = k << kFineBits;
  Wheel& w = *wheel_;
  // Empty ring slot k into the fine buckets in chain (= seq) order. The
  // fine level is empty, so each bucket's FIFO order is seq order.
  const std::size_t i = static_cast<std::size_t>(k & kRingMask);
  if (((w.ring_bits[i >> 6] >> (i & 63)) & 1) != 0) {
    ring_clear(i);
    const std::uint32_t head = w.ring_head[i];
    std::uint32_t x = head;
    do {
      const std::uint32_t next = pool_[x].next;
      fine_push(x, pool_[x].where & kFineMask);
      x = next;
    } while (x != head);
  }
  // The ring now reaches window k + kRingSlots: pull the overflow entries
  // it newly covers, in (time, seq) order, before any schedule can append
  // there. Only when the ring was empty can one land in window k itself.
  while (!overflow_.empty() &&
         (overflow_[0].at_us >> kFineBits) <= k + kRingSlots) {
    const HeapEntry e = overflow_[0];
    pop_overflow();
    const std::uint32_t x = e.slot();
    if (pool_[x].where == kCancelledInOverflow) {
      free_slot(x);
      --stale_;
    } else if ((e.at_us >> kFineBits) == k) {
      fine_push(x, e.at_us & kFineMask);
    } else {
      ring_push(x, e.at_us);
    }
  }
}

void Engine::push_overflow(std::uint32_t slot, std::int64_t at_us,
                           std::uint64_t seq) {
  pool_[slot].where = kInOverflow;
  if (overflow_.capacity() == 0) overflow_.reserve(kInitialCapacity);
  const HeapEntry e{at_us, (seq << kSlotBits) | slot};
  std::size_t i = overflow_.size();
  overflow_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, overflow_[parent])) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = e;
}

void Engine::pop_overflow() {
  overflow_[0] = overflow_.back();
  overflow_.pop_back();
  if (!overflow_.empty()) sift_down4(overflow_.data(), overflow_.size(), 0);
}

void Engine::sweep_overflow() {
  std::erase_if(overflow_, [this](const HeapEntry& e) {
    if (pool_[e.slot()].where != kCancelledInOverflow) return false;
    free_slot(e.slot());
    return true;
  });
  // Floyd's bottom-up construction: O(n).
  const std::size_t n = overflow_.size();
  if (n > 1)
    for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;)
      sift_down4(overflow_.data(), n, i);
  stale_ = 0;
}

void Engine::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    const std::int64_t b = next_due(INT64_MAX);
    if (b < 0) break;
    fire(b);
  }
}

void Engine::run_until(Time t) {
  SCALE_CHECK(t >= now_);
  for (;;) {
    const std::int64_t b = next_due(t.count_us());
    if (b < 0) break;
    fire(b);
  }
  now_ = t;
}

void Engine::export_metrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.set_counter(prefix + ".events_processed", processed_);
  reg.set_counter(prefix + ".events_scheduled", next_seq_);
  reg.set(prefix + ".queue_depth", static_cast<double>(live_));
  reg.set(prefix + ".now_ms", now_.to_ms());
}

}  // namespace scale::sim
