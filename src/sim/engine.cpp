#include "sim/engine.h"

#include <algorithm>

#include "obs/registry.h"

namespace scale::sim {

namespace {

/// Floyd's bottom-up heap construction for an implicit 4-ary min-heap:
/// O(n), used to rebuild a tier after cancelled entries are swept out.
template <typename Entry, typename Earlier>
void make_heap4(std::vector<Entry>& h, Earlier earlier) {
  const std::size_t n = h.size();
  if (n < 2) return;
  for (std::size_t root = (n - 2) / 4 + 1; root-- > 0;) {
    const Entry e = h[root];
    std::size_t i = root;
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
}

/// at_us + span_us, saturating at INT64_MAX (events at Time::max()).
std::int64_t horizon_after(std::int64_t at_us, std::int64_t span_us) {
  return at_us > INT64_MAX - span_us ? INT64_MAX : at_us + span_us;
}

}  // namespace

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= pool_.size()) return false;
  Slot& s = pool_[slot];
  // Generation matches iff this exact event is still armed: release_slot
  // bumps it the moment an event fires or is cancelled.
  if (s.generation != generation_of(id)) return false;
  // Move the callback out before releasing: its captures' destructors may
  // re-enter the engine (and grow pool_), so they must run after all slot
  // and queue bookkeeping is done.
  InlineAction doomed = std::move(s.action);
  release_slot(slot);
  ++stale_;  // its queue entry remains until popped, refilled or swept
  // Sweep once the dead outnumber the live: each rebuild costs O(queue)
  // and removes more than half of it, so a cancel pays O(1) amortized.
  if (2 * stale_ > near_.size() + far_.size()) compact();
  return true;
}

void Engine::push_far(HeapEntry e) {
  if (near_.empty() && far_.empty()) {
    // Nothing queued at all: re-anchor the horizon on this event rather
    // than park it in the far tier for a refill to fetch straight back.
    horizon_us_ = horizon_after(e.at_us, kNearSpanUs);
    near_.push_back(e);
    return;
  }
  if (far_.capacity() == 0) far_.reserve(kInitialCapacity);
  heap_push(far_, e);
}

void Engine::refill_near() {
  // Far entries leave their heap in (time, seq) order, so appending them to
  // the empty near tier yields a sorted array — already a valid heap.
  // The do-while moves at least the top even when the horizon saturates at
  // INT64_MAX (an event scheduled at Time::max()).
  horizon_us_ = horizon_after(far_[0].at_us, kNearSpanUs);
  do {
    const HeapEntry e = far_[0];
    heap_pop_top(far_);
    if (stale_ != 0 && !is_live(e)) {
      --stale_;  // a cancelled timer dies here, not at its deadline
      continue;
    }
    near_.push_back(e);
  } while (!far_.empty() && far_[0].at_us < horizon_us_);
}

void Engine::compact() {
  for (Heap* h : {&near_, &far_}) {
    std::erase_if(*h, [this](const HeapEntry& e) { return !is_live(e); });
    make_heap4(*h, earlier);
  }
  stale_ = 0;
}

void Engine::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit && settle(); ++i) fire_top();
}

void Engine::run_until(Time t) {
  SCALE_CHECK(t >= now_);
  while (settle() && near_[0].at_us <= t.count_us()) fire_top();
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
