#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace scale::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(Time::from_us(300), [&] { order.push_back(3); });
  eng.at(Time::from_us(100), [&] { order.push_back(1); });
  eng.at(Time::from_us(200), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::from_us(300));
}

TEST(Engine, EqualTimesFireInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eng.at(Time::from_us(50), [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, AfterIsRelative) {
  Engine eng;
  Time fired = Time::zero();
  eng.at(Time::from_us(100), [&] {
    eng.after(Duration::us(50), [&] { fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired, Time::from_us(150));
}

TEST(Engine, SchedulingIntoThePastRejected) {
  Engine eng;
  eng.at(Time::from_us(100), [] {});
  eng.run();
  EXPECT_THROW(eng.at(Time::from_us(50), [] {}), scale::CheckError);
}

TEST(Engine, NegativeDelayRejected) {
  Engine eng;
  EXPECT_THROW(eng.after(Duration::us(-1), [] {}), scale::CheckError);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.at(Time::from_us(10), [&] { fired = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine eng;
  const EventId id = eng.at(Time::from_us(10), [] {});
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(999));
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine eng;
  int fired = 0;
  eng.at(Time::from_us(100), [&] { ++fired; });
  eng.at(Time::from_us(900), [&] { ++fired; });
  eng.run_until(Time::from_us(500));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), Time::from_us(500));
  eng.run_until(Time::from_us(1000));
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunLimitStopsEarly) {
  Engine eng;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    eng.at(Time::from_us(i * 10), [&] { ++fired; });
  eng.run(3);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 100) eng.after(Duration::us(1), chain);
  };
  eng.after(Duration::us(1), chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), Time::from_us(100));
  EXPECT_EQ(eng.events_processed(), 100u);
}

TEST(Engine, IdleAfterDrain) {
  Engine eng;
  eng.at(Time::from_us(5), [] {});
  EXPECT_FALSE(eng.idle());
  eng.run();
  EXPECT_TRUE(eng.idle());
}

TEST(Engine, CancelledEventDoesNotAdvanceClockInRunUntil) {
  Engine eng;
  const EventId id = eng.at(Time::from_us(100), [] {});
  eng.cancel(id);
  eng.run_until(Time::from_us(200));
  EXPECT_EQ(eng.now(), Time::from_us(200));
  EXPECT_EQ(eng.events_processed(), 0u);
}

// --- generation-tagged EventId semantics -----------------------------------
//
// EventIds pack (slot, generation); a slot is recycled as soon as its event
// fires or is cancelled, but the generation bump must keep every stale handle
// inert forever.

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.at(Time::from_us(10), [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, ReusedSlotNeverCancelsWrongEvent) {
  Engine eng;
  // Fire one event so its pool slot returns to the free list, then schedule a
  // new event that necessarily reuses that slot (single-event engine). The
  // stale handle must not touch the new occupant.
  const EventId stale = eng.at(Time::from_us(10), [] {});
  eng.run();
  bool fired = false;
  const EventId fresh = eng.at(Time::from_us(20), [&] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(eng.cancel(stale));
  eng.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, ManyGenerationsOfSlotReuseStayIsolated) {
  Engine eng;
  std::vector<EventId> dead;
  for (int round = 0; round < 64; ++round) {
    const EventId id = eng.at(eng.now() + Duration::us(1), [] {});
    dead.push_back(id);
    eng.run();
  }
  int fired = 0;
  eng.at(eng.now() + Duration::us(1), [&] { ++fired; });
  // None of the 64 retired handles may cancel (or double-free under) the
  // live event, regardless of how slots were recycled.
  for (const EventId id : dead) EXPECT_FALSE(eng.cancel(id));
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilOverOnlyCancelledEventsAdvancesClock) {
  Engine eng;
  for (int i = 1; i <= 8; ++i) {
    const EventId id = eng.at(Time::from_us(i * 10), [] {});
    eng.cancel(id);
  }
  EXPECT_TRUE(eng.idle());
  eng.run_until(Time::from_us(500));
  EXPECT_EQ(eng.now(), Time::from_us(500));
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Engine, IdleCountsLiveEventsNotHeapEntries) {
  Engine eng;
  const EventId a = eng.at(Time::from_us(10), [] {});
  const EventId b = eng.at(Time::from_us(20), [] {});
  EXPECT_FALSE(eng.idle());
  eng.cancel(a);
  EXPECT_FALSE(eng.idle());  // b still live
  eng.cancel(b);
  // Both heap entries still exist physically, but no live work remains.
  EXPECT_TRUE(eng.idle());
}

TEST(Engine, HeapOrderingMatchesReferenceComparator) {
  // Golden check: the 4-ary pooled heap must pop in exactly the order the
  // old binary-heap comparator defined — (time asc, schedule-seq asc).
  // Schedule a deterministic pseudo-random burst, interleave cancels, and
  // compare the fired order against a reference sort.
  Engine eng;
  struct Ref {
    std::int64_t at_us;
    int seq;
  };
  std::vector<Ref> reference;
  std::vector<int> fired;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    // Small time range so equal timestamps are common and the seq
    // tie-break is genuinely exercised.
    const auto at_us = static_cast<std::int64_t>(next() % 16);
    ids.push_back(eng.at(Time::from_us(at_us), [&fired, i] { fired.push_back(i); }));
    reference.push_back({at_us, i});
  }
  for (int i = 0; i < 500; i += 7) {
    eng.cancel(ids[static_cast<std::size_t>(i)]);
    reference[static_cast<std::size_t>(i)].seq = -1;  // mark cancelled
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) { return a.at_us < b.at_us; });
  std::vector<int> expected;
  for (const Ref& r : reference)
    if (r.seq >= 0) expected.push_back(r.seq);
  eng.run();
  EXPECT_EQ(fired, expected);
}

// ---------------------------------------------------------------------------
// Differential checks of the timing wheel against a reference model: an
// ordered set of (at_us, seq) keys, i.e. exactly the total order the engine
// promises. Every fired callback asserts it is the model's minimum, so any
// misordering across a level boundary, a lost or resurrected cancel, or a
// wrong clock shows up at the first event it affects.

/// One fine-level window (2^16 buckets of 1 us), which is also one ring slot.
constexpr std::int64_t kSpan = std::int64_t{1} << 16;
/// Ring slots: windows past cur + kRing go to the overflow heap.
constexpr std::int64_t kRing = 1024;
constexpr auto kRingU = static_cast<std::uint64_t>(kRing);

class EngineModel {
 public:
  explicit EngineModel(std::uint64_t seed) : rng_(seed | 1) {}

  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  /// Delay classes: same microsecond, a hop, about one window, a few
  /// windows, far-future timers, and three that land within 2 us of a
  /// window start — the next few (fine → ring edge), the ring's last slots,
  /// its wrap and the first overflow windows, and anywhere over three ring
  /// laps (overflow entries that re-enter the ring on a later lap).
  std::int64_t random_delay() {
    switch (below(8)) {
      case 0: return 0;
      case 1: return 1 + static_cast<std::int64_t>(below(1000));
      case 2: return kSpan - 500 + static_cast<std::int64_t>(below(1000));
      case 3: return static_cast<std::int64_t>(below(3 * kSpan));
      case 4: return 3 * kSpan + static_cast<std::int64_t>(below(30'000'000));
      case 5: return to_window_edge(1 + below(3));
      case 6: return to_window_edge(kRingU - 2 + below(5));
      default: return to_window_edge(below(3 * kRingU));
    }
  }

  /// Delay to within 2 us of the start of the window `windows` after the
  /// clock's own (never negative).
  std::int64_t to_window_edge(std::uint64_t windows) {
    const std::int64_t now = eng.now().count_us();
    const std::int64_t edge =
        ((now / kSpan) + static_cast<std::int64_t>(windows)) * kSpan;
    return std::max<std::int64_t>(
        0, edge - now - 2 + static_cast<std::int64_t>(below(5)));
  }

  /// Schedule at now + delay, or — one time in four — exactly at (or one
  /// near-tier span after) the deadline of an early pending event, so
  /// same-microsecond ties straddle both tiers and land on the horizon a
  /// refill anchored at that event.
  EventId schedule() {
    std::int64_t at = eng.now().count_us() + random_delay();
    if (!pending_.empty() && below(4) == 0) {
      auto it = pending_.begin();
      std::advance(it, static_cast<long>(below(std::min<std::size_t>(
                           pending_.size(), 16))));
      at = it->first + (below(2) == 0 ? 0 : kSpan);
    }
    return schedule_at(at);
  }

  EventId schedule_at(std::int64_t at_us) {
    const std::uint64_t seq = next_seq_++;
    const EventId id =
        eng.at(Time::from_us(at_us), [this, seq] { on_fire(seq); });
    pending_.emplace(at_us, seq);
    live_.emplace(id, std::make_pair(at_us, seq));
    id_of_seq_.emplace(seq, id);
    issued_.push_back(id);
    return id;
  }

  /// Cancel a random id — half the time a recent one (likely still armed,
  /// the guard-timer pattern), otherwise any id ever issued (likely fired
  /// or cancelled already) — and check the engine's verdict against the
  /// model's.
  void cancel_random() {
    if (issued_.empty()) return;
    const std::size_t n = issued_.size();
    const std::size_t window = below(2) == 0 ? std::min<std::size_t>(n, 64) : n;
    cancel(issued_[n - 1 - below(window)]);
  }

  void cancel(EventId id) {
    const auto it = live_.find(id);
    const bool expected = it != live_.end();
    EXPECT_EQ(eng.cancel(id), expected);
    if (!expected) return;
    pending_.erase(it->second);
    id_of_seq_.erase(it->second.second);
    live_.erase(it);
  }

  void check_idle_state() {
    EXPECT_EQ(eng.idle(), pending_.empty());
    EXPECT_EQ(eng.events_processed(), fired_);
  }

  /// run_until(t) fires exactly the model's events at or before t, then
  /// parks the clock at t.
  void run_until(Time t) {
    eng.run_until(t);
    EXPECT_EQ(eng.now(), t);
    if (!pending_.empty()) EXPECT_GT(pending_.begin()->first, t.count_us());
  }

  void run(std::uint64_t limit) {
    const std::uint64_t before = fired_;
    eng.run(limit);
    EXPECT_TRUE(fired_ - before == limit || pending_.empty());
  }

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t fired() const { return fired_; }

  Engine eng;
  bool reentrant = true;  ///< fired callbacks schedule/cancel more events

 private:
  void on_fire(std::uint64_t seq) {
    ASSERT_FALSE(pending_.empty());
    const auto want = *pending_.begin();
    EXPECT_EQ(want, std::make_pair(eng.now().count_us(), seq))
        << "fired out of (time, seq) order";
    pending_.erase(pending_.find({eng.now().count_us(), seq}));
    live_.erase(id_of_seq_.at(seq));
    id_of_seq_.erase(seq);
    ++fired_;
    if (!reentrant) return;
    // Callbacks schedule and cancel too, as protocol handlers do.
    if (below(3) == 0) schedule();
    if (below(6) == 0) cancel_random();
  }

  std::uint64_t rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::set<std::pair<std::int64_t, std::uint64_t>> pending_;
  std::unordered_map<EventId, std::pair<std::int64_t, std::uint64_t>> live_;
  std::unordered_map<std::uint64_t, EventId> id_of_seq_;
  std::vector<EventId> issued_;
};

TEST(EngineTest, RandomizedDifferentialAgainstReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineModel m(seed * 0x9E3779B97F4A7C15ull);
    for (int step = 0; step < 1500; ++step) {
      switch (m.below(8)) {
        case 0:
        case 1:
        case 2:
          for (std::uint64_t k = 1 + m.below(8); k > 0; --k) m.schedule();
          break;
        case 3:
        case 4:
          m.cancel_random();
          break;
        case 5:
          m.run_until(m.eng.now() +
                      Duration::us(static_cast<std::int64_t>(
                          m.below(2 * static_cast<std::uint64_t>(kSpan)))));
          break;
        case 6:
          m.run(1 + m.below(4));
          break;
        default:
          m.check_idle_state();
          break;
      }
      if (HasFailure()) return;
    }
    m.run(UINT64_MAX);
    m.check_idle_state();
    EXPECT_EQ(m.pending(), 0u);
  }
}

TEST(EngineTest, MassCancelOfFarTimersTriggersCompactionAndKeepsOrder) {
  // The guard-timer shape: thousands of 30 s timers armed and cancelled
  // before they fire, around a ring of near-term events. Cancelling most of
  // the far tier crosses the compaction threshold; survivors must still
  // fire in exact order, and the cancelled ones never.
  EngineModel m(7);
  std::vector<EventId> guards;
  for (int i = 0; i < 4000; ++i) {
    guards.push_back(
        m.schedule_at(30'000'000 + static_cast<std::int64_t>(m.below(1000))));
    if (i % 4 == 0) m.schedule_at(static_cast<std::int64_t>(m.below(2000)));
  }
  for (std::size_t i = 0; i < guards.size(); ++i)
    if (i % 10 != 0) m.cancel(guards[i]);
  m.check_idle_state();
  // Cancel the rest while near events are still pending, then refill the
  // near tier from a far tier that is now all live again.
  m.run_until(Time::from_us(1000));
  for (std::size_t i = 0; i < guards.size(); i += 20) m.cancel(guards[i]);
  m.run(UINT64_MAX);
  m.check_idle_state();
  EXPECT_EQ(m.pending(), 0u);
}

TEST(EngineTest, RandomizedCancelStormsKeepOrderThroughCompaction) {
  // Bursts where most queued events — fresh ones and survivors of earlier
  // bursts, which by then sit in every part of the queue — are cancelled
  // in random order: each burst crosses the compaction threshold, so the
  // tiers are rebuilt from arbitrary survivor layouts many times over.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineModel m(seed * 0xD1B54A32D192ED03ull);
    m.reentrant = false;
    std::vector<EventId> ids;
    for (int burst = 0; burst < 8; ++burst) {
      for (std::uint64_t k = 2 + m.below(300); k > 0; --k)
        ids.push_back(m.schedule());
      for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[m.below(i)]);
      const std::size_t doomed = ids.size() * 3 / 4;
      for (std::size_t i = 0; i < doomed; ++i) m.cancel(ids[i]);
      ids.erase(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(doomed));
      m.run_until(m.eng.now() +
                  Duration::us(static_cast<std::int64_t>(
                      m.below(2 * static_cast<std::uint64_t>(kSpan)))));
      if (HasFailure()) return;
    }
    m.run(UINT64_MAX);
    m.check_idle_state();
  }
}

TEST(EngineTest, BoundedRunStopsInsideTheFarTier) {
  // Every event lies beyond the first horizon, so the budget runs out
  // while the queue is being served from refilled far entries.
  EngineModel m(11);
  m.reentrant = false;
  for (int i = 0; i < 300; ++i)
    m.schedule_at(5 * kSpan + static_cast<std::int64_t>(m.below(40 * kSpan)));
  const Time end = Time::from_us(50 * kSpan);
  m.run(7);
  EXPECT_EQ(m.fired(), 7u);
  EXPECT_LT(m.eng.now(), end);
  m.run(100);
  EXPECT_EQ(m.fired(), 107u);
  m.run_until(end);
  EXPECT_EQ(m.eng.now(), end);
  EXPECT_EQ(m.fired(), 300u);
}

TEST(EngineTest, TiesOnTheHorizonKeepScheduleOrder) {
  // The first event into an empty queue anchors the near tier's horizon
  // one span after it; events due exactly on the horizon belong to the far
  // tier, so a later same-time schedule may not overtake them.
  Engine eng;
  std::vector<int> order;
  eng.at(Time::from_us(10), [&] { order.push_back(0); });
  const Time horizon = Time::from_us(10 + kSpan);
  eng.at(horizon, [&] { order.push_back(1); });
  eng.at(horizon, [&] { order.push_back(2); });
  eng.run_until(Time::from_us(10));
  eng.at(horizon, [&] { order.push_back(3); });
  eng.at(horizon - Duration::us(1), [&] { order.push_back(-1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2, 3}));
}

TEST(EngineTest, RunUntilWhenOnlyFarEventsRemain) {
  Engine eng;
  std::vector<int> order;
  eng.at(Time::from_us(10), [&] { order.push_back(0); });
  const EventId far_a =
      eng.at(Time::from_us(10 * kSpan), [&] { order.push_back(1); });
  eng.at(Time::from_us(20 * kSpan), [&] { order.push_back(2); });
  eng.run_until(Time::from_us(100));
  EXPECT_EQ(order, (std::vector<int>{0}));
  // The near tier is empty now; stopping one microsecond short of the first
  // far event must fire nothing and park the clock exactly there.
  eng.run_until(Time::from_us(10 * kSpan - 1));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(eng.now(), Time::from_us(10 * kSpan - 1));
  EXPECT_TRUE(eng.cancel(far_a));
  EXPECT_FALSE(eng.cancel(far_a));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(eng.now(), Time::from_us(20 * kSpan));
  EXPECT_TRUE(eng.idle());
}

TEST(EngineTest, EventAtTimeMaxStillFires) {
  // The horizon saturates instead of overflowing past INT64_MAX.
  Engine eng;
  std::vector<int> order;
  eng.at(Time::max(), [&] { order.push_back(2); });
  eng.at(Time::from_us(5), [&] { order.push_back(1); });
  eng.at(Time::max(), [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::max());
}

TEST(EngineTest, StaleIdsNeverCancelAcrossTiers) {
  // A slot recycled from a fired near event into a far one (and back) must
  // not be cancellable through the first event's handle.
  Engine eng;
  int fired = 0;
  const EventId near_id = eng.at(Time::from_us(1), [&] { ++fired; });
  eng.run();
  const EventId far_id = eng.at(Time::from_us(40 * kSpan), [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(near_id));
  eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(eng.cancel(far_id));
  EXPECT_FALSE(eng.cancel(near_id));
}

// ---------------------------------------------------------------------------
// Timing-wheel edges: window openings, level migrations and the clock.

TEST(EngineTest, RandomizedDifferentialAcrossRingLaps) {
  // run_until steps of up to two ring laps, so windows open after long
  // idle stretches, overflow entries re-enter the ring on every lap, and
  // schedules land on slots the previous lap used.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineModel m(seed * 0xA0761D6478BD642Full);
    for (int step = 0; step < 800; ++step) {
      switch (m.below(6)) {
        case 0:
        case 1:
          for (std::uint64_t k = 1 + m.below(6); k > 0; --k) m.schedule();
          break;
        case 2:
          m.cancel_random();
          break;
        case 3:
          m.run_until(m.eng.now() +
                      Duration::us(static_cast<std::int64_t>(
                          m.below(2 * kRingU * static_cast<std::uint64_t>(kSpan)))));
          break;
        case 4:
          m.run(1 + m.below(8));
          break;
        default:
          m.check_idle_state();
          break;
      }
      if (HasFailure()) return;
    }
    m.run(UINT64_MAX);
    m.check_idle_state();
    EXPECT_EQ(m.pending(), 0u);
  }
}

TEST(EngineTest, ScheduleBeforeTheFirstQueuedEventOfAnEmptyQueue) {
  // World setup arms far timers first and earlier work after them; the
  // wheel must not anchor on the first event it is given.
  for (const std::int64_t first : {std::int64_t{40'000'000},
                                   (kRing + 3) * kSpan + 5, std::int64_t{70}}) {
    SCOPED_TRACE("first at " + std::to_string(first));
    Engine eng;
    std::vector<int> order;
    eng.at(Time::from_us(first), [&] { order.push_back(3); });
    eng.at(Time::from_us(1), [&] { order.push_back(1); });
    eng.at(Time::from_us(first - 1), [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), Time::from_us(first));
  }
  // The same after the clock moved on through an empty queue.
  Engine eng;
  std::vector<int> order;
  eng.run_until(Time::from_us(5 * kSpan + 17));
  eng.at(eng.now() + Duration::sec(100.0), [&] { order.push_back(2); });
  eng.at(eng.now() + Duration::us(1), [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, RunUntilShortOfAnUnopenedWindowThenScheduleNext) {
  // Stopping short of a queued event's window must leave that window
  // unopened: the clock parks before it, so a schedule at now() + 1 lands
  // in the window the clock is in and still fires first.
  for (const std::int64_t start :
       {3 * kSpan, kRing * kSpan, (kRing + 9) * kSpan}) {
    SCOPED_TRACE("window at " + std::to_string(start));
    Engine eng;
    std::vector<int> order;
    eng.at(Time::from_us(start + 3), [&] { order.push_back(4); });
    eng.run_until(Time::from_us(start - 2));
    EXPECT_TRUE(order.empty());
    eng.at(eng.now() + Duration::us(1), [&] { order.push_back(1); });
    eng.at(eng.now() + Duration::us(2), [&] { order.push_back(2); });
    // Stopping inside the event's (now open) window, short of the event.
    eng.run_until(Time::from_us(start + 1));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    eng.at(eng.now() + Duration::us(1), [&] { order.push_back(3); });
    eng.at(eng.now() + Duration::us(4), [&] { order.push_back(5); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eng.now(), Time::from_us(start + 5));
  }
}

TEST(EngineTest, ScheduleAfterRunDrainedOnlyCancelledEntries) {
  // run() over a queue whose every entry (fine, ring and overflow) was
  // cancelled fires nothing and keeps the clock; what is scheduled next,
  // at any distance, still fires in order.
  Engine eng;
  eng.run_until(Time::from_us(7));
  std::vector<EventId> doomed;
  for (const std::int64_t d : {std::int64_t{1}, kSpan - 7, 2 * kSpan,
                               (kRing - 1) * kSpan, (kRing + 1) * kSpan,
                               std::int64_t{100'000'000}})
    doomed.push_back(eng.after(Duration::us(d), [] { FAIL(); }));
  doomed.push_back(eng.at(Time::max(), [] { FAIL(); }));
  for (const EventId id : doomed) EXPECT_TRUE(eng.cancel(id));
  EXPECT_TRUE(eng.idle());
  eng.run();
  EXPECT_EQ(eng.now(), Time::from_us(7));
  EXPECT_EQ(eng.events_processed(), 0u);
  std::vector<int> order;
  eng.after(Duration::us(100'000'000), [&] { order.push_back(3); });
  eng.after(Duration::us(3 * kSpan), [&] { order.push_back(2); });
  eng.after(Duration::us(1), [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::from_us(7 + 100'000'000));
  EXPECT_TRUE(eng.idle());
}

TEST(EngineTest, MigratedEntriesPrecedeSameMicrosecondDirectSchedules) {
  // Same-us ties between entries moved down a level and entries scheduled
  // straight into that level afterwards: the earlier schedule fires first.
  Engine eng;
  std::vector<int> order;
  // Ring -> fine: `a` waits in the ring until window 3 opens; `b` is then
  // scheduled straight into the fine bucket `a` moved into.
  const Time t1 = Time::from_us(3 * kSpan + 7);
  eng.at(t1, [&] { order.push_back(1); });
  eng.at(Time::from_us(3 * kSpan), [&] { order.push_back(0); });
  eng.run_until(Time::from_us(3 * kSpan));
  eng.at(t1, [&] { order.push_back(2); });
  // Overflow -> ring -> fine: `x` sits in the overflow heap until the ring
  // reaches its window, `y` is appended to that ring slot afterwards, and
  // `z` goes straight into the fine bucket once the window is open.
  const Time t2 = Time::from_us((kRing + 6) * kSpan + 7);
  eng.at(t2, [&] { order.push_back(3); });
  eng.at(Time::from_us(6 * kSpan), [] {});
  eng.run_until(Time::from_us(6 * kSpan));
  eng.at(t2, [&] { order.push_back(4); });
  eng.run_until(t2 - Duration::us(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  eng.at(t2, [&] { order.push_back(5); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EngineTest, CancelStormsOnEveryLevelKeepOrder) {
  // For each level — a fine window's buckets, ring slots, the overflow heap
  // and all three at once — arm a dense batch (many per bucket, so heads,
  // tails and middles of chains all get unlinked), cancel three quarters in
  // random order, then check the survivors against the model.
  struct Band {
    const char* name;
    std::int64_t from;
    std::int64_t width;
  };
  const Band bands[] = {
      {"fine", 10, 64},
      {"ring", 2 * kSpan, 40 * kSpan},
      {"ring wrap", (kRing - 2) * kSpan, 4 * kSpan},
      {"overflow", (kRing + 2) * kSpan, 50 * kSpan},
      {"all", 10, (kRing + 60) * kSpan},
  };
  for (const Band& band : bands) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(band.name) + " seed " + std::to_string(seed));
      EngineModel m(seed * 0x9FB21C651E98DF25ull);
      m.reentrant = false;
      std::vector<EventId> ids;
      for (int i = 0; i < 600; ++i) {
        // Few distinct times per band, so chains run long.
        const std::int64_t at =
            band.from + static_cast<std::int64_t>(m.below(48)) *
                            (band.width / 48);
        ids.push_back(m.schedule_at(at));
      }
      for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[m.below(i)]);
      for (std::size_t i = 0; i < ids.size() * 3 / 4; ++i) m.cancel(ids[i]);
      m.check_idle_state();
      // Half-way through the band, then a second storm over what is left
      // plus fresh entries in the windows still to come.
      m.run_until(Time::from_us(band.from + band.width / 2));
      for (int i = 0; i < 200; ++i)
        ids.push_back(m.schedule_at(
            band.from + band.width / 2 + 1 +
            static_cast<std::int64_t>(m.below(static_cast<std::uint64_t>(band.width)))));
      for (std::size_t i = 0; i < ids.size(); i += 2) m.cancel(ids[i]);
      m.run(UINT64_MAX);
      m.check_idle_state();
      EXPECT_EQ(m.pending(), 0u);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace scale::sim
