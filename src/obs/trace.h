// Tracer — span / instant event recorder exporting Chrome trace_event JSON.
//
// Tracks are Chrome "threads" (tid); in this single-process simulation a
// track is a simulated node (eNB / MLB / MMP / HSS / S-GW) or one UE's
// procedure lane. Event kinds map onto trace_event phases:
//   begin/end  -> ph "B"/"E"   nested procedure spans on one track
//   complete   -> ph "X"       one-shot span with a duration (PDU hops)
//   instant    -> ph "i"       annotations (retransmit, shed, fault drop)
// Timestamps are *simulated* microseconds, so same-seed runs serialize
// byte-identically. Open the output in chrome://tracing or Perfetto.
//
// Cost model: instrumentation sites do
//     if (Tracer* t = Tracer::current()) t->instant(...);
// Tracer::current() is an inline read of one static pointer — when no sink
// is installed (the default, and the case for every fingerprinted test),
// tracing costs a single predictable branch and touches no other state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/json.h"

namespace scale::obs {

class Tracer {
 public:
  /// Chrome "thread" id. Simulation NodeIds are used directly; synthetic
  /// lanes (per-UE procedure tracks) should use a disjoint high range.
  using Track = std::uint64_t;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Label a track in the viewer (emitted as thread_name metadata).
  void set_track_name(Track track, std::string_view name);

  void begin(Track track, std::string_view name, Time at,
             Json args = Json(nullptr));
  void end(Track track, Time at);
  /// One-shot span [start, start+dur) — the natural shape for a PDU hop
  /// or a completed control procedure.
  void complete(Track track, std::string_view name, Time start, Duration dur,
                Json args = Json(nullptr));
  void instant(Track track, std::string_view name, Time at,
               Json args = Json(nullptr));

  std::size_t event_count() const { return events_.size(); }
  /// Currently-open begin/end nesting depth on a track (test hook).
  [[nodiscard]] std::size_t open_spans(Track track) const;
  /// Number of recorded events with this exact name (test hook).
  [[nodiscard]] std::size_t count_named(std::string_view name) const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — metadata first
  /// (sorted by track), then events in recording order. Deterministic.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] std::string dump() const;
  [[nodiscard]] bool write_file(const std::string& path) const;

  /// The sink consulted by instrumentation sites; nullptr (the default)
  /// disables tracing. Thread-local, so worlds run on different threads
  /// never share a sink.
  static Tracer* current() { return current_; }
  /// Install `t` as this thread's sink (nullptr detaches); returns the
  /// previous sink so callers can restore it.
  static Tracer* install(Tracer* t);

 private:
  struct Event {
    char ph;  // 'B', 'E', 'X', 'i'
    Track track;
    std::int64_t ts_us;
    std::int64_t dur_us;  // 'X' only
    std::string name;
    Json args;  // null when absent
  };

  void record(char ph, Track track, std::string_view name, Time at,
              Duration dur, Json args);

  std::vector<Event> events_;
  std::map<Track, std::string> track_names_;
  std::map<Track, std::size_t> open_;

  // Per-thread sink pointer: benches install it on the main thread during
  // setup.
  // lint: shard-local
  inline static thread_local Tracer* current_ = nullptr;
};

}  // namespace scale::obs
