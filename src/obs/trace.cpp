#include "obs/trace.h"

#include <cstdio>

#include "common/check.h"

namespace scale::obs {

Tracer::~Tracer() {
  if (current_ == this) current_ = nullptr;
}

Tracer* Tracer::install(Tracer* t) {
  Tracer* prev = current_;
  current_ = t;
  return prev;
}

void Tracer::set_track_name(Track track, std::string_view name) {
  track_names_[track] = std::string(name);
}

void Tracer::record(char ph, Track track, std::string_view name, Time at,
                    Duration dur, Json args) {
  Event e;
  e.ph = ph;
  e.track = track;
  e.ts_us = at.count_us();
  e.dur_us = dur.count_us();
  e.name = std::string(name);
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::begin(Track track, std::string_view name, Time at, Json args) {
  ++open_[track];
  record('B', track, name, at, Duration::zero(), std::move(args));
}

void Tracer::end(Track track, Time at) {
  auto it = open_.find(track);
  SCALE_CHECK_MSG(it != open_.end() && it->second > 0,
                  "Tracer::end with no open span on track");
  --it->second;
  record('E', track, "", at, Duration::zero(), Json(nullptr));
}

void Tracer::complete(Track track, std::string_view name, Time start,
                      Duration dur, Json args) {
  record('X', track, name, start, dur, std::move(args));
}

void Tracer::instant(Track track, std::string_view name, Time at, Json args) {
  record('i', track, name, at, Duration::zero(), std::move(args));
}

std::size_t Tracer::open_spans(Track track) const {
  const auto it = open_.find(track);
  return it == open_.end() ? 0 : it->second;
}

std::size_t Tracer::count_named(std::string_view name) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.name == name) ++n;
  }
  return n;
}

Json Tracer::to_json() const {
  Json events = Json::array();
  for (const auto& [track, name] : track_names_) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", static_cast<std::int64_t>(track));
    Json args = Json::object();
    args.set("name", name);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (const auto& e : events_) {
    Json ev = Json::object();
    if (e.ph != 'E') ev.set("name", e.name);
    ev.set("ph", std::string(1, e.ph));
    ev.set("ts", e.ts_us);
    if (e.ph == 'X') ev.set("dur", e.dur_us);
    if (e.ph == 'i') ev.set("s", "t");  // thread-scoped instant
    ev.set("pid", 1);
    ev.set("tid", static_cast<std::int64_t>(e.track));
    if (!e.args.is_null()) ev.set("args", e.args);
    events.push_back(std::move(ev));
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  return out;
}

std::string Tracer::dump() const { return to_json().pretty(); }

bool Tracer::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string text = dump();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = (written == text.size()) && std::fclose(f) == 0;
  if (written != text.size()) std::fclose(f);
  return ok;
}

}  // namespace scale::obs
