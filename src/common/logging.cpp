#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scale {

namespace {
LogLevel level_from_env() {
  // Read once, before main() spawns anything — no env mutation ever races.
  const char* env = std::getenv("SCALE_LOG");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

const char* level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel Log::level() {
  static const LogLevel lvl = level_from_env();
  return lvl;
}

void Log::write(LogLevel lvl, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(lvl), msg.c_str());
}

}  // namespace scale
