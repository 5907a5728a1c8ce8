// Minimal leveled logger.
//
// The simulator is hot-path sensitive, so log calls compile down to a level
// check plus a lazily-formatted message. Level comes from the environment
// (SCALE_LOG=debug|info|warn|error|off), read once.
#pragma once

#include <sstream>
#include <string>

namespace scale {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global logger configuration; thread-safety is not required (the DES is
/// single-threaded by design — see DESIGN.md).
class Log {
 public:
  static LogLevel level();
  static bool enabled(LogLevel lvl) { return lvl >= level(); }
  static void write(LogLevel lvl, const std::string& msg);
};

}  // namespace scale

#define SCALE_LOG_AT(lvl, expr)                                 \
  do {                                                          \
    if (::scale::Log::enabled(lvl)) {                           \
      std::ostringstream scale_log_os_;                         \
      scale_log_os_ << expr;                                    \
      ::scale::Log::write(lvl, scale_log_os_.str());            \
    }                                                           \
  } while (0)

#define SCALE_DEBUG(expr) SCALE_LOG_AT(::scale::LogLevel::kDebug, expr)
#define SCALE_INFO(expr) SCALE_LOG_AT(::scale::LogLevel::kInfo, expr)
#define SCALE_WARN(expr) SCALE_LOG_AT(::scale::LogLevel::kWarn, expr)
#define SCALE_ERROR(expr) SCALE_LOG_AT(::scale::LogLevel::kError, expr)
