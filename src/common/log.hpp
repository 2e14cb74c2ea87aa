// Minimal leveled logger (printf-style; GCC 12 lacks <format>). Off
// (warn-and-up) by default so benchmarks stay quiet.
#pragma once

#include <string_view>

namespace c4h {

enum class LogLevel { trace = 0, debug, info, warn, error, off };

namespace log_detail {
LogLevel& global_level();
void emitf(LogLevel level, std::string_view component, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));
}  // namespace log_detail

inline bool log_enabled(LogLevel level) { return level >= log_detail::global_level(); }

#define C4H_LOG_AT(level, component, ...)                              \
  do {                                                                 \
    if (::c4h::log_enabled(level)) {                                   \
      ::c4h::log_detail::emitf(level, component, __VA_ARGS__);         \
    }                                                                  \
  } while (0)

#define C4H_LOG_TRACE(component, ...) C4H_LOG_AT(::c4h::LogLevel::trace, component, __VA_ARGS__)
#define C4H_LOG_DEBUG(component, ...) C4H_LOG_AT(::c4h::LogLevel::debug, component, __VA_ARGS__)
#define C4H_LOG_INFO(component, ...) C4H_LOG_AT(::c4h::LogLevel::info, component, __VA_ARGS__)
#define C4H_LOG_WARN(component, ...) C4H_LOG_AT(::c4h::LogLevel::warn, component, __VA_ARGS__)
#define C4H_LOG_ERROR(component, ...) C4H_LOG_AT(::c4h::LogLevel::error, component, __VA_ARGS__)

}  // namespace c4h
