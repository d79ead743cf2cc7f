#pragma once
// Minimal leveled logger. Single global sink (stderr by default); the
// simulator itself never logs on hot paths — logging is for harness and
// calibration diagnostics.

#include <functional>
#include <string>

namespace armstice::util {

enum class LogLevel { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

/// Replace the sink (used by tests to capture output). The sink receives the
/// already-formatted line without a trailing newline.
void set_log_sink(std::function<void(LogLevel, const std::string&)> sink);

/// Emit `msg` at `level`; messages below LogLevel::warn are dropped.
void log(LogLevel level, const std::string& msg);

inline void log_warn(const std::string& msg) { log(LogLevel::warn, msg); }

} // namespace armstice::util
