#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace armstice::util {
namespace {

std::function<void(LogLevel, const std::string&)> g_sink;
std::mutex g_mutex;

const char* level_name(LogLevel level) {
    switch (level) {
        case LogLevel::debug: return "DEBUG";
        case LogLevel::info: return "INFO";
        case LogLevel::warn: return "WARN";
        case LogLevel::error: return "ERROR";
        case LogLevel::off: return "OFF";
    }
    return "?";
}

} // namespace

void set_log_sink(std::function<void(LogLevel, const std::string&)> sink) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_sink = std::move(sink);
}

void log(LogLevel level, const std::string& msg) {
    if (level < LogLevel::warn) return;
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_sink) {
        g_sink(level, msg);
    } else {
        std::fprintf(stderr, "[armstice %s] %s\n", level_name(level), msg.c_str());
    }
}

} // namespace armstice::util
