#include "util/cli.hpp"

#include "util/error.hpp"
#include "util/str.hpp"

#include <charconv>
#include <cstdlib>

namespace armstice::util {
namespace {

/// Parse `text` as a base-10 integer in [lo, hi] with nothing before or
/// after it. Throws util::Error naming `what` on an empty, malformed,
/// overflowing or out-of-range value.
int parse_int(const std::string& text, int lo, int hi, const std::string& what) {
    long long v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
        throw Error(format("%s expects an integer in [%d, %d], got '%s'", what.c_str(),
                           lo, hi, text.c_str()));
    }
    return static_cast<int>(v);
}

} // namespace

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Cli& Cli::flag(const std::string& name, const std::string& help) {
    declared_.emplace_back(name, Opt{help, "", true});
    return *this;
}

Cli& Cli::option(const std::string& name, const std::string& help,
                 const std::string& default_value) {
    declared_.emplace_back(name, Opt{help, default_value, false});
    if (!default_value.empty()) values_[name] = default_value;
    return *this;
}

Cli& Cli::positional(const std::string& name, const std::string& help) {
    positional_decl_.emplace_back(name, help);
    return *this;
}

const Cli::Opt* Cli::find(const std::string& name) const {
    for (const auto& [n, opt] : declared_) {
        if (n == name) return &opt;
    }
    return nullptr;
}

void Cli::parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals_given_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        const Opt* opt = find(arg);
        ARMSTICE_CHECK(opt != nullptr, "unknown option --" + arg + "\n" + usage());
        if (opt->is_flag) {
            ARMSTICE_CHECK(!has_value, "flag --" + arg + " takes no value");
            values_[arg] = "true";
        } else if (has_value) {
            values_[arg] = value;
        } else {
            ARMSTICE_CHECK(i + 1 < argc, "option --" + arg + " needs a value");
            values_[arg] = argv[++i];
        }
    }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name) const {
    const auto it = values_.find(name);
    ARMSTICE_CHECK(it != values_.end(), "option --" + name + " not provided");
    return it->second;
}

long Cli::get_long(const std::string& name) const {
    const std::string v = get(name);
    char* end = nullptr;
    const long out = std::strtol(v.c_str(), &end, 10);
    ARMSTICE_CHECK(end != nullptr && *end == '\0',
                   "option --" + name + " expects an integer, got '" + v + "'");
    return out;
}

int Cli::get_int(const std::string& name, int lo, int hi) const {
    return parse_int(get(name), lo, hi, "option --" + name);
}

double Cli::get_double(const std::string& name) const {
    const std::string v = get(name);
    char* end = nullptr;
    const double out = std::strtod(v.c_str(), &end);
    ARMSTICE_CHECK(end != nullptr && *end == '\0',
                   "option --" + name + " expects a number, got '" + v + "'");
    return out;
}

int env_jobs() {
    const char* env = std::getenv("ARMSTICE_JOBS");
    if (env == nullptr || *env == '\0') return 0;
    return parse_int(env, 1, kMaxJobs, "ARMSTICE_JOBS");
}

int jobs_from_args(int& argc, char** argv, int fallback) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        int consumed = 0;
        if (arg == "--jobs") {
            ARMSTICE_CHECK(i + 1 < argc, "option --jobs needs a value");
            value = argv[i + 1];
            consumed = 2;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            value = arg.substr(7);
            consumed = 1;
        } else {
            continue;
        }
        for (int j = i + consumed; j < argc; ++j) argv[j - consumed] = argv[j];
        argc -= consumed;
        argv[argc] = nullptr;
        return parse_int(value, 1, kMaxJobs, "--jobs");
    }

    const int env = env_jobs();
    return env >= 1 ? env : fallback;
}

std::string cache_dir_from_args(int& argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        int consumed = 0;
        if (arg == "--cache-dir") {
            ARMSTICE_CHECK(i + 1 < argc, "option --cache-dir needs a value");
            value = argv[i + 1];
            consumed = 2;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            value = arg.substr(12);
            consumed = 1;
        } else {
            continue;
        }
        ARMSTICE_CHECK(!value.empty(), "--cache-dir expects a directory path");
        for (int j = i + consumed; j < argc; ++j) argv[j - consumed] = argv[j];
        argc -= consumed;
        argv[argc] = nullptr;
        return value;
    }

    const char* env = std::getenv("ARMSTICE_CACHE");
    if (env != nullptr && *env != '\0') return env;
    return "";
}

std::string Cli::usage() const {
    std::string out = "usage: " + program_;
    for (const auto& [name, help] : positional_decl_) out += " <" + name + ">";
    if (!declared_.empty()) out += " [options]";
    out += "\n  " + description_ + "\n";
    for (const auto& [name, help] : positional_decl_) {
        out += format("  %-22s %s\n", ("<" + name + ">").c_str(), help.c_str());
    }
    for (const auto& [name, opt] : declared_) {
        std::string left = "--" + name + (opt.is_flag ? "" : " <v>");
        std::string right = opt.help;
        if (!opt.default_value.empty()) right += " (default: " + opt.default_value + ")";
        out += format("  %-22s %s\n", left.c_str(), right.c_str());
    }
    return out;
}

} // namespace armstice::util
