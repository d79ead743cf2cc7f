#pragma once
// Tiny command-line parser for the example/driver binaries: GNU-style
// --flag, --key=value and --key value options plus positionals, with typed
// accessors and a generated usage string.

#include <map>
#include <string>
#include <vector>

namespace armstice::util {

class Cli {
public:
    Cli(std::string program, std::string description);

    /// Declare options (for the usage text and validation).
    Cli& flag(const std::string& name, const std::string& help);
    Cli& option(const std::string& name, const std::string& help,
                const std::string& default_value = "");
    Cli& positional(const std::string& name, const std::string& help);

    /// Parse argv; throws util::Error on unknown options or missing values.
    void parse(int argc, const char* const* argv);

    [[nodiscard]] bool has(const std::string& name) const;
    [[nodiscard]] std::string get(const std::string& name) const;
    [[nodiscard]] long get_long(const std::string& name) const;
    /// Integer option in [lo, hi]; throws util::Error on a malformed,
    /// overflowing or out-of-range value instead of narrowing it.
    [[nodiscard]] int get_int(const std::string& name, int lo, int hi) const;
    [[nodiscard]] double get_double(const std::string& name) const;
    [[nodiscard]] const std::vector<std::string>& positionals() const {
        return positionals_given_;
    }

    [[nodiscard]] std::string usage() const;

private:
    struct Opt {
        std::string help;
        std::string default_value;
        bool is_flag = false;
    };
    std::string program_;
    std::string description_;
    std::vector<std::pair<std::string, Opt>> declared_;
    std::vector<std::pair<std::string, std::string>> positional_decl_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_given_;

    [[nodiscard]] const Opt* find(const std::string& name) const;
};

/// Largest thread count `--jobs` or ARMSTICE_JOBS may ask for: above any
/// host this runs on, far below what would exhaust the process table.
inline constexpr int kMaxJobs = 1024;

/// ARMSTICE_JOBS as a thread count: 0 when unset or empty, else the value
/// checked like `--jobs` (an integer in [1, kMaxJobs]; throws util::Error
/// otherwise). The one reader of the variable (core::default_jobs,
/// kern::par::jobs and jobs_from_args all use it).
int env_jobs();

/// Extract a `--jobs N` / `--jobs=N` option from anywhere in argv, removing
/// it so downstream parsers (google-benchmark) never see it. When the flag
/// is absent, falls back to env_jobs(), then to `fallback`. Throws
/// util::Error on a missing value or one outside [1, kMaxJobs]. Used by
/// every bench binary to size core::SweepRunner's thread pool.
int jobs_from_args(int& argc, char** argv, int fallback = 1);

/// Extract a `--cache-dir DIR` / `--cache-dir=DIR` option from anywhere in
/// argv, removing it so downstream parsers never see it. When the flag is
/// absent, falls back to the ARMSTICE_CACHE environment variable, then to ""
/// (persistent caching disabled). Throws util::Error on a missing value.
/// Used by every bench binary to install core::set_cache_dir.
std::string cache_dir_from_args(int& argc, char** argv);

} // namespace armstice::util
