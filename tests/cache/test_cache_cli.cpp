// Bench-facing wiring of the persistent cache: --cache-dir / ARMSTICE_CACHE
// extraction (mirrors the --jobs tests in tests/test_runner.cpp) and the
// footer lines the acceptance criteria key off.

#include "core/cache.hpp"
#include "core/runner.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/str.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace ac = armstice::core;
namespace au = armstice::util;

namespace {

/// Mutable argv for cache_dir_from_args (which rewrites it in place).
struct Argv {
    explicit Argv(std::initializer_list<const char*> args) {
        for (const char* a : args) storage.emplace_back(a);
        for (auto& s : storage) ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(storage.size());
    }
    std::vector<std::string> storage;
    std::vector<char*> ptrs;
    int argc = 0;
};

} // namespace

TEST(CacheDirFromArgs, SpaceAndEqualsSyntaxBothConsume) {
    unsetenv("ARMSTICE_CACHE");
    Argv a{"bench", "--cache-dir", "/tmp/c", "--other"};
    EXPECT_EQ(au::cache_dir_from_args(a.argc, a.ptrs.data()), "/tmp/c");
    EXPECT_EQ(a.argc, 2);
    EXPECT_STREQ(a.ptrs[0], "bench");
    EXPECT_STREQ(a.ptrs[1], "--other");
    EXPECT_EQ(a.ptrs[2], nullptr);

    Argv b{"bench", "--cache-dir=/tmp/d"};
    EXPECT_EQ(au::cache_dir_from_args(b.argc, b.ptrs.data()), "/tmp/d");
    EXPECT_EQ(b.argc, 1);
}

TEST(CacheDirFromArgs, AbsentMeansDisabled) {
    unsetenv("ARMSTICE_CACHE");
    Argv a{"bench", "--benchmark_filter=x"};
    EXPECT_EQ(au::cache_dir_from_args(a.argc, a.ptrs.data()), "");
    EXPECT_EQ(a.argc, 2);  // untouched
}

TEST(CacheDirFromArgs, EnvironmentFallback) {
    setenv("ARMSTICE_CACHE", "/tmp/envcache", 1);
    Argv a{"bench"};
    EXPECT_EQ(au::cache_dir_from_args(a.argc, a.ptrs.data()), "/tmp/envcache");
    unsetenv("ARMSTICE_CACHE");
}

TEST(CacheDirFromArgs, FlagBeatsEnvironment) {
    setenv("ARMSTICE_CACHE", "/tmp/envcache", 1);
    Argv a{"bench", "--cache-dir", "/tmp/flagcache"};
    EXPECT_EQ(au::cache_dir_from_args(a.argc, a.ptrs.data()), "/tmp/flagcache");
    unsetenv("ARMSTICE_CACHE");
}

TEST(CacheDirFromArgs, RejectsMissingValue) {
    {
        Argv a{"bench", "--cache-dir"};
        EXPECT_THROW((void)au::cache_dir_from_args(a.argc, a.ptrs.data()), au::Error);
    }
    {
        Argv a{"bench", "--cache-dir="};
        EXPECT_THROW((void)au::cache_dir_from_args(a.argc, a.ptrs.data()), au::Error);
    }
}

TEST(CacheFooter, ReportsDiskHitRateWhenCacheEnabled) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "armstice-footer-cache";
    fs::remove_all(dir);
    ac::reset_sweep_cache();
    ac::set_cache_dir(dir.string());
    ASSERT_NE(ac::cache_store(), nullptr);

    std::vector<ac::SweepPoint> pts;
    for (int i = 0; i < 5; ++i) {
        pts.push_back(ac::sweep_point("footer", "A64FX", 1, 1, 1,
                                      au::format("p%d", i)));
    }
    const auto eval = [](const ac::SweepPoint&, std::size_t i) {
        return static_cast<int>(i);
    };
    (void)ac::SweepRunner(1).run<int>(pts, eval);
    ac::reset_sweep_cache();  // second "process": memo cold, disk warm
    (void)ac::SweepRunner(1).run<int>(pts, eval);

    const std::string footer = ac::sweep_footer();
    EXPECT_NE(footer.find("[sweep]"), std::string::npos) << footer;
    EXPECT_NE(footer.find("5 disk cache hits"), std::string::npos) << footer;
    EXPECT_NE(footer.find("[cache]"), std::string::npos) << footer;
    EXPECT_NE(footer.find("5/5 disk probes hit (100.0% disk-hit rate)"),
              std::string::npos)
        << footer;

    ac::set_cache_dir("");
    ac::reset_sweep_cache();
    fs::remove_all(dir);
    EXPECT_EQ(ac::sweep_footer().find("[cache]"), std::string::npos);
}
