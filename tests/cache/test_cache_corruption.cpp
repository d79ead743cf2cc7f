// Corruption-injection tests for the persistent sweep cache: every way an
// on-disk entry can be damaged — truncation, garbage bytes, stale format or
// model-version stamps, key/type mismatches, checksum failures — must
// degrade to a cache MISS with a logged warning. Never a crash, never an
// exception, and above all never a wrong result.

#include "core/app_codecs.hpp"
#include "core/cache.hpp"
#include "core/runner.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/str.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace ac = armstice::core;
namespace au = armstice::util;
namespace fs = std::filesystem;

namespace {

/// Fixture: fresh temp cache directory, captured warnings, and guaranteed
/// teardown of the process-global cache/memo state.
class CacheCorruption : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("armstice-cache-" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        au::set_log_sink([this](au::LogLevel level, const std::string& msg) {
            if (level >= au::LogLevel::warn) warnings_.push_back(msg);
        });
        ac::reset_sweep_cache();
    }

    void TearDown() override {
        ac::set_cache_dir("");
        ac::reset_sweep_cache();
        au::set_log_sink(nullptr);
        fs::remove_all(dir_);
    }

    [[nodiscard]] std::string dir() const { return dir_.string(); }

    [[nodiscard]] bool warned_containing(const std::string& needle) const {
        for (const auto& w : warnings_) {
            if (w.find(needle) != std::string::npos) return true;
        }
        return false;
    }

    /// Overwrite an entry file with raw bytes (binary-safe).
    static void overwrite(const std::string& path, const std::string& bytes) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    fs::path dir_;
    std::vector<std::string> warnings_;
};

} // namespace

TEST_F(CacheCorruption, RoundTripHits) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k1", "payload-bytes"));
    const auto got = store.load("k1");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "payload-bytes");
    const auto s = store.stats();
    EXPECT_EQ(s.probes, 1);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.rejected, 0);
    EXPECT_TRUE(warnings_.empty());
}

TEST_F(CacheCorruption, MissingEntryIsAQuietMiss) {
    ac::CacheStore store(dir(), 7);
    EXPECT_FALSE(store.load("never-stored").has_value());
    EXPECT_EQ(store.stats().rejected, 0);  // nothing on disk = plain miss
    EXPECT_TRUE(warnings_.empty());        // and not worth a warning
}

TEST_F(CacheCorruption, TruncatedFileIsALoggedMiss) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k", "a payload long enough to truncate"));
    const std::string path = store.path_for("k");
    const auto bytes = au::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    for (const std::size_t keep : {bytes->size() - 1, bytes->size() / 2,
                                   std::size_t{5}, std::size_t{0}}) {
        overwrite(path, bytes->substr(0, keep));
        warnings_.clear();
        EXPECT_FALSE(store.load("k").has_value()) << "kept " << keep << " bytes";
        EXPECT_TRUE(warned_containing("cache:")) << "kept " << keep << " bytes";
    }
    EXPECT_GE(store.stats().rejected, 4);
}

TEST_F(CacheCorruption, GarbageBytesAreALoggedMiss) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k", "payload"));
    overwrite(store.path_for("k"), "this is not an ARMC cache entry at all");
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_TRUE(warned_containing("bad magic"));
}

TEST_F(CacheCorruption, StaleModelVersionIsALoggedMiss) {
    // An entry written under model version 7 must not be served to a model
    // stamped 8 — that is the whole invalidation story.
    ac::CacheStore old_model(dir(), 7);
    ASSERT_TRUE(old_model.store("k", "payload"));
    ac::CacheStore new_model(dir(), 8);
    EXPECT_FALSE(new_model.load("k").has_value());
    EXPECT_TRUE(warned_containing("model version mismatch"));
    // Same bytes, matching stamp: still loads.
    EXPECT_TRUE(old_model.load("k").has_value());
}

TEST_F(CacheCorruption, WrongResultTypeKeyIsALoggedMiss) {
    // Simulate a hash collision / wrong-type lookup: the file exists where
    // key B hashes to, but records key A. The stored full key must veto it.
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("app-result|minikab|A64FX|n2|r8|t12|cfg", "payload"));
    const std::string wrong_key = "hpcg-outcome|minikab|A64FX|n2|r8|t12|cfg";
    fs::copy_file(store.path_for("app-result|minikab|A64FX|n2|r8|t12|cfg"),
                  store.path_for(wrong_key), fs::copy_options::overwrite_existing);
    EXPECT_FALSE(store.load(wrong_key).has_value());
    EXPECT_TRUE(warned_containing("key mismatch"));
}

TEST_F(CacheCorruption, FlippedPayloadByteFailsChecksum) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k", std::string(64, 'x')));
    const std::string path = store.path_for("k");
    auto bytes = au::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[bytes->size() - 10] ^= 0x5a;  // corrupt inside the payload
    overwrite(path, *bytes);
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_TRUE(warned_containing("checksum"));
}

TEST_F(CacheCorruption, TrailingGarbageIsALoggedMiss) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k", "payload"));
    const std::string path = store.path_for("k");
    auto bytes = au::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    overwrite(path, *bytes + "extra bytes after the payload");
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_TRUE(warned_containing("cache:"));
}

TEST_F(CacheCorruption, StaleCacheFormatVersionIsALoggedMiss) {
    ac::CacheStore store(dir(), 7);
    ASSERT_TRUE(store.store("k", "payload"));
    const std::string path = store.path_for("k");
    auto bytes = au::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[4] = static_cast<char>(ac::CacheStore::kFormatVersion + 1);
    overwrite(path, *bytes);
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_TRUE(warned_containing("format version"));
}

TEST_F(CacheCorruption, UncreatableCacheDirDisablesDiskCaching) {
    // A plain file where the directory should go makes mkdir fail; the
    // sweep must keep working with disk caching off.
    const std::string blocker = (dir_ / "blocker").string();
    overwrite(blocker, "file, not a directory");
    ac::set_cache_dir(blocker);
    EXPECT_EQ(ac::cache_store(), nullptr);
    EXPECT_TRUE(warned_containing("cannot create cache dir"));
    const auto out = ac::SweepRunner(1).run<int>(
        {ac::sweep_point("t", "s", 1, 1, 1, "c")},
        [](const ac::SweepPoint&, std::size_t) { return 11; });
    EXPECT_EQ(out[0], 11);
}

// ---- end-to-end: SweepRunner over a damaged cache directory ----------------

namespace {

std::vector<ac::SweepPoint> corruption_points() {
    std::vector<ac::SweepPoint> pts;
    for (int i = 0; i < 6; ++i) {
        pts.push_back(ac::sweep_point("corrupt-e2e", "A64FX", 1, 1, 1,
                                      au::format("p%d", i)));
    }
    return pts;
}

} // namespace

TEST_F(CacheCorruption, SweepRecomputesThroughDamagedEntries) {
    ac::set_cache_dir(dir());
    const auto pts = corruption_points();
    const auto eval = [](const ac::SweepPoint& p, std::size_t) {
        return static_cast<double>(p.config.size()) * 1.25 + p.nodes;
    };
    const auto cold = ac::SweepRunner(1).run<double>(pts, eval);
    ASSERT_EQ(ac::cache_store()->stats().stores, 6);

    // Damage every entry a different way.
    ac::CacheStore* store = ac::cache_store();
    std::vector<std::string> paths;
    paths.reserve(pts.size());
    for (const auto& p : pts) {
        paths.push_back(store->path_for(std::string("f64") + '|' + p.key()));
    }
    fs::remove(paths[0]);                        // deleted
    overwrite(paths[1], "");                     // zero length
    overwrite(paths[2], "garbage");              // not a cache entry
    auto bytes = au::read_file(paths[3]);
    ASSERT_TRUE(bytes.has_value());
    overwrite(paths[3], bytes->substr(0, bytes->size() / 2));  // truncated
    bytes = au::read_file(paths[4]);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[8] ^= 0x7f;                         // model-version stamp bits
    overwrite(paths[4], *bytes);
    // paths[5] stays valid.

    ac::reset_sweep_cache();  // force disk probes (memo cache cleared)
    const auto warm = ac::SweepRunner(1).run<double>(pts, eval);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i], cold[i]) << "point " << i;  // bit-exact either way
    }
    const auto stats = ac::sweep_stats();
    EXPECT_EQ(stats.disk_hits, 1);    // only the intact entry
    EXPECT_EQ(stats.misses, 5);       // all damaged ones re-evaluated
    EXPECT_TRUE(warned_containing("cache:"));

    // The re-evaluation must have healed the cache: next cold process (memo
    // cleared again) hits all six on disk.
    ac::reset_sweep_cache();
    (void)ac::SweepRunner(1).run<double>(pts, eval);
    EXPECT_EQ(ac::sweep_stats().disk_hits, 6);
}

TEST_F(CacheCorruption, UndecodablePayloadFallsBackToEvaluation) {
    // A file can be pristine at the CacheStore layer (magic, stamp, key,
    // checksum all good) yet hold bytes the result codec rejects — e.g.
    // written by a buggy producer. The typed layer must re-evaluate.
    ac::set_cache_dir(dir());
    const auto pt = ac::sweep_point("undecodable", "A64FX", 1, 1, 1, "c");
    const std::string key = std::string("sweep-point") + '|' + pt.key();
    ASSERT_TRUE(ac::cache_store()->store(key, "not a sweep point"));
    const auto out = ac::SweepRunner(1).run<ac::SweepPoint>(
        {pt}, [](const ac::SweepPoint& p, std::size_t) { return p; });
    EXPECT_TRUE(out[0] == pt);
    EXPECT_TRUE(warned_containing("undecodable"));
    EXPECT_EQ(ac::sweep_stats().disk_hits, 0);
    EXPECT_EQ(ac::sweep_stats().misses, 1);
}
