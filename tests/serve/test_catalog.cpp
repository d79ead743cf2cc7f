// Range checks on served config numbers: the catalog parses every number
// into its field's type and rejects anything that type cannot hold, so a
// request is never evaluated and cached under a different key than the one
// it asked for. A wrapped or saturated parse would serve `iters=4294967297`
// as `iters=1`, `iters=9999999999999999999999` as `iters=-1` and
// `elems=2147483648` as `elems=-2147483648`; `nnz=inf` and `nnz=nan` are
// not numbers any model can price. A minikab or nekbone point on 0 ranks is
// rejected too (only COSA reads 0 ranks, as a full node), and `nnz=-0`
// shares `nnz=0`'s canonical key.
//
// Frame bound: a point whose per-rank stats alone exceed kMaxFrame is
// rejected before evaluation, and a result that still does not fit one frame
// is streamed as a failed point, so no served frame exceeds kMaxFrame.
//
// Fuzz corpus: configs and placements mutated from valid ones either throw
// util::Error or canonicalize to a fixed point.

#include "arch/system.hpp"
#include "core/app_codecs.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <climits>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

namespace ac = armstice::core;
namespace as = armstice::serve;
namespace au = armstice::util;
namespace fs = std::filesystem;

namespace {

as::PointSpec spec(const std::string& app, const std::string& config, int ranks = 8) {
    as::PointSpec p;
    p.app = app;
    p.system = "A64FX";
    p.nodes = 1;
    p.ranks = ranks;
    p.config = config;
    return p;
}

std::vector<as::PointSpec> out_of_range() {
    return {spec("minikab", "iters=4294967297"),
            spec("minikab", "iters=9999999999999999999999"),
            spec("nekbone", "elems=2147483648"),
            spec("minikab", "nnz=inf"),
            spec("minikab", "nnz=nan"),
            spec("minikab", "", /*ranks=*/0),
            spec("nekbone", "", /*ranks=*/0)};
}

} // namespace

TEST(Catalog, RejectsNumbersTheFieldCannotHold) {
    for (const auto& s : out_of_range()) {
        EXPECT_THROW((void)as::canonicalize(s), au::Error) << s.app << " " << s.config;
    }
    // -0 is a number the field holds: the same one as 0, under one key.
    EXPECT_EQ(as::canonicalize(spec("minikab", "nnz=-0")).config,
              as::canonicalize(spec("minikab", "nnz=0")).config);
}

TEST(Catalog, IntFieldsAcceptIntMaxAndRejectOneMore) {
    const std::string max = std::to_string(INT_MAX);
    const std::string over = std::to_string(static_cast<long long>(INT_MAX) + 1);
    EXPECT_EQ(as::canonicalize(spec("nekbone", "elems=" + max)).config,
              "elems=" + max + ";nx1=16;iters=100;fastmath=0");
    EXPECT_THROW((void)as::canonicalize(spec("nekbone", "elems=" + over)), au::Error);
    EXPECT_NE(as::canonicalize(spec("minikab", "iters=" + max))
                  .config.find(";iters=" + max + ";"),
              std::string::npos);
    EXPECT_THROW((void)as::canonicalize(spec("minikab", "iters=" + over)), au::Error);
    // A `long` field is bounded by long, not int: larger cell counts are
    // genuine configs and keep their value.
    EXPECT_NE(as::canonicalize(spec("cosa", "cells=" + over))
                  .config.find(";cells=" + over + ";"),
              std::string::npos);
}

TEST(Catalog, OutOfRangeConfigsEarnBadRequestFrames) {
    const fs::path dir = fs::path(::testing::TempDir()) / "armstice-serve-catalog";
    fs::remove_all(dir);
    fs::create_directories(dir);
    as::ServerConfig cfg;
    cfg.unix_path = (dir / "serve.sock").string();
    std::atomic<int> evaluated{0};
    as::Server server(cfg, [&evaluated](const as::PointSpec&) {
        evaluated.fetch_add(1);
        return std::string("payload");
    });
    server.start();
    as::Client client = as::Client::connect_unix_path(cfg.unix_path);
    for (const auto& s : out_of_range()) {
        client.send_sweep_only({s});
        as::Message m;
        ASSERT_TRUE(client.read_message(m)) << s.config;
        const auto* err = std::get_if<as::ErrorMsg>(&m.body);
        ASSERT_NE(err, nullptr) << s.config;
        EXPECT_EQ(err->code, as::ErrorCode::kBadRequest) << s.config;
    }
    EXPECT_EQ(evaluated.load(), 0);
    server.stop();
    fs::remove_all(dir);
}

// ---- frame bound -----------------------------------------------------------

namespace {

constexpr int kMaxRanks = static_cast<int>(as::kMaxFrame / ac::kRankStatsWireBytes);

as::PointSpec placed(const std::string& app, int nodes, int ranks) {
    as::PointSpec p = spec(app, "");
    p.nodes = nodes;
    p.ranks = ranks;
    return p;
}

/// A server on a fresh unix socket under the test's temp dir.
class ServedCatalog : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               ("armstice-serve-catalog-" + std::string(info->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        cfg_.unix_path = (dir_ / "serve.sock").string();
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
    as::ServerConfig cfg_;
};

} // namespace

TEST(Catalog, RankBoundAcceptsTheLimitAndRejectsOneMore) {
    // kMaxFrame / 48 ranks of stats fit one frame; one more rank does not.
    EXPECT_EQ(kMaxRanks, 174762);
    for (const char* app : {"minikab", "nekbone"}) {
        EXPECT_NO_THROW((void)as::canonicalize(placed(app, 3700, kMaxRanks))) << app;
        EXPECT_THROW((void)as::canonicalize(placed(app, 3700, kMaxRanks + 1)), au::Error)
            << app;
    }
    // COSA's ranks are per node; 0 means a full node.
    const int cores = armstice::arch::a64fx().node.cores();
    const int full_nodes = kMaxRanks / cores;
    EXPECT_NO_THROW((void)as::canonicalize(placed("cosa", full_nodes, 0)));
    EXPECT_THROW((void)as::canonicalize(placed("cosa", full_nodes + 1, 0)), au::Error);
    EXPECT_NO_THROW((void)as::canonicalize(placed("cosa", kMaxRanks, 1)));
    EXPECT_THROW((void)as::canonicalize(placed("cosa", kMaxRanks + 1, 1)), au::Error);
    EXPECT_THROW((void)as::canonicalize(placed("cosa", INT_MAX, INT_MAX)), au::Error);
}

TEST_F(ServedCatalog, PointAboveTheRankBoundIsRejectedBeforeEvaluation) {
    // nekbone on 3,700 A64FX nodes: 177,600 ranks would encode an 8.5 MB
    // result, past kMaxFrame.
    as::Server server(cfg_);
    server.start();
    as::Client client = as::Client::connect_unix_path(cfg_.unix_path);
    client.send_sweep_only({placed("nekbone", 3700, 177600)});
    as::Message m;
    ASSERT_TRUE(client.read_message(m));
    const auto* err = std::get_if<as::ErrorMsg>(&m.body);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, as::ErrorCode::kBadRequest);
    EXPECT_EQ(server.stats_snapshot().computed, 0u);
    server.stop();
}

TEST_F(ServedCatalog, ResultThatDoesNotFitAFrameStreamsAsAFailedPoint) {
    // The stub's payload size is taken from the point's iters: one result
    // that exactly fills a frame and one a byte over.
    as::Server server(cfg_, [](const as::PointSpec& p) {
        const bool over = p.config.find("iters=2;") != std::string::npos;
        return std::string(as::kMaxPointPayload + (over ? 1 : 0), 'x');
    });
    server.start();
    as::Client client = as::Client::connect_unix_path(cfg_.unix_path);
    const auto reply =
        client.sweep({spec("minikab", "iters=1"), spec("minikab", "iters=2")});
    ASSERT_EQ(reply.points.size(), 2u);
    EXPECT_TRUE(reply.points[0].ok);
    EXPECT_EQ(reply.points[0].payload.size(), as::kMaxPointPayload);
    EXPECT_FALSE(reply.points[1].ok);
    EXPECT_NE(reply.points[1].payload.find("does not fit"), std::string::npos);
    EXPECT_EQ(reply.done.points, 2u);
    EXPECT_EQ(reply.done.errors, 1u);
    // The session is still in sync for the next request.
    EXPECT_EQ(client.stats().sweep_requests, 1u);
    server.stop();
}

// ---- fuzz corpus -----------------------------------------------------------

namespace {

/// One random edit of a config string: digits flipped or extended, a value
/// replaced by a huge, negative or non-finite number, a duplicate or
/// unknown key, a stray separator, or a deleted character.
std::string mutate_config(std::string c, au::Rng& rng) {
    const auto pos = [&](std::size_t n) { return static_cast<std::size_t>(rng.next_below(n)); };
    static const char* const kValues[] = {
        "0", "-1", "-0", "+5", " 7", "4294967297", "9223372036854775808",
        "99999999999999999999999", "1e308", "1e999", "-1e-320", "inf", "-inf",
        "nan", "0x10", "1.5", "2147483647", "2147483648", "", "=", "1;"};
    static const char* const kFields[] = {";bogus=1", ";iters=3", ";rows=7",
                                          ";solver=cg", ";solver=none", ";nx1=8",
                                          ";fastmath=1", ";harmonics=2", ";cells=9"};
    switch (rng.next_below(8)) {
        case 0:
        case 1: {  // flip or extend a digit
            std::vector<std::size_t> digits;
            for (std::size_t i = 0; i < c.size(); ++i) {
                if (std::isdigit(static_cast<unsigned char>(c[i])) != 0) digits.push_back(i);
            }
            if (digits.empty()) return c + "1";
            const std::size_t at = digits[pos(digits.size())];
            if (rng.next_below(2) == 0) {
                c[at] = static_cast<char>('0' + rng.next_below(10));
            } else {
                c.insert(at, std::string(1 + pos(12), static_cast<char>('0' + rng.next_below(10))));
            }
            return c;
        }
        case 2: {  // replace one value
            const std::size_t eq = c.find('=', pos(c.size() + 1));
            if (eq == std::string::npos) return c + "=1";
            const std::size_t end = c.find(';', eq);
            c.replace(eq + 1, (end == std::string::npos ? c.size() : end) - eq - 1,
                      kValues[pos(std::size(kValues))]);
            return c;
        }
        case 3: {  // duplicate an existing field
            const std::size_t semi = c.find(';');
            return c + ";" + c.substr(0, semi);
        }
        case 4: return c + kFields[pos(std::size(kFields))];
        case 5: c.insert(pos(c.size() + 1), 1, rng.next_below(2) == 0 ? ';' : '='); return c;
        case 6:
            if (!c.empty()) c.erase(pos(c.size()), 1);
            return c;
        default: return rng.next_below(2) == 0 ? ";" + c : c + ";";
    }
}

int mutate_count(au::Rng& rng) {
    static const int kCounts[] = {-1, 0, 1, 2, 48, 3700, 177600, kMaxRanks, kMaxRanks + 1,
                                  kMaxRanks / 48, kMaxRanks / 48 + 1, INT_MAX};
    return kCounts[rng.next_below(std::size(kCounts))];
}

} // namespace

TEST(CatalogFuzz, MutatedSpecsThrowOrCanonicalizeToAFixedPoint) {
    const std::vector<as::PointSpec> valid = {
        spec("minikab", "rows=120000;nnz=1500000;iters=15;solver=jacobi_pcg"),
        spec("minikab", "iters=40;nnz=2.5e6"),
        spec("nekbone", "elems=200;nx1=12;iters=50;fastmath=1"),
        spec("nekbone", ""),
        spec("cosa", "blocks=800;cells=5000000;harmonics=4;iters=20"),
        spec("cosa", "iters=3")};
    au::Rng rng(0xca7a1095ULL);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        as::PointSpec s = valid[rng.next_below(valid.size())];
        for (int m = 0, n = static_cast<int>(rng.next_below(3)); m < n; ++m) {
            s.config = mutate_config(s.config, rng);
        }
        switch (rng.next_below(6)) {  // placements, including the rank bound
            case 0: s.nodes = mutate_count(rng); break;
            case 1: s.ranks = mutate_count(rng); break;
            case 2: s.threads = mutate_count(rng); break;
            case 3: s.app = rng.next_below(2) == 0 ? "hpcg" : "cosa"; break;
            default: break;
        }
        try {
            const as::PointSpec out = as::canonicalize(s);
            EXPECT_EQ(as::canonicalize(out), out)
                << s.app << " n" << s.nodes << " r" << s.ranks << " '" << s.config << "'";
            ++accepted;
        } catch (const au::Error&) {
            ++rejected;
        }
    }
    // Both outcomes must be well exercised, or the corpus tests nothing.
    EXPECT_GT(accepted, 400);
    EXPECT_GT(rejected, 400);
}
