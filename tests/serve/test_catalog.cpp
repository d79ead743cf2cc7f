// Range checks on served config numbers: the catalog parses every number
// into its field's type and rejects anything that type cannot hold, so a
// request is never evaluated and cached under a different key than the one
// it asked for. A wrapped or saturated parse would serve `iters=4294967297`
// as `iters=1`, `iters=9999999999999999999999` as `iters=-1` and
// `elems=2147483648` as `elems=-2147483648`; `nnz=inf` and `nnz=nan` are
// not numbers any model can price.

#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

namespace as = armstice::serve;
namespace au = armstice::util;
namespace fs = std::filesystem;

namespace {

as::PointSpec spec(const std::string& app, const std::string& config) {
    as::PointSpec p;
    p.app = app;
    p.system = "A64FX";
    p.nodes = 1;
    p.ranks = 8;
    p.config = config;
    return p;
}

std::vector<as::PointSpec> out_of_range() {
    return {spec("minikab", "iters=4294967297"),
            spec("minikab", "iters=9999999999999999999999"),
            spec("nekbone", "elems=2147483648"),
            spec("minikab", "nnz=inf"),
            spec("minikab", "nnz=nan")};
}

} // namespace

TEST(Catalog, RejectsNumbersTheFieldCannotHold) {
    for (const auto& s : out_of_range()) {
        EXPECT_THROW((void)as::canonicalize(s), au::Error) << s.app << " " << s.config;
    }
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
