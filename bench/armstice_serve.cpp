// armstice_serve — the armstice-as-a-service daemon (DESIGN.md §14).
//
// Default mode: bind a unix and/or TCP endpoint and serve sweep / figure /
// scorecard / stats requests until SIGINT/SIGTERM. --smoke runs the
// self-test the CI workflow gates on: an in-process server, a burst of
// concurrent identical sweeps from a small client fleet, and hard checks
// that (a) every client streamed complete bit-identical results, (b) the
// request-coalescing counter engaged (> 0), and (c) exactly one underlying
// computation ran per distinct point key.

#include "core/cache.hpp"
#include "core/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/str.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

namespace serve = armstice::serve;
namespace util = armstice::util;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// The smoke workload: a few distinct minikab/nekbone points, cheap enough
/// that the whole smoke finishes in seconds.
std::vector<serve::PointSpec> smoke_specs() {
    std::vector<serve::PointSpec> specs;
    for (int nodes = 1; nodes <= 2; ++nodes) {
        serve::PointSpec p;
        p.app = "minikab";
        p.system = "A64FX";
        p.nodes = nodes;
        p.ranks = 8 * nodes;
        p.threads = 1;
        p.config = "rows=200000;nnz=3000000;iters=40";
        specs.push_back(p);
    }
    for (int nodes = 1; nodes <= 2; ++nodes) {
        serve::PointSpec p;
        p.app = "nekbone";
        p.system = "A64FX";
        p.nodes = nodes;
        p.ranks = 8 * nodes;
        p.config = "elems=8;nx1=8;iters=20";
        specs.push_back(p);
    }
    return specs;
}

int run_smoke() {
    const std::string sock_path =
        (std::filesystem::temp_directory_path() /
         util::format("armstice-serve-smoke-%d.sock", static_cast<int>(::getpid())))
            .string();
    serve::ServerConfig cfg;
    cfg.unix_path = sock_path;
    cfg.workers = 2;
    cfg.max_inflight = 64;
    serve::Server server(cfg);
    server.start();

    const std::vector<serve::PointSpec> specs = smoke_specs();
    constexpr int kClients = 8;
    std::vector<serve::Client::SweepReply> replies(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                serve::Client client = serve::Client::connect_unix_path(sock_path);
                replies[c] = client.sweep(specs);
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (auto& t : clients) t.join();

    int rc = 0;
    for (int c = 0; c < kClients; ++c) {
        if (!failures[c].empty()) {
            std::fprintf(stderr, "smoke: client %d failed: %s\n", c,
                         failures[c].c_str());
            rc = 1;
            continue;
        }
        const auto& reply = replies[c];
        if (reply.retry || reply.points.size() != specs.size()) {
            std::fprintf(stderr, "smoke: client %d got %zu/%zu points%s\n", c,
                         reply.points.size(), specs.size(),
                         reply.retry ? " (RETRY_LATER)" : "");
            rc = 1;
            continue;
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!reply.points[i].ok) {
                std::fprintf(stderr, "smoke: client %d point %zu errored: %s\n", c,
                             i, reply.points[i].payload.c_str());
                rc = 1;
            } else if (reply.points[i].payload != replies[0].points[i].payload) {
                std::fprintf(stderr,
                             "smoke: client %d point %zu diverges from client 0 "
                             "(serving is not bit-identical)\n",
                             c, i);
                rc = 1;
            }
        }
    }

    const serve::StatsResult stats = server.stats_snapshot();
    std::printf(
        "[smoke] clients=%d points/request=%zu | computed=%llu coalesced=%llu "
        "cache_hits=%llu retries=%llu\n",
        kClients, specs.size(), static_cast<unsigned long long>(stats.computed),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.retries));
    if (stats.coalesced == 0) {
        std::fprintf(stderr,
                     "smoke: coalesce counter is 0 — concurrent identical sweeps "
                     "did not share computations\n");
        rc = 1;
    }
    if (stats.computed != specs.size()) {
        std::fprintf(stderr,
                     "smoke: %llu computations for %zu distinct keys (expected "
                     "exactly one per key)\n",
                     static_cast<unsigned long long>(stats.computed),
                     specs.size());
        rc = 1;
    }
    server.stop();
    std::printf("[smoke] %s\n", rc == 0 ? "OK" : "FAILED");
    return rc;
}

} // namespace

int main(int argc, char** argv) {
    // --jobs / --cache-dir first, like every bench binary (the figure and
    // scorecard artefacts behind serve requests sweep through SweepRunner).
    try {
        armstice::core::set_default_jobs(
            util::jobs_from_args(argc, argv, armstice::core::default_jobs()));
        armstice::core::set_cache_dir(util::cache_dir_from_args(argc, argv));
    } catch (const util::Error& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    util::Cli cli("armstice_serve",
                  "Concurrent sweep server: shared cache, request coalescing, "
                  "bounded admission (DESIGN.md §14).");
    cli.option("unix", "unix-domain socket path to listen on", "");
    cli.option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "-1");
    cli.option("workers", "compute threads", "4");
    cli.option("max-inflight", "admission bound on fresh computations", "256");
    cli.option("max-sessions", "concurrent client connections", "64");
    cli.flag("smoke", "run the in-process self-test and exit");
    serve::ServerConfig cfg;
    try {
        cli.parse(argc, argv);
        cfg.unix_path = cli.has("unix") ? cli.get("unix") : "";
        cfg.tcp_port = cli.get_int("port", -1, 65535);
        cfg.workers = cli.get_int("workers", 1, util::kMaxJobs);
        cfg.max_inflight =
            static_cast<std::size_t>(cli.get_int("max-inflight", 1, 1 << 20));
        cfg.max_sessions = cli.get_int("max-sessions", 1, 1 << 16);
    } catch (const util::Error& e) {
        std::fprintf(stderr, "%s\n%s", e.what(), cli.usage().c_str());
        return 2;
    }

    if (cli.has("smoke")) {
        try {
            return run_smoke();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "smoke: %s\n", e.what());
            return 1;
        }
    }
    if (cfg.unix_path.empty() && cfg.tcp_port < 0) {
        cfg.tcp_port = 0;  // default: ephemeral TCP, port printed below
    }

    serve::Server server(cfg);
    try {
        server.start();
    } catch (const util::Error& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    if (!server.unix_path().empty()) {
        std::printf("[serve] listening on unix:%s\n", server.unix_path().c_str());
    }
    if (server.tcp_port() >= 0) {
        std::printf("[serve] listening on tcp:127.0.0.1:%d\n", server.tcp_port());
    }
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    const serve::StatsResult stats = server.stats_snapshot();
    std::printf(
        "[serve] shutting down | requests=%llu points=%llu cache_hits=%llu "
        "coalesced=%llu computed=%llu retries=%llu qps=%.1f\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.points),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.computed),
        static_cast<unsigned long long>(stats.retries), stats.qps);
    server.stop();
    return 0;
}
