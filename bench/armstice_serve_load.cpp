// armstice_serve_load — load driver for the serving daemon (DESIGN.md §14).
//
// Spins up an in-process serve::Server on a private unix socket, then hammers
// it with N client threads each issuing M sweep requests drawn
// deterministically (seeded xoshiro) from a pool of K distinct point keys.
// Because requests overlap heavily, the run exercises all three service
// paths — fresh computation, request coalescing, and cache hits — and the
// numbers recorded in BENCH_serve.json are the throughput of the full stack:
// socket framing + coalescing map + SweepRunner + result encoding.
//
// Every client verifies its streams: all points ok, and byte-identical to a
// reference reply for the same key set. The driver exits non-zero on any
// divergence, so the bench doubles as a correctness soak.

#include "core/cache.hpp"
#include "core/runner.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

namespace serve = armstice::serve;
namespace util = armstice::util;

/// K distinct point keys: minikab and nekbone configs laddered over size and
/// node count. Deterministic — the pool depends only on `keys`.
std::vector<serve::PointSpec> build_pool(int keys) {
    std::vector<serve::PointSpec> pool;
    pool.reserve(static_cast<std::size_t>(keys));
    for (int k = 0; k < keys; ++k) {
        serve::PointSpec p;
        p.system = "A64FX";
        p.nodes = 1 + k % 4;
        p.ranks = 8 * p.nodes;
        if (k % 2 == 0) {
            p.app = "minikab";
            p.threads = 1;
            p.config = util::format("rows=%d;nnz=%d;iters=%d", 150000 + 10000 * (k / 2),
                                    2000000 + 100000 * (k / 2), 30 + 5 * (k % 3));
        } else {
            p.app = "nekbone";
            p.config = util::format("elems=%d;nx1=8;iters=%d", 6 + k / 2, 15 + 5 * (k % 3));
        }
        pool.push_back(p);
    }
    return pool;
}

struct ClientTally {
    std::uint64_t requests = 0;
    std::uint64_t points = 0;
    std::uint64_t retries = 0;
    std::string failure;
};

} // namespace

int main(int argc, char** argv) {
    try {
        armstice::core::set_default_jobs(
            util::jobs_from_args(argc, argv, armstice::core::default_jobs()));
        armstice::core::set_cache_dir(util::cache_dir_from_args(argc, argv));
    } catch (const util::Error& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    util::Cli cli("armstice_serve_load",
                  "Load driver for armstice_serve: concurrent clients, "
                  "overlapping keys, records BENCH_serve.json.");
    cli.option("clients", "concurrent client threads", "8");
    cli.option("requests", "sweep requests per client", "25");
    cli.option("keys", "distinct point keys in the pool", "12");
    cli.option("points", "points per sweep request", "4");
    cli.option("workers", "server compute threads", "4");
    cli.option("max-inflight", "server admission bound", "256");
    cli.option("seed", "base RNG seed", "42");
    cli.option("json", "output path ('' = no file)", "BENCH_serve.json");
    int clients = 0, requests = 0, keys = 0, points = 0, workers = 0, max_inflight = 0;
    try {
        cli.parse(argc, argv);
        clients = cli.get_int("clients", 1, util::kMaxJobs);
        requests = cli.get_int("requests", 1, 1 << 20);
        keys = cli.get_int("keys", 1, 1 << 16);
        points = cli.get_int("points", 1, static_cast<int>(serve::kMaxPointsPerRequest));
        workers = cli.get_int("workers", 1, util::kMaxJobs);
        max_inflight = cli.get_int("max-inflight", 1, 1 << 20);
    } catch (const util::Error& e) {
        std::fprintf(stderr, "%s\n%s", e.what(), cli.usage().c_str());
        return 2;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_long("seed"));

    const std::vector<serve::PointSpec> pool = build_pool(keys);

    // Reference payload per pool key, computed through the batch path once so
    // every served byte can be checked against SweepRunner ground truth.
    std::vector<std::string> reference(pool.size());
    {
        const std::vector<armstice::apps::AppResult> batch =
            serve::batch_eval(pool, armstice::core::default_jobs());
        for (std::size_t i = 0; i < pool.size(); ++i) {
            reference[i] = serve::encode_result(batch[i]);
        }
    }

    const std::string sock_path =
        (std::filesystem::temp_directory_path() /
         util::format("armstice-serve-load-%d.sock", static_cast<int>(::getpid())))
            .string();
    serve::ServerConfig cfg;
    cfg.unix_path = sock_path;
    cfg.workers = workers;
    cfg.max_inflight = static_cast<std::size_t>(max_inflight);
    cfg.max_sessions = clients + 4;
    serve::Server server(cfg);
    server.start();

    std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                ClientTally& tally = tallies[static_cast<std::size_t>(c)];
                try {
                    serve::Client client = serve::Client::connect_unix_path(sock_path);
                    util::Rng rng(seed + static_cast<std::uint64_t>(c) * 0x9e3779b9ULL);
                    for (int r = 0; r < requests; ++r) {
                        std::vector<serve::PointSpec> specs;
                        std::vector<std::size_t> picked;
                        specs.reserve(static_cast<std::size_t>(points));
                        for (int p = 0; p < points; ++p) {
                            const std::size_t k =
                                static_cast<std::size_t>(rng.next_below(pool.size()));
                            picked.push_back(k);
                            specs.push_back(pool[k]);
                        }
                        const serve::Client::SweepReply reply = client.sweep(specs);
                        if (reply.retry) {
                            ++tally.retries;
                            --r;  // overload backoff: retry the same request
                            std::this_thread::sleep_for(std::chrono::milliseconds(5));
                            continue;
                        }
                        ++tally.requests;
                        if (reply.points.size() != specs.size()) {
                            tally.failure = util::format("short stream: %zu/%zu points",
                                                         reply.points.size(), specs.size());
                            return;
                        }
                        for (std::size_t i = 0; i < specs.size(); ++i) {
                            ++tally.points;
                            if (!reply.points[i].ok) {
                                tally.failure = "point error: " + reply.points[i].payload;
                                return;
                            }
                            if (reply.points[i].payload != reference[picked[i]]) {
                                tally.failure = util::format(
                                    "served bytes diverge from batch SweepRunner for "
                                    "pool key %zu",
                                    picked[i]);
                                return;
                            }
                        }
                    }
                } catch (const std::exception& e) {
                    tally.failure = e.what();
                }
            });
        }
        for (auto& t : threads) t.join();
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    int rc = 0;
    std::uint64_t total_requests = 0, total_points = 0, total_retries = 0;
    for (int c = 0; c < clients; ++c) {
        const ClientTally& tally = tallies[static_cast<std::size_t>(c)];
        if (!tally.failure.empty()) {
            std::fprintf(stderr, "client %d failed: %s\n", c, tally.failure.c_str());
            rc = 1;
        }
        total_requests += tally.requests;
        total_points += tally.points;
        total_retries += tally.retries;
    }

    const serve::StatsResult stats = server.stats_snapshot();
    server.stop();

    const double qps = wall_s > 0 ? static_cast<double>(total_requests) / wall_s : 0.0;
    const double pps = wall_s > 0 ? static_cast<double>(total_points) / wall_s : 0.0;
    const double hit_rate =
        stats.points > 0 ? static_cast<double>(stats.cache_hits) / static_cast<double>(stats.points)
                         : 0.0;
    const double coalesce_rate =
        stats.points > 0 ? static_cast<double>(stats.coalesced) / static_cast<double>(stats.points)
                         : 0.0;

    std::printf(
        "[serve-load] clients=%d requests=%llu points=%llu wall=%.3fs | "
        "qps=%.1f points/s=%.1f\n",
        clients, static_cast<unsigned long long>(total_requests),
        static_cast<unsigned long long>(total_points), wall_s, qps, pps);
    std::printf(
        "[serve-load] computed=%llu (distinct keys=%d) cache_hits=%llu (%.1f%%) "
        "coalesced=%llu (%.1f%%) retries=%llu rss=%.1fMiB\n",
        static_cast<unsigned long long>(stats.computed), keys,
        static_cast<unsigned long long>(stats.cache_hits), 100.0 * hit_rate,
        static_cast<unsigned long long>(stats.coalesced), 100.0 * coalesce_rate,
        static_cast<unsigned long long>(total_retries),
        static_cast<double>(stats.rss_bytes) / (1024.0 * 1024.0));

    if (stats.computed > static_cast<std::uint64_t>(keys)) {
        std::fprintf(stderr,
                     "serve-load: %llu computations for %d distinct keys — "
                     "coalescing failed to dedup\n",
                     static_cast<unsigned long long>(stats.computed), keys);
        rc = 1;
    }

    const std::string json_path = cli.get("json");
    if (rc == 0 && !json_path.empty()) {
        std::string json = "{\n";
        json += "  \"bench\": \"serve\",\n";
        json += util::format("  \"clients\": %d,\n", clients);
        json += util::format("  \"requests_per_client\": %d,\n", requests);
        json += util::format("  \"distinct_keys\": %d,\n", keys);
        json += util::format("  \"points_per_request\": %d,\n", points);
        json += util::format("  \"workers\": %d,\n", cfg.workers);
        json += util::format("  \"wall_seconds\": %.6f,\n", wall_s);
        json += util::format("  \"requests\": %llu,\n",
                             static_cast<unsigned long long>(total_requests));
        json += util::format("  \"points_served\": %llu,\n",
                             static_cast<unsigned long long>(total_points));
        json += util::format("  \"qps\": %.1f,\n", qps);
        json += util::format("  \"points_per_sec\": %.1f,\n", pps);
        json += util::format("  \"computed\": %llu,\n",
                             static_cast<unsigned long long>(stats.computed));
        json += util::format("  \"cache_hits\": %llu,\n",
                             static_cast<unsigned long long>(stats.cache_hits));
        json += util::format("  \"cache_hit_rate\": %.4f,\n", hit_rate);
        json += util::format("  \"coalesced\": %llu,\n",
                             static_cast<unsigned long long>(stats.coalesced));
        json += util::format("  \"coalesce_rate\": %.4f,\n", coalesce_rate);
        json += util::format("  \"retries\": %llu,\n",
                             static_cast<unsigned long long>(total_retries));
        json += util::format("  \"rss_bytes\": %llu,\n",
                             static_cast<unsigned long long>(stats.rss_bytes));
        json += "  \"bit_identical_to_batch\": true\n";
        json += "}\n";
        if (!util::write_file_atomic(json_path, json)) {
            std::fprintf(stderr, "serve-load: failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("[serve-load] wrote %s\n", json_path.c_str());
    }
    return rc;
}
