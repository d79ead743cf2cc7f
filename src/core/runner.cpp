#include "core/runner.hpp"

#include "core/cache.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "util/threadpool.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace armstice::core {
namespace {

// Cache values are shared_ptr so concurrent readers can hold a hit while an
// unrelated insert rehashes the map. One mutex guards map + stats + default
// jobs; all critical sections are O(points), never O(simulation).
std::mutex g_mu;
std::unordered_map<std::string, std::shared_ptr<const std::any>>& cache() {
    static std::unordered_map<std::string, std::shared_ptr<const std::any>> c;
    return c;
}
SweepStats g_stats;
int g_default_jobs = 0;  // 0 = unset -> consult ARMSTICE_JOBS, else serial

// True while this thread is inside a point evaluation. A batch started from
// there (compute_scorecard's entries run artefact batches) is nested: its
// time is already inside the outer evaluation, so it must not add to the
// wall-time counters a second time.
thread_local bool t_in_eval = false;

int env_jobs() {
    const char* env = std::getenv("ARMSTICE_JOBS");
    if (env == nullptr || *env == '\0') return 0;
    const long v = std::strtol(env, nullptr, 10);
    return v >= 1 ? static_cast<int>(v) : 0;
}

} // namespace

std::string SweepPoint::key() const {
    return util::format("%s|%s|n%d|r%d|t%d|%s", app.c_str(), system.c_str(), nodes,
                        ranks, threads, config.c_str());
}

SweepPoint sweep_point(std::string app, std::string system, int nodes, int ranks,
                       int threads, std::string config) {
    SweepPoint p;
    p.app = std::move(app);
    p.system = std::move(system);
    p.nodes = nodes;
    p.ranks = ranks;
    p.threads = threads;
    p.config = std::move(config);
    return p;
}

int default_jobs() {
    {
        std::lock_guard<std::mutex> lock(g_mu);
        if (g_default_jobs >= 1) return g_default_jobs;
    }
    const int env = env_jobs();
    return env >= 1 ? env : 1;
}

void set_default_jobs(int jobs) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_default_jobs = jobs >= 1 ? jobs : 0;
}

SweepStats sweep_stats() {
    std::lock_guard<std::mutex> lock(g_mu);
    return g_stats;
}

std::string sweep_footer() {
    const SweepStats s = sweep_stats();
    std::string out = util::format(
        "[sweep] pool=%d jobs | %ld points (%ld evaluated, %ld memo cache hits, "
        "%ld disk cache hits, %.1f%% hit rate) | eval %.2fs across workers, "
        "%.2fs wall\n",
        s.jobs, s.points, s.misses, s.hits, s.disk_hits, 100.0 * s.hit_rate(),
        s.eval_wall_s, s.batch_wall_s);
    if (CacheStore* store = cache_store(); store != nullptr) {
        const auto cs = store->stats();
        out += util::format(
            "[cache] dir=%s | %ld/%ld disk probes hit (%.1f%% disk-hit rate) | "
            "%ld entries written, %ld rejected as damaged/stale\n",
            store->dir().c_str(), s.disk_hits, s.disk_hits + s.disk_misses,
            100.0 * s.disk_hit_rate(), cs.stores, cs.rejected);
    }
    return out;
}

void reset_sweep_cache() {
    std::lock_guard<std::mutex> lock(g_mu);
    cache().clear();
    g_stats = SweepStats{};
}

namespace detail {

void run_points(const std::vector<std::string>& keys,
                const std::function<std::any(std::size_t)>& eval,
                std::vector<std::any>& results, int jobs, const AnyCodec* codec,
                const RunHooks* hooks) {
    const std::size_t n = keys.size();
    results.resize(n);
    const bool nested = t_in_eval;

    // Partition under the lock: cached points resolve immediately; the first
    // occurrence of each uncached key becomes a task, later occurrences
    // alias its slot.
    std::vector<std::shared_ptr<const std::any>> hit(n);
    std::vector<std::size_t> owner(n);  // index whose evaluation serves point i
    std::vector<std::size_t> reps;      // representative indices to evaluate
    {
        std::lock_guard<std::mutex> lock(g_mu);
        std::unordered_map<std::string, std::size_t> first;
        long hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            owner[i] = i;
            const auto it = cache().find(keys[i]);
            if (it != cache().end()) {
                hit[i] = it->second;
                ++hits;
                continue;
            }
            const auto [f, inserted] = first.emplace(keys[i], i);
            if (inserted) {
                reps.push_back(i);
            } else {
                owner[i] = f->second;
                ++hits;
            }
        }
        g_stats.points += static_cast<long>(n);
        g_stats.hits += hits;
        g_stats.jobs = jobs;
    }

    // Streaming: deliver(rep, value) fires on_result for the representative
    // AND every in-batch duplicate aliased to it, so a consumer waiting on
    // any index unblocks the moment its key's result exists. Memo hits fire
    // here, before anything evaluates.
    auto deliver = [&](std::size_t rep, const std::any& value) {
        if (hooks == nullptr || !hooks->on_result) return;
        hooks->on_result(rep, value);
        for (std::size_t i = 0; i < n; ++i) {
            if (i != rep && owner[i] == rep) hooks->on_result(i, value);
        }
    };
    if (hooks != nullptr && hooks->on_result) {
        for (std::size_t i = 0; i < n; ++i) {
            if (hit[i]) hooks->on_result(i, *hit[i]);
        }
    }

    std::vector<std::shared_ptr<const std::any>> fresh(n);

    // Persistent-cache probe: every memo miss with a disk-cacheable result
    // type first looks for a serialised entry from an earlier process. A
    // usable entry fills the point's slot exactly like an evaluation would
    // (and is promoted into the memo cache below); anything damaged, stale
    // or undecodable is just a miss. File I/O runs outside g_mu.
    CacheStore* const store = codec != nullptr ? cache_store() : nullptr;
    std::vector<std::size_t> to_eval;
    long disk_misses = 0;
    if (store != nullptr) {
        for (const std::size_t i : reps) {
            if (const auto payload = store->load(keys[i])) {
                std::any decoded = codec->decode(*payload);
                if (decoded.has_value()) {
                    fresh[i] = std::make_shared<const std::any>(std::move(decoded));
                    // Count the hit BEFORE delivering: on_result may complete
                    // a waiter that immediately reads sweep_stats(), and a
                    // delivered result whose hit isn't counted yet reads as a
                    // lost update.
                    {
                        std::lock_guard<std::mutex> lock(g_mu);
                        ++g_stats.disk_hits;
                    }
                    deliver(i, *fresh[i]);
                    continue;
                }
                util::log_warn("cache: undecodable payload for key " + keys[i] +
                               " (treated as miss)");
            }
            ++disk_misses;
            to_eval.push_back(i);
        }
    } else {
        to_eval = reps;
    }
    {
        std::lock_guard<std::mutex> lock(g_mu);
        g_stats.disk_misses += disk_misses;
        g_stats.misses += static_cast<long>(to_eval.size());
    }
    const std::vector<std::size_t>& pending = to_eval;

    std::vector<std::exception_ptr> errors(pending.size());
    double eval_s = 0;
    std::mutex eval_mu;
    std::atomic<bool> cancelled{false};
    const auto batch_start = std::chrono::steady_clock::now();

    auto eval_one = [&](std::size_t j) {
        // Cancellation is polled per evaluation: a cancelled batch skips
        // everything not yet started but lets in-progress points finish (a
        // half-evaluated simulation is useless; a finished one is cacheable).
        if (cancelled.load(std::memory_order_relaxed) ||
            (hooks != nullptr && hooks->cancelled && hooks->cancelled())) {
            cancelled.store(true, std::memory_order_relaxed);
            return;
        }
        const std::size_t i = pending[j];
        const auto t0 = std::chrono::steady_clock::now();
        const bool outer = t_in_eval;
        t_in_eval = true;
        try {
            fresh[i] = std::make_shared<const std::any>(eval(i));
            deliver(i, *fresh[i]);
        } catch (...) {
            errors[j] = std::current_exception();
        }
        t_in_eval = outer;
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        std::lock_guard<std::mutex> lock(eval_mu);
        eval_s += dt;
    };

    if (!pending.empty()) {
        if (jobs <= 1 || pending.size() == 1) {
            for (std::size_t j = 0; j < pending.size(); ++j) eval_one(j);
        } else {
            util::ThreadPool pool(static_cast<int>(
                std::min<std::size_t>(pending.size(), static_cast<std::size_t>(jobs))));
            for (std::size_t j = 0; j < pending.size(); ++j) {
                pool.submit([&eval_one, j] { eval_one(j); });
            }
            pool.wait_idle();
        }
    }

    // Flush freshly evaluated results to the persistent cache (best effort;
    // atomic rename per entry, so concurrent bench processes are safe).
    // Disk-loaded entries are not rewritten.
    if (store != nullptr) {
        long stores = 0;
        for (const std::size_t i : pending) {
            if (!fresh[i]) continue;  // evaluation threw
            if (store->store(keys[i], codec->encode(*fresh[i]))) ++stores;
        }
        std::lock_guard<std::mutex> lock(g_mu);
        g_stats.disk_stores += stores;
    }

    const double batch_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_start)
            .count();
    {
        std::lock_guard<std::mutex> lock(g_mu);
        if (!nested) {
            g_stats.eval_wall_s += eval_s;
            g_stats.batch_wall_s += batch_s;
        }
        // Promote both evaluated and disk-loaded results into the memo cache.
        for (std::size_t i : reps) {
            if (fresh[i]) cache()[keys[i]] = fresh[i];
        }
    }
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    // Evaluated points were flushed and memo-promoted above; the batch
    // itself still has holes, so it cannot return results.
    if (cancelled.load(std::memory_order_relaxed)) {
        throw util::CancelledError("sweep batch cancelled");
    }

    for (std::size_t i = 0; i < n; ++i) {
        const auto& slot = hit[i] ? hit[i] : fresh[owner[i]];
        results[i] = *slot;
    }
}

} // namespace detail

} // namespace armstice::core
