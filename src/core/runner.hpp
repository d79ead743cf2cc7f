#pragma once
// SweepRunner — parallel experiment execution with a memoizing point cache.
//
// Every experiment in this repo is a sweep: evaluate a pure function of a
// (system, nodes, ranks, threads, app-config) point for many points. The
// engine stack is side-effect-free (`Engine::run` is const; see the
// thread-safety note in sim/engine.hpp), so points can run concurrently.
// SweepRunner executes a vector of points on a fixed-size util::ThreadPool
// with *deterministic result ordering*: results land by point index, never
// by completion order, so `--jobs 8` output is byte-identical to `--jobs 1`.
//
// Repeated points are computed once. The process-global memo cache is keyed
// by a stable result-type tag (core/cache_codec.hpp) plus SweepPoint::key();
// the bench binaries that rerun overlapping sweeps (the scorecard reruns
// every artefact, google-benchmark reruns sweeps per iteration) hit the
// cache instead of re-simulating. When a persistent cache directory is
// installed (core/cache.hpp, bench --cache-dir / ARMSTICE_CACHE), memo
// misses additionally probe the on-disk store before evaluating, and fresh
// results are flushed back — so overlapping points are shared across
// *processes*, e.g. `for b in build/bench/*; do $b --cache-dir .cache; done`.
// Cache and execution counters are surfaced in every bench footer
// (sweep_footer()).

#include "core/cache_codec.hpp"

#include <any>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace armstice::core {

/// Stable descriptor of one sweep point. `config` must canonically encode
/// every app parameter that can affect the result — the cache key is built
/// from all fields plus the result type, and two points with equal keys are
/// assumed interchangeable.
struct SweepPoint {
    std::string app;     ///< model family tag, e.g. "minikab"
    std::string system;  ///< arch::SystemSpec name
    int nodes = 1;
    int ranks = 0;  ///< 0 when the app derives ranks itself (e.g. per-core)
    int threads = 1;
    std::string config;  ///< canonical app-specific parameters

    [[nodiscard]] std::string key() const;
};

/// Convenience builder used by experiment/bench sweep loops.
SweepPoint sweep_point(std::string app, std::string system, int nodes, int ranks,
                       int threads, std::string config);

inline bool operator==(const SweepPoint& a, const SweepPoint& b) {
    return a.app == b.app && a.system == b.system && a.nodes == b.nodes &&
           a.ranks == b.ranks && a.threads == b.threads && a.config == b.config;
}

/// SweepPoints round-trip through the same codec machinery as results
/// (exercised by the cache fuzz tests); sweeps themselves never need it.
template <>
struct ResultTraits<SweepPoint> {
    static constexpr const char* tag = "sweep-point";
    static void encode(util::ByteWriter& w, const SweepPoint& p) {
        w.str(p.app);
        w.str(p.system);
        w.i32(p.nodes);
        w.i32(p.ranks);
        w.i32(p.threads);
        w.str(p.config);
    }
    static SweepPoint decode(util::ByteReader& r) {
        SweepPoint p;
        p.app = r.str();
        p.system = r.str();
        p.nodes = r.i32();
        p.ranks = r.i32();
        p.threads = r.i32();
        p.config = r.str();
        return p;
    }
};

/// Process-wide execution and cache counters (all SweepRunner instances).
struct SweepStats {
    long points = 0;        ///< points requested through SweepRunner::run
    long hits = 0;          ///< served from the memo cache (incl. in-batch dups)
    long disk_hits = 0;     ///< memo misses served from the persistent cache
    long disk_misses = 0;   ///< disk probes that found nothing usable
    long disk_stores = 0;   ///< fresh results flushed to the persistent cache
    long misses = 0;        ///< points actually evaluated
    /// Per-point evaluation wall time, summed, and elapsed wall time of the
    /// run() batches. Both count outermost batches only: a batch started
    /// from inside another batch's evaluation is already timed there.
    double eval_wall_s = 0;
    double batch_wall_s = 0;
    int jobs = 1;           ///< pool size of the most recent run

    [[nodiscard]] double hit_rate() const {
        return points > 0
                   ? static_cast<double>(hits + disk_hits) / static_cast<double>(points)
                   : 0.0;
    }
    /// Fraction of persistent-cache probes that hit (the second identical
    /// bench run should report ~100% here).
    [[nodiscard]] double disk_hit_rate() const {
        const long probes = disk_hits + disk_misses;
        return probes > 0
                   ? static_cast<double>(disk_hits) / static_cast<double>(probes)
                   : 0.0;
    }
};

/// Per-batch observation/cancellation hooks (the serving layer's window
/// into a running batch; plain batch callers leave both empty).
struct RunHooks {
    /// Fired once per point, as soon as that point's result exists: memo and
    /// in-batch-duplicate hits fire during batch setup, disk hits after the
    /// probe, evaluated points the moment evaluation returns — before the
    /// persistent-cache flush, so a streaming consumer is never blocked on
    /// disk I/O. May be invoked concurrently from pool threads; the value
    /// reference is only valid for the duration of the call.
    std::function<void(std::size_t index, const std::any& value)> on_result;

    /// Polled before each evaluation (cheap; called from pool threads).
    /// Returning true abandons the batch: not-yet-started evaluations are
    /// skipped and run() throws util::CancelledError once in-progress
    /// evaluations drain. Results already produced stay cached (and were
    /// already delivered through on_result).
    std::function<bool()> cancelled;
};

/// Default pool size for new SweepRunners: the value installed by
/// set_default_jobs (bench `--jobs N`), else the ARMSTICE_JOBS environment
/// variable, else 1 (serial — callers never pay thread startup unasked).
int default_jobs();
void set_default_jobs(int jobs);

SweepStats sweep_stats();
/// One-line human-readable summary of sweep_stats() for bench footers.
std::string sweep_footer();
/// Drop the memo cache and zero the counters (tests).
void reset_sweep_cache();

namespace detail {

/// Type-erased codec bridging one result type R to the persistent cache:
/// encode packs a std::any holding R into bytes; decode unpacks (returning
/// an empty any when the payload is damaged). nullptr codec = memory-only.
struct AnyCodec {
    std::string (*encode)(const std::any&);
    std::any (*decode)(const std::string&);
};

/// The singleton codec for R, or nullptr when R has no disk codec.
template <class R>
const AnyCodec* codec_for() {
    if constexpr (DiskCacheable<R>) {
        static const AnyCodec codec{
            [](const std::any& v) {
                util::ByteWriter w;
                ResultTraits<R>::encode(w, std::any_cast<const R&>(v));
                return w.take();
            },
            [](const std::string& payload) {
                util::ByteReader r(payload);
                R v = ResultTraits<R>::decode(r);
                // Reject short payloads and trailing garbage alike: either
                // means the bytes do not describe exactly one R.
                if (!r.at_end()) return std::any();
                return std::any(std::move(v));
            }};
        return &codec;
    } else {
        return nullptr;
    }
}

/// Type-erased core: fills results[i] for every i, evaluating each unique
/// uncached key exactly once on a pool of `jobs` threads. `codec`, when
/// non-null, enables the persistent-cache load/store hooks for this batch.
/// `hooks` (nullable) adds per-point result streaming and cancellation.
void run_points(const std::vector<std::string>& keys,
                const std::function<std::any(std::size_t)>& eval,
                std::vector<std::any>& results, int jobs, const AnyCodec* codec,
                const RunHooks* hooks = nullptr);

} // namespace detail

class SweepRunner {
public:
    explicit SweepRunner(int jobs = default_jobs()) : jobs_(jobs < 1 ? 1 : jobs) {}

    [[nodiscard]] int jobs() const { return jobs_; }

    /// Evaluate every point, concurrently on up to jobs() pool threads.
    /// `eval` is called as eval(points[i], i) and must be thread-safe and a
    /// pure function of that point (the index only selects pre-built
    /// configs). Results land by index; exceptions from evaluations are
    /// rethrown after the batch drains.
    template <class R>
    std::vector<R> run(const std::vector<SweepPoint>& points,
                       const std::function<R(const SweepPoint&, std::size_t)>& eval) const {
        return run<R>(points, eval, RunHooks{});
    }

    /// As above, with per-point streaming / cancellation hooks. `hooks` is
    /// only referenced for the duration of the call; on_result receives the
    /// result as a `const std::any&` holding an R.
    template <class R>
    std::vector<R> run(const std::vector<SweepPoint>& points,
                       const std::function<R(const SweepPoint&, std::size_t)>& eval,
                       const RunHooks& hooks) const {
        static_assert(TaggedResult<R>,
                      "every SweepRunner result type needs a ResultTraits<R> "
                      "specialisation with a stable tag (core/cache_codec.hpp); "
                      "typeid names are compiler-specific and cannot key the "
                      "on-disk cache");
        std::vector<std::string> keys;
        keys.reserve(points.size());
        for (const auto& p : points) {
            keys.push_back(std::string(ResultTraits<R>::tag) + '|' + p.key());
        }
        std::vector<std::any> raw(points.size());
        const bool have_hooks = hooks.on_result || hooks.cancelled;
        detail::run_points(
            keys, [&](std::size_t i) { return std::any(eval(points[i], i)); }, raw,
            jobs_, detail::codec_for<R>(), have_hooks ? &hooks : nullptr);
        std::vector<R> out;
        out.reserve(points.size());
        for (auto& v : raw) out.push_back(std::any_cast<R>(std::move(v)));
        return out;
    }

private:
    int jobs_;
};

} // namespace armstice::core
