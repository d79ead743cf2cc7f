#include "kern/par.hpp"

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

namespace armstice::kern::par {
namespace {

std::atomic<int> g_jobs{0};  // 0 = unset -> consult ARMSTICE_JOBS, else 1

// Workers executing a parallel_for body set this so a nested parallel_for
// runs inline instead of submitting to (and then waiting on) the pool its
// own task occupies.
thread_local bool tl_in_parallel_region = false;

// The process-wide pool, rebuilt when the requested size changes. Callers
// hold a shared_ptr while running a batch, so a concurrent set_jobs never
// destroys a pool out from under an in-flight kernel.
std::mutex g_pool_mu;
std::shared_ptr<util::ThreadPool> g_pool;  // guarded by g_pool_mu

std::shared_ptr<util::ThreadPool> pool_for(int threads) {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool || g_pool->size() != threads) {
        g_pool = std::make_shared<util::ThreadPool>(threads);
    }
    return g_pool;
}

} // namespace

int jobs() {
    const int set = g_jobs.load(std::memory_order_relaxed);
    if (set >= 1) return set;
    const int env = util::env_jobs();
    return env >= 1 ? env : 1;
}

void set_jobs(int j) { g_jobs.store(j >= 1 ? j : 0, std::memory_order_relaxed); }

std::vector<Range> split(long n, int max_parts, long align) {
    ARMSTICE_CHECK(n >= 0 && align >= 1, "bad split shape");
    std::vector<Range> out;
    if (n == 0 || max_parts < 1) return out;
    const long units = (n + align - 1) / align;
    const long parts = std::min<long>(units, max_parts);
    out.reserve(static_cast<std::size_t>(parts));
    long unit = 0;
    for (long p = 0; p < parts; ++p) {
        const long take = units / parts + (p < units % parts ? 1 : 0);
        const long begin = unit * align;
        unit += take;
        const long end = std::min(n, unit * align);
        if (end > begin) out.push_back({begin, end});
    }
    return out;
}

void parallel_for(long n, const std::function<void(Range)>& body, long align,
                  long grain) {
    if (n <= 0) return;
    const int j = jobs();
    if (j <= 1 || n < grain || tl_in_parallel_region) {
        body({0, n});
        return;
    }
    const auto parts = split(n, j, align);
    if (parts.size() <= 1) {
        body({0, n});
        return;
    }

    auto pool = pool_for(j);
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(parts.size());
    for (const Range r : parts) {
        tasks.emplace_back([&, r] {
            tl_in_parallel_region = true;
            try {
                body(r);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error) first_error = std::current_exception();
            }
            tl_in_parallel_region = false;
        });
    }
    pool->run_batch(std::move(tasks));
    if (first_error) std::rethrow_exception(first_error);
}

double reduce_sum(long n, const std::function<double(Range)>& block_sum) {
    if (n <= 0) return 0.0;
    const long nblocks = (n + kReduceBlock - 1) / kReduceBlock;
    std::vector<double> partial(static_cast<std::size_t>(nblocks));
    parallel_for(
        nblocks,
        [&](Range blocks) {
            for (long b = blocks.begin; b < blocks.end; ++b) {
                const long lo = b * kReduceBlock;
                partial[static_cast<std::size_t>(b)] =
                    block_sum({lo, std::min(n, lo + kReduceBlock)});
            }
        },
        /*align=*/1, /*grain=*/2);
    return pairwise_sum(partial.data(), partial.size());
}

double reduce_max(long n, const std::function<double(Range)>& block_max) {
    if (n <= 0) return 0.0;
    const long nblocks = (n + kReduceBlock - 1) / kReduceBlock;
    std::vector<double> partial(static_cast<std::size_t>(nblocks));
    parallel_for(
        nblocks,
        [&](Range blocks) {
            for (long b = blocks.begin; b < blocks.end; ++b) {
                const long lo = b * kReduceBlock;
                partial[static_cast<std::size_t>(b)] =
                    block_max({lo, std::min(n, lo + kReduceBlock)});
            }
        },
        /*align=*/1, /*grain=*/2);
    double m = partial[0];
    for (const double v : partial) m = std::max(m, v);
    return m;
}

double pairwise_sum(const double* v, std::size_t n) {
    if (n == 0) return 0.0;
    if (n <= 8) {
        double s = v[0];
        for (std::size_t i = 1; i < n; ++i) s += v[i];
        return s;
    }
    const std::size_t half = n / 2;
    return pairwise_sum(v, half) + pairwise_sum(v + half, n - half);
}

} // namespace armstice::kern::par
