#pragma once
// kern::par — the deterministic multithreaded execution layer under every
// real kernel (DESIGN.md §9). One process-wide util::ThreadPool, sized by
// set_jobs() (bench --jobs) or ARMSTICE_JOBS, runs statically partitioned
// index ranges.
//
// The determinism contract, enforced by tests/kern/test_kern_threads.cpp:
// kernel outputs are bit-identical at every jobs value. Two rules make that
// hold:
//
//  1. parallel_for is only used for loops whose iterations write disjoint
//     outputs and read shared inputs — each output element is computed by
//     exactly one iteration, by the same expression, regardless of how the
//     range is partitioned. Partition boundaries may therefore depend on
//     the thread count.
//
//  2. Reductions never accumulate across partition boundaries. reduce_sum
//     cuts [0, n) into fixed kReduceBlock-element blocks whose boundaries
//     depend only on n; each block partial is summed serially in index
//     order, and the partials combine by a pairwise tree over the block
//     array — the same tree at --jobs 1 and --jobs 8. dot/norm2/CG
//     residual histories are bit-identical across thread counts.
//
// OpCounts need no special handling: every kernel adds its exact analytic
// totals once, outside the parallel region, so counts are identical across
// thread counts by construction.

#include <functional>
#include <vector>

namespace armstice::kern::par {

/// Worker threads used by parallel_for/reduce_sum: the last set_jobs value
/// if >= 1, else the ARMSTICE_JOBS environment variable (util::env_jobs;
/// throws util::Error on a bad value), else 1 (serial — kernels never pay
/// thread startup unasked).
int jobs();

/// Install the process-wide kernel thread count (bench --jobs; tests).
/// Values < 1 reset to the environment/serial default. Must not be called
/// while kernels are executing on other threads.
void set_jobs(int jobs);

/// One contiguous index range [begin, end).
struct Range {
    long begin = 0;
    long end = 0;
    [[nodiscard]] long size() const { return end - begin; }
};

/// Split [0, n) into at most `max_parts` contiguous non-empty ranges whose
/// boundaries fall on multiples of `align` (the SELL chunk size, a stencil
/// plane, ...; the final boundary is n itself). Earlier parts are at most
/// one align-unit larger than later ones — the same balanced rule
/// kern::tile_cells uses for mesh decomposition.
std::vector<Range> split(long n, int max_parts, long align = 1);

/// Run body(range) over a partition of [0, n). Serial (one body({0, n})
/// call on the calling thread) when jobs() == 1, when n < grain, or when
/// invoked from inside another parallel region (nested parallelism runs
/// inline rather than deadlocking the shared pool). The body must write
/// disjoint outputs per index — see rule 1 above. Exceptions thrown by the
/// body are rethrown on the calling thread after the batch drains.
void parallel_for(long n, const std::function<void(Range)>& body, long align = 1,
                  long grain = 4096);

/// Fixed reduction block: boundaries at multiples of kReduceBlock depend
/// only on the problem size, never on the thread count. 4096 doubles keeps
/// a block's partial in L1 while giving 8 workers >= 30 blocks at the
/// HPCG-class vector sizes the benches measure.
inline constexpr long kReduceBlock = 4096;

/// Deterministic blocked pairwise sum: block_sum(range) must return the
/// serial in-order sum of its block (ranges are exactly the kReduceBlock
/// grid over [0, n)); the partials combine pairwise in index order.
double reduce_sum(long n, const std::function<double(Range)>& block_sum);

/// Same block structure for a max reduction (max is exactly associative, so
/// this is bit-identical to a serial scan for any partition; the blocked
/// form just parallelises it). `block_max` returns the max over its range.
double reduce_max(long n, const std::function<double(Range)>& block_max);

/// Pairwise tree sum of v[0..n) — the combiner reduce_sum applies to block
/// partials, exposed for tests and for callers that precompute partials.
double pairwise_sum(const double* v, std::size_t n);

} // namespace armstice::kern::par
