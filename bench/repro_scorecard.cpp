// The reproduction scorecard: every published number vs the model, plus
// the qualitative findings, in one table. The capstone artefact of the
// reproduction (see EXPERIMENTS.md for per-table discussion).

#include "bench_common.hpp"

#include "core/score.hpp"

#include <algorithm>
#include <vector>

namespace {

void BM_FullScorecard(benchmark::State& state) {
    // The cost of reproducing the paper end to end: each iteration empties
    // the sweep memo, untimed, so it re-evaluates every point instead of
    // replaying the scorecard main() already computed. The disk cache stays
    // as configured: off unless --cache-dir or ARMSTICE_CACHE is set.
    for (auto _ : state) {
        state.PauseTiming();
        armstice::core::reset_sweep_cache();
        state.ResumeTiming();
        benchmark::DoNotOptimize(armstice::core::compute_scorecard().total_points());
    }
}
BENCHMARK(BM_FullScorecard)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(5)
    ->ComputeStatistics("min",
                        [](const std::vector<double>& v) {
                            return *std::min_element(v.begin(), v.end());
                        })
    ->ReportAggregatesOnly(true);

} // namespace

int main(int argc, char** argv) {
    armstice::benchx::init(argc, argv);
    const auto card = armstice::core::compute_scorecard();
    return armstice::benchx::run(argc, argv, armstice::core::render_scorecard(card));
}
