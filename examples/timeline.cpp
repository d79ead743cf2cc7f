// Example: export a simulated execution timeline as Chrome-tracing JSON
// (open chrome://tracing or https://ui.perfetto.dev and load the file).
//
// The scenario is a deliberately imbalanced CG-like loop on one A64FX node:
// one CMG's ranks get 30% more work, so the trace shows the classic
// "staircase into the allreduce" pattern every HPC profiler user knows.

#include "arch/system.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace armstice;
    const std::string path = argc > 1 ? argv[1] : "timeline.json";

    const auto& sys = arch::a64fx();
    const int ranks = 48;
    simmpi::ProgramSet ps(ranks);
    for (int iter = 0; iter < 5; ++iter) {
        ps.compute_by_rank([&](int r) {
            arch::ComputePhase p;
            p.label = "spmv";
            p.flops = 2e8;
            p.main_bytes = 1.2e8 * (r < 12 ? 1.3 : 1.0);  // CMG 0 overloaded
            p.pattern = arch::MemPattern::gather;
            return p;
        });
        ps.allreduce(8);
    }

    auto placement = sim::Placement::block(sys.node, 1, ranks, 1);
    const sim::Engine engine(sys, std::move(placement), 0.62);
    sim::Trace trace;
    const auto result = engine.run(ps.take(), {}, &trace);

    trace.write_chrome_json(path);
    std::printf("simulated %d ranks for %.3f s; wrote %zu spans to %s\n", ranks,
                result.makespan, trace.size(), path.c_str());
    std::printf("  compute      %7.3f rank-seconds\n",
                trace.total_seconds(sim::SpanKind::compute));
    std::printf("  collectives  %7.3f rank-seconds (the imbalance bill)\n",
                trace.total_seconds(sim::SpanKind::collective));
    std::printf("Open the file in chrome://tracing — ranks 0-11 (the overloaded\n"
                "CMG) compute while ranks 12-47 wait at every allreduce.\n");
    return 0;
}
