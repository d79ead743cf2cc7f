// Example: "port" a new application onto the simulator. This is what a user
// does to ask "how would my code behave on the paper's five machines?" —
// describe the per-iteration work as counted phases, express the
// communication with MiniMpi, and sweep systems and node counts.
//
// The demo app is a 2D weather-advection kernel: one stencil sweep + one
// halo exchange + one reduction per timestep.

#include "apps/common.hpp"
#include "arch/system.hpp"
#include "arch/toolchain.hpp"
#include "util/table.hpp"

#include <cstdio>

namespace {

armstice::apps::AppResult simulate_weather(const armstice::arch::SystemSpec& sys,
                                           int nodes) {
    using namespace armstice;

    const int ranks = nodes * sys.node.cores();
    const long grid = 4096;  // global 4096^2 cells, 60 doubles each
    const double cells_per_rank = static_cast<double>(grid) * grid / ranks;

    // One timestep of our app, per rank: a 9-point stencil update over the
    // local cells (exact counts!), then a halo swap, then a CFL reduction.
    arch::ComputePhase sweep;
    sweep.label = "advection-sweep";
    sweep.flops = 85.0 * cells_per_rank;           // 9-pt update + limiter
    sweep.main_bytes = 60.0 * 8.0 * cells_per_rank;
    sweep.pattern = arch::MemPattern::stream;
    sweep.vector_fraction = 0.9;
    sweep.efficiency = 0.8;

    // The halo graph is checked, and its per-rank shapes numbered, once when
    // it is built: build it before the timestep loop and pass it to every
    // halo_exchange. A hand-written graph is simmpi::HaloGraph(lists).
    const auto dims = simmpi::dims_create(ranks, 2);
    const simmpi::HaloGraph neighbors = simmpi::cart_neighbors(dims, /*periodic=*/true);
    const double halo_bytes = 8.0 * 60.0 * (grid / dims[0]);

    simmpi::ProgramSet ps(ranks);
    ps.mark("weather-step");
    for (int step = 0; step < 50; ++step) {
        ps.halo_exchange(neighbors, halo_bytes);
        ps.compute(sweep);
        ps.allreduce(8);  // CFL number
    }

    const double footprint = 60.0 * 8.0 * cells_per_rank + 100e6;
    const auto tc = arch::toolchain_for(sys.name, "custom-app");  // fallback
    return apps::run_on(sys, nodes, ranks, /*threads=*/1, tc.vec_quality,
                        std::move(ps), footprint);
}

} // namespace

int main() {
    using namespace armstice;

    std::puts("Porting a custom application across the paper's five systems\n");

    util::Table t("2D advection demo app, 50 timesteps (model)");
    t.header({"System", "1 node (s)", "4 nodes (s)", "scaling efficiency"});
    for (const auto& sys : arch::system_catalog()) {
        const auto one = simulate_weather(sys, 1);
        const auto four = simulate_weather(sys, 4);
        t.row({sys.name, util::Table::num(one.seconds, 3),
               util::Table::num(four.seconds, 3),
               util::Table::num(
                   apps::parallel_efficiency_strong(one.seconds, four.seconds, 4))});
    }
    t.print();

    std::puts("\nInterpretation: the bandwidth-hungry sweep favours the A64FX's");
    std::puts("HBM2 exactly as HPCG does in the paper; scaling efficiency tracks");
    std::puts("each machine's interconnect latency model.");
    return 0;
}
