// armstice_cli — a command-line driver for the simulator. Subcommands:
//
//   example_armstice_cli systems
//   example_armstice_cli run <app> --system <name> [--nodes N] [--ranks R]
//                        [--threads T] [--fastmath] [--optimized]
//   example_armstice_cli sweep <app> --system <name> [--max-nodes N]
//
// Apps: hpcg, minikab, nekbone, cosa, castep, opensbli.

#include "apps/castep/castep.hpp"
#include "apps/cosa/cosa.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/minikab/minikab.hpp"
#include "apps/nekbone/nekbone.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "arch/power.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

#include <cstdio>

namespace {

using namespace armstice;

// Option bounds: a count outside them is rejected, never narrowed. Nodes x
// cores (at most 128 on every modelled system) stays within an int rank.
constexpr int kMaxNodes = 1 << 18;
constexpr int kMaxRanks = 1 << 25;
constexpr int kMaxThreads = 1024;

struct RunSummary {
    apps::AppResult res;
    std::string metric;
};

RunSummary run_app(const std::string& app, const arch::SystemSpec& sys, int nodes,
                   int ranks, int threads, bool fastmath, bool optimized) {
    RunSummary out;
    if (app == "hpcg") {
        apps::HpcgConfig cfg;
        cfg.optimized = optimized;
        const auto r = apps::run_hpcg(sys, nodes, cfg);
        out.res = r.res;
        out.metric = util::format("%.2f GFLOP/s (%.1f%% of peak)", r.res.gflops,
                                  r.pct_peak);
    } else if (app == "minikab") {
        apps::MinikabConfig cfg;
        cfg.nodes = nodes;
        cfg.ranks = ranks > 0 ? ranks : nodes * sys.node.cores() / threads;
        cfg.threads = threads;
        out.res = apps::run_minikab(sys, cfg);
        out.metric = util::format("%.1f s solver runtime", out.res.seconds);
    } else if (app == "nekbone") {
        auto cfg = apps::nekbone_node_config(sys, nodes, fastmath);
        if (ranks > 0) cfg.ranks = ranks;
        out.res = apps::run_nekbone(sys, cfg);
        out.metric = util::format("%.2f GFLOP/s", out.res.gflops);
    } else if (app == "cosa") {
        apps::CosaConfig cfg;
        cfg.nodes = nodes;
        out.res = apps::run_cosa(sys, cfg);
        out.metric = util::format("%.1f s for 100 iterations", out.res.seconds);
    } else if (app == "castep") {
        apps::CastepConfig cfg;
        cfg.nodes = nodes;
        cfg.ranks = ranks > 0 ? ranks : nodes * sys.node.cores();
        cfg.threads = threads;
        const auto r = apps::run_castep(sys, cfg);
        out.res = r.res;
        out.metric = util::format("%.3f SCF cycles/s", r.scf_cycles_per_s);
    } else if (app == "opensbli") {
        apps::OpensbliConfig cfg;
        cfg.nodes = nodes;
        if (ranks > 0) cfg.ranks = ranks;
        out.res = apps::run_opensbli(sys, cfg);
        out.metric = util::format("%.2f s total runtime", out.res.seconds);
    } else {
        throw util::Error("unknown app '" + app +
                          "' (hpcg|minikab|nekbone|cosa|castep|opensbli)");
    }
    return out;
}

int cmd_run(util::Cli& cli) {
    const auto& sys = arch::system_by_name(cli.get("system"));
    const int nodes = cli.get_int("nodes", 1, kMaxNodes);
    const auto summary =
        run_app(cli.positionals()[1], sys, nodes,
                cli.has("ranks") ? cli.get_int("ranks", 1, kMaxRanks) : 0,
                cli.get_int("threads", 1, kMaxThreads), cli.has("fastmath"),
                cli.has("optimized"));
    if (!summary.res.feasible) {
        std::printf("infeasible: %s\n", summary.res.note.c_str());
        return 1;
    }
    std::printf("%s on %s, %d node(s): %s\n", cli.positionals()[1].c_str(),
                sys.name.c_str(), nodes, summary.metric.c_str());
    std::printf("  compute %.3f s | recv wait %.3f s | collectives %.3f s "
                "(per-rank means)\n",
                summary.res.run.mean_compute(), summary.res.run.mean_recv_wait(),
                summary.res.run.mean_collective_wait());
    const double gfw = arch::gflops_per_watt(sys, summary.res.run.total_flops,
                                             summary.res.run.mean_compute(),
                                             summary.res.seconds, nodes);
    std::printf("  modelled energy efficiency: %.3f GFLOPs/W\n", gfw);
    return 0;
}

int cmd_sweep(util::Cli& cli) {
    const auto& sys = arch::system_by_name(cli.get("system"));
    const int max_nodes = cli.get_int("max-nodes", 1, kMaxNodes);
    util::Table t(cli.positionals()[1] + " on " + sys.name + " (node sweep)");
    t.header({"Nodes", "Result", "Seconds"});
    for (int nodes = 1; nodes <= max_nodes; nodes *= 2) {
        const auto summary = run_app(cli.positionals()[1], sys, nodes, 0,
                                     cli.get_int("threads", 1, kMaxThreads),
                                     cli.has("fastmath"), cli.has("optimized"));
        t.row({std::to_string(nodes),
               summary.res.feasible ? summary.metric : "infeasible (memory)",
               summary.res.feasible ? util::Table::num(summary.res.seconds, 3) : "-"});
    }
    t.print();
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    using namespace armstice;
    util::Cli cli("example_armstice_cli",
                  "drive the armstice simulator from the command line");
    cli.positional("command", "systems | run <app> | sweep <app>")
        .option("system", "system name from Table I", "A64FX")
        .option("nodes", "node count", "1")
        .option("max-nodes", "sweep upper bound", "16")
        .option("ranks", "MPI ranks (default: app-specific)")
        .option("threads", "OpenMP threads per rank", "1")
        .flag("fastmath", "build with -Kfast/-ffast-math (nekbone)")
        .flag("optimized", "vendor-optimised variant (hpcg)")
        .flag("help", "show usage");

    try {
        cli.parse(argc, argv);
        if (cli.has("help") || cli.positionals().empty()) {
            std::fputs(cli.usage().c_str(), stdout);
            return cli.positionals().empty() && !cli.has("help") ? 1 : 0;
        }
        const std::string& cmd = cli.positionals()[0];
        if (cmd == "systems") {
            std::fputs(core::render_system_catalog().c_str(), stdout);
            return 0;
        }
        ARMSTICE_CHECK(cli.positionals().size() >= 2,
                       "run/sweep need an app name\n" + cli.usage());
        if (cmd == "run") return cmd_run(cli);
        if (cmd == "sweep") return cmd_sweep(cli);
        throw util::Error("unknown command '" + cmd + "'\n" + cli.usage());
    } catch (const util::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
