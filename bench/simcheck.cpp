// simcheck — command-line driver for the sim::check correctness suite
// (DESIGN.md §10). Generates `--seeds` random program sets, runs each
// through the production Engine, the naive RefEngine and `--perturb`
// perturbed Engine schedules, and requires every RunResult bit-identical;
// every `--deadlock-every`-th case carries a planted deadlock whose
// diagnosis must be detected and byte-identical across all executors.
// Prints the (jobs-invariant) report plus throughput and writes
// BENCH_simcheck.json; exits nonzero on any failure, so it can serve as a
// standalone CI gate next to the ctest `check` label. `--collapse-smoke N`
// additionally gates rank-equivalence collapse (DESIGN.md §11) at N ranks —
// far beyond the fuzz suite's case sizes — and `--halo-collapse-smoke N`
// gates the relative-addressed halo path (§11.4: a 3D Cartesian skeleton
// must end with classes << ranks AND stay bit-identical to collapse-off).

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "simmpi/minimpi.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/str.hpp"

#include <time.h>

#include <cstdio>
#include <string>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
namespace ck = armstice::sim::check;
using armstice::util::format;

double wall_now() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Rank-equivalence collapse smoke (DESIGN.md §11): run one SPMD skeleton at
/// `ranks` ranks as a shared ProgramBundle — collapsed, uncollapsed, and
/// collapsed under a perturbed schedule — and require all three RunResults
/// bit-identical. This is the only gate that exercises collapse at a scale
/// (100k ranks in CI) where the fuzz suite's 4..32-rank cases cannot; it is
/// cheap because the collapsed runs simulate O(classes) state machines and
/// the single flat run is pure SPMD. Returns true on bit-identity.
bool collapse_smoke(int ranks) {
    aa::ComputePhase spmv;
    spmv.label = "smoke-spmv";
    spmv.flops = 2.0 * 27.0 * 4096.0;
    spmv.main_bytes = 12.0 * 27.0 * 4096.0;
    spmv.pattern = aa::MemPattern::gather;
    spmv.efficiency = 0.8;
    aa::ComputePhase axpy = spmv;
    axpy.label = "smoke-axpy";
    axpy.pattern = aa::MemPattern::stream;

    am::ProgramSet ps(ranks);
    for (int it = 0; it < 10; ++it) {
        ps.compute(spmv);
        ps.allreduce(8);
        ps.compute(axpy);
        if (it % 4 == 3) ps.barrier();
    }
    ARMSTICE_CHECK(ps.spmd(), "collapse smoke skeleton must stay SPMD");
    const as::ProgramBundle bundle = ps.take_bundle();

    const int nodes = (ranks + 63) / 64;
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;  // rank-keyed noise splits every class
    const as::Engine eng(aa::fulhame(),
                         as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
                         0.8, noiseless);

    const as::RunResult collapsed = eng.run(bundle);
    as::RunOptions flat;
    flat.collapse = false;
    const std::string d1 = ck::diff_results(collapsed, eng.run(bundle, flat));
    as::RunOptions shaken;
    shaken.perturb_seed = 0x5eedful;
    const std::string d2 = ck::diff_results(collapsed, eng.run(bundle, shaken));
    if (!d1.empty()) {
        std::fprintf(stderr, "collapse smoke (%d ranks): collapsed vs flat: %s\n",
                     ranks, d1.c_str());
    }
    if (!d2.empty()) {
        std::fprintf(stderr, "collapse smoke (%d ranks): collapsed vs perturbed: %s\n",
                     ranks, d2.c_str());
    }
    std::printf("collapse smoke: %d ranks, %d classes, %d splits — %s\n", ranks,
                collapsed.collapse_classes, collapsed.collapse_splits,
                d1.empty() && d2.empty() ? "bit-identical" : "MISMATCH");
    return d1.empty() && d2.empty();
}

/// Relative-halo collapse smoke (DESIGN.md §11.4): run a 3D Cartesian halo
/// skeleton at `ranks` ranks as a shared ProgramBundle. halo_exchange emits
/// relative-addressed p2p, so the grid interior shares one structural
/// program and the engine executes it as merged classes — the gate requires
/// (a) the run to end with FAR fewer classes than ranks (the collapse
/// actually carried through the p2p), and (b) bit-identity against
/// collapse-off and a perturbed collapsed schedule. This is the only halo
/// gate at a scale (100k ranks in CI) the fuzz suite and unit tests cannot
/// reach. Returns true when both hold.
bool halo_collapse_smoke(int ranks) {
    aa::ComputePhase spmv;
    spmv.label = "halo-smoke-spmv";
    spmv.flops = 2.0 * 27.0 * 4096.0;
    spmv.main_bytes = 12.0 * 27.0 * 4096.0;
    spmv.pattern = aa::MemPattern::gather;
    spmv.efficiency = 0.8;

    const auto dims = am::dims_create(ranks, 3);
    const auto neighbors = am::cart_neighbors(dims, /*periodic=*/false);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < 2; ++it) {
        ps.halo_exchange(neighbors, 8.0 * 16.0 * 16.0);
        ps.compute(spmv);
        ps.allreduce(8);
    }
    const as::ProgramBundle bundle = ps.take_bundle();

    const int nodes = (ranks + 63) / 64;
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;  // rank-keyed noise splits every class
    const as::Engine eng(aa::fulhame(),
                         as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
                         0.8, noiseless);

    const as::RunResult collapsed = eng.run(bundle);
    as::RunOptions flat;
    flat.collapse = false;
    const std::string d1 = ck::diff_results(collapsed, eng.run(bundle, flat));
    as::RunOptions shaken;
    shaken.perturb_seed = 0x4a105eedULL;
    const std::string d2 = ck::diff_results(collapsed, eng.run(bundle, shaken));
    if (!d1.empty()) {
        std::fprintf(stderr,
                     "halo collapse smoke (%d ranks): collapsed vs flat: %s\n",
                     ranks, d1.c_str());
    }
    if (!d2.empty()) {
        std::fprintf(stderr,
                     "halo collapse smoke (%d ranks): collapsed vs perturbed: %s\n",
                     ranks, d2.c_str());
    }
    // "Far fewer": the interior must stay merged. A 3D halo has <= 27
    // structural boundary patterns; splits add node-edge and arrival-order
    // classes but never approach O(ranks).
    const bool merged = collapsed.collapse_classes * 16 <= ranks;
    if (!merged) {
        std::fprintf(stderr,
                     "halo collapse smoke (%d ranks): %d classes — interior did"
                     " not stay merged\n",
                     ranks, collapsed.collapse_classes);
    }
    const bool ok = d1.empty() && d2.empty() && merged;
    std::printf("halo collapse smoke: %d ranks, %d classes, %d splits"
                " (p2p %d, placement %d) — %s\n",
                ranks, collapsed.collapse_classes, collapsed.collapse_splits,
                collapsed.collapse_split_p2p, collapsed.collapse_split_placement,
                ok ? "bit-identical" : "MISMATCH");
    return ok;
}

void write_json(const ck::CheckConfig& cfg, const ck::CheckReport& rep,
                double seconds, int smoke_ranks, bool smoke_ok,
                int halo_ranks, bool halo_ok) {
    std::string j = "{\n  \"bench\": \"simcheck\",\n  \"unit\": \"seeds/sec\",\n";
    j += format("  \"seeds\": %d,\n  \"first_seed\": %llu,\n", cfg.seeds,
                static_cast<unsigned long long>(cfg.first_seed));
    j += format("  \"perturbations\": %d,\n  \"deadlock_cases\": %d,\n",
                rep.perturbations, rep.deadlock_cases);
    j += format("  \"jobs\": %d,\n  \"failures\": %zu,\n", cfg.jobs,
                rep.failures.size());
    j += format("  \"collapse_smoke_ranks\": %d,\n  \"collapse_smoke_ok\": %s,\n",
                smoke_ranks, smoke_ok ? "true" : "false");
    j += format("  \"halo_collapse_smoke_ranks\": %d,\n"
                "  \"halo_collapse_smoke_ok\": %s,\n",
                halo_ranks, halo_ok ? "true" : "false");
    j += format("  \"seconds\": %.3f,\n  \"seeds_per_sec\": %.2f\n}\n", seconds,
                seconds > 0 ? cfg.seeds / seconds : 0.0);
    if (!armstice::util::write_file_atomic("BENCH_simcheck.json", j)) {
        std::fprintf(stderr, "simcheck: could not write BENCH_simcheck.json\n");
    }
}

} // namespace

int main(int argc, char** argv) {
    armstice::util::Cli cli("simcheck",
                            "differential / perturbation / deadlock checker for"
                            " the discrete-event engine");
    cli.option("seeds", "number of generated cases", "500");
    cli.option("first-seed", "seed of the first case", "1");
    cli.option("ranks", "fixed rank count (0 = random per case, 4..32)", "0");
    cli.option("perturb", "perturbed schedules per case", "8");
    cli.option("deadlock-every", "every M-th case plants a deadlock (0 = never)",
               "8");
    cli.option("jobs", "checker threads", "1");
    cli.option("collapse-smoke",
               "also smoke-test rank-equivalence collapse at this many ranks"
               " (0 = skip)",
               "0");
    cli.option("halo-collapse-smoke",
               "also smoke-test relative-halo collapse (3D Cartesian skeleton)"
               " at this many ranks (0 = skip)",
               "0");
    ck::CheckConfig cfg;
    int smoke_ranks = 0;
    int halo_ranks = 0;
    try {
        cli.parse(argc, argv);
        cfg.seeds = static_cast<int>(cli.get_long("seeds"));
        cfg.first_seed = static_cast<std::uint64_t>(cli.get_long("first-seed"));
        cfg.ranks = static_cast<int>(cli.get_long("ranks"));
        cfg.perturbations = static_cast<int>(cli.get_long("perturb"));
        cfg.deadlock_every = static_cast<int>(cli.get_long("deadlock-every"));
        cfg.jobs = static_cast<int>(cli.get_long("jobs"));
        smoke_ranks = static_cast<int>(cli.get_long("collapse-smoke"));
        halo_ranks = static_cast<int>(cli.get_long("halo-collapse-smoke"));
    } catch (const armstice::util::Error& e) {
        std::fprintf(stderr, "simcheck: %s\n%s", e.what(), cli.usage().c_str());
        return 2;
    }

    std::printf("simcheck: %d seeds from %llu, perturb %d, deadlock every %d,"
                " jobs %d\n",
                cfg.seeds, static_cast<unsigned long long>(cfg.first_seed),
                cfg.perturbations, cfg.deadlock_every, cfg.jobs);
    const double t0 = wall_now();
    const ck::CheckReport rep = ck::run_suite(aa::fulhame(), cfg);
    const double dt = wall_now() - t0;
    std::printf("%s\n", rep.render().c_str());
    std::printf("%.2f s wall, %.2f seeds/sec\n", dt,
                dt > 0 ? cfg.seeds / dt : 0.0);
    const bool smoke_ok = smoke_ranks <= 0 || collapse_smoke(smoke_ranks);
    const bool halo_ok = halo_ranks <= 0 || halo_collapse_smoke(halo_ranks);
    write_json(cfg, rep, dt, smoke_ranks, smoke_ok, halo_ranks, halo_ok);
    return rep.ok() && smoke_ok && halo_ok ? 0 : 1;
}
