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
// Both smokes run their skeleton with os_noise = 0 and at default knobs.

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

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
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

/// Result of one collapse smoke skeleton, run once with os_noise = 0 and
/// once at default knobs (where merged classes keep per-member clocks,
/// DESIGN.md §11.5).
struct Smoke {
    int ranks = 0;
    int classes = 0;        ///< classes the os_noise = 0 run ended with
    int noisy_classes = 0;  ///< classes the default-knob run ended with
    int msg_records = 0;    ///< peak live message records of the quiet run
    bool ok = true;         ///< both runs bit-identical and within the bound
};

/// Run `bundle` collapsed, uncollapsed and collapsed under a perturbed
/// schedule with `knobs`, and require all three RunResults bit-identical.
/// Prints any difference under `what`; returns the collapsed result.
as::RunResult smoke_run(const char* what, int ranks, const as::ProgramBundle& bundle,
                        const aa::ModelKnobs& knobs, std::uint64_t seed, bool* ok) {
    const int nodes = (ranks + 63) / 64;
    const as::Engine eng(aa::fulhame(),
                         as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
                         0.8, knobs);
    const as::RunResult collapsed = eng.run(bundle);
    as::RunOptions flat;
    flat.collapse = false;
    const std::string d1 = ck::diff_results(collapsed, eng.run(bundle, flat));
    as::RunOptions shaken;
    shaken.perturb_seed = seed;
    const std::string d2 = ck::diff_results(collapsed, eng.run(bundle, shaken));
    if (!d1.empty()) {
        std::fprintf(stderr, "%s (%d ranks): collapsed vs flat: %s\n", what, ranks,
                     d1.c_str());
    }
    if (!d2.empty()) {
        std::fprintf(stderr, "%s (%d ranks): collapsed vs perturbed: %s\n", what,
                     ranks, d2.c_str());
    }
    *ok = *ok && d1.empty() && d2.empty();
    return collapsed;
}

/// Rank-equivalence collapse smoke (DESIGN.md §11): run one SPMD skeleton at
/// `ranks` ranks as a shared ProgramBundle, with os_noise = 0 and at default
/// knobs. Each run must be bit-identical to collapse-off and to a perturbed
/// schedule, and must never split: an SPMD program ends with the classes it
/// started with (one at 100k ranks), noise or not. This is the only gate
/// that exercises collapse at a scale (100k ranks in CI) where the fuzz
/// suite's 4..32-rank cases cannot; it is cheap because the collapsed runs
/// simulate O(classes) state machines and the flat runs are pure SPMD.
Smoke collapse_smoke(int ranks) {
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

    Smoke out;
    out.ranks = ranks;
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;
    const as::RunResult quiet =
        smoke_run("collapse smoke", ranks, bundle, noiseless, 0x5eedful, &out.ok);
    const as::RunResult noisy = smoke_run("collapse smoke, default knobs", ranks,
                                          bundle, aa::ModelKnobs{}, 0x5eedful, &out.ok);
    out.classes = quiet.collapse_classes;
    out.noisy_classes = noisy.collapse_classes;
    for (const as::RunResult* r : {&quiet, &noisy}) {
        if (r->collapse_splits != 0) {
            std::fprintf(stderr, "collapse smoke (%d ranks): %d splits in an SPMD run\n",
                         ranks, r->collapse_splits);
            out.ok = false;
        }
    }
    std::printf("collapse smoke: %d ranks, %d classes (default knobs: %d), %d splits"
                " — %s\n",
                ranks, out.classes, out.noisy_classes,
                quiet.collapse_splits + noisy.collapse_splits,
                out.ok ? "bit-identical" : "MISMATCH");
    return out;
}

/// Relative-halo collapse smoke (DESIGN.md §11.4): run a 3D Cartesian halo
/// skeleton at `ranks` ranks as a shared ProgramBundle, with os_noise = 0
/// and at default knobs. halo_exchange emits relative-addressed p2p, so the
/// grid interior shares one structural program and the engine executes it
/// as merged classes — each run must (a) end with FAR fewer classes than
/// ranks (the collapse actually carried through the p2p, and through the
/// noise), (b) stay bit-identical to collapse-off and to a perturbed
/// collapsed schedule, and (c) hold at most neighbours x classes live
/// message records (one per class per in-flight send, DESIGN.md §11.4; one
/// record per rank pair would be ~587k at 100k ranks). This is the only
/// halo gate at a scale (100k ranks in CI) the fuzz suite and unit tests
/// cannot reach.
Smoke halo_collapse_smoke(int ranks) {
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

    Smoke out;
    out.ranks = ranks;
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;
    const as::RunResult quiet = smoke_run("halo collapse smoke", ranks, bundle,
                                          noiseless, 0x4a105eedULL, &out.ok);
    const as::RunResult noisy =
        smoke_run("halo collapse smoke, default knobs", ranks, bundle,
                  aa::ModelKnobs{}, 0x4a105eedULL, &out.ok);
    out.classes = quiet.collapse_classes;
    out.noisy_classes = noisy.collapse_classes;
    out.msg_records = quiet.peak_msg_records;
    std::size_t degree = 0;
    for (int r = 0; r < neighbors.ranks(); ++r) {
        degree = std::max(degree, neighbors.neighbors(r).size());
    }
    // "Far fewer": the interior must stay merged. A 3D halo has <= 27
    // structural boundary patterns; splits add node-edge and arrival-order
    // classes but never approach O(ranks).
    for (const as::RunResult* r : {&quiet, &noisy}) {
        if (r->collapse_classes * 16 > ranks) {
            std::fprintf(stderr,
                         "halo collapse smoke (%d ranks): %d classes — interior did"
                         " not stay merged\n",
                         ranks, r->collapse_classes);
            out.ok = false;
        }
        const auto bound = static_cast<long long>(degree) * r->collapse_classes;
        if (r->peak_msg_records > bound) {
            std::fprintf(stderr,
                         "halo collapse smoke (%d ranks): %d live message records,"
                         " more than neighbours x classes = %lld\n",
                         ranks, r->peak_msg_records, bound);
            out.ok = false;
        }
    }
    std::printf("halo collapse smoke: %d ranks, %d classes, %d splits"
                " (p2p %d, placement %d), %d msg records; default knobs: %d"
                " classes, %d splits, %d msg records — %s\n",
                ranks, quiet.collapse_classes, quiet.collapse_splits,
                quiet.collapse_split_p2p, quiet.collapse_split_placement,
                quiet.peak_msg_records, noisy.collapse_classes,
                noisy.collapse_splits, noisy.peak_msg_records,
                out.ok ? "bit-identical" : "MISMATCH");
    return out;
}

void write_json(const ck::CheckConfig& cfg, const ck::CheckReport& rep,
                double seconds, const Smoke& smoke, const Smoke& halo) {
    std::string j = "{\n  \"bench\": \"simcheck\",\n  \"unit\": \"seeds/sec\",\n";
    j += format("  \"seeds\": %d,\n  \"first_seed\": %llu,\n", cfg.seeds,
                static_cast<unsigned long long>(cfg.first_seed));
    j += format("  \"perturbations\": %d,\n  \"deadlock_cases\": %d,\n",
                rep.perturbations, rep.deadlock_cases);
    j += format("  \"jobs\": %d,\n  \"failures\": %zu,\n", cfg.jobs,
                rep.failures.size());
    j += format("  \"collapse_smoke_ranks\": %d,\n  \"collapse_smoke_ok\": %s,\n"
                "  \"collapse_smoke_classes\": %d,\n"
                "  \"collapse_smoke_noisy_classes\": %d,\n",
                smoke.ranks, smoke.ok ? "true" : "false", smoke.classes,
                smoke.noisy_classes);
    j += format("  \"halo_collapse_smoke_ranks\": %d,\n"
                "  \"halo_collapse_smoke_ok\": %s,\n"
                "  \"halo_collapse_smoke_classes\": %d,\n"
                "  \"halo_collapse_smoke_noisy_classes\": %d,\n"
                "  \"halo_collapse_smoke_msg_records\": %d,\n",
                halo.ranks, halo.ok ? "true" : "false", halo.classes,
                halo.noisy_classes, halo.msg_records);
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
        constexpr int kMaxInt = std::numeric_limits<int>::max();
        cfg.seeds = cli.get_int("seeds", 1, kMaxInt);
        cfg.first_seed = cli.get_u64("first-seed");
        cfg.ranks = cli.get_int("ranks", 0, 4096);
        cfg.perturbations = cli.get_int("perturb", 0, 1024);
        cfg.deadlock_every = cli.get_int("deadlock-every", 0, kMaxInt);
        cfg.jobs = cli.get_int("jobs", 1, armstice::util::kMaxJobs);
        smoke_ranks = cli.get_int("collapse-smoke", 0, 1 << 24);
        halo_ranks = cli.get_int("halo-collapse-smoke", 0, 1 << 24);
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
    const Smoke smoke = smoke_ranks > 0 ? collapse_smoke(smoke_ranks) : Smoke{};
    const Smoke halo = halo_ranks > 0 ? halo_collapse_smoke(halo_ranks) : Smoke{};
    write_json(cfg, rep, dt, smoke, halo);
    return rep.ok() && smoke.ok && halo.ok ? 0 : 1;
}
