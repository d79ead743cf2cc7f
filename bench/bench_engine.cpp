// Engine throughput bench — measures the discrete-event core itself, not a
// paper artefact. Two program skeletons (HPCG's multigrid-CG iteration and
// COSA's harmonic-balance multigrid loop) run at 48/256/1024 ranks on
// Fulhame-shaped nodes (64 ranks/node at the top end, the paper's largest
// per-node count), and the bench reports engine ops/sec, wall seconds and
// per-scenario peak RSS for each scenario, then writes BENCH_engine.json
// next to the working directory so the perf trajectory of the engine is
// recorded.
//
// Every scenario is measured once. Programs go through ProgramBundle, the
// form every app in this repo hands the engine (bit-identical to the raw
// vector path). Every row but the million-rank one proves its own
// bit-identity: each default-knob row is re-run once, untimed, with
// collapse off, each halo row is measured with collapse on and off, and the
// 100k-rank SPMD row is diffed against a collapse-off run; the two
// RunResults must match, and the bench exits 1 rather than write numbers
// from a diverging engine.
//
// The JSON carries two measurement sets: "baseline" (numbers recorded on the
// pre-optimization engine when this bench was introduced, kept as literals
// below) and "current" (measured by this run). Rows with a matching baseline
// entry carry "speedup_vs_baseline"; rows without one (the SPMD scale rows)
// omit the field rather than reporting a fake 0. Build Release (the default;
// bench targets force -O2 even under sanitizer/debug configs — see
// bench/CMakeLists.txt) before quoting numbers.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/fileio.hpp"
#include "util/str.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
using armstice::util::format;

// ---- skeleton builders -----------------------------------------------------

aa::ComputePhase phase(const char* label, double flops, double bytes,
                       aa::MemPattern pattern) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = bytes;
    p.pattern = pattern;
    p.efficiency = 0.8;
    return p;
}

/// HPCG-shaped skeleton: per iteration a level-0 SpMV + dot, a 3-level
/// V-cycle (halo exchange + SymGS/SpMV per level) and the CG vector tail
/// with three allreduces. Mirrors apps/hpcg/hpcg.cpp at a small grid.
am::ProgramSet hpcg_skeleton(int ranks, int iters) {
    const auto dims = am::dims_create(ranks, 3);
    const auto neighbors = am::cart_neighbors(dims, /*periodic=*/false);
    constexpr int kLevels = 3;
    const double rows = 16.0 * 16.0 * 16.0;
    const double face = 8.0 * 16.0 * 16.0;

    const auto spmv = phase("spmv0", 2.0 * 27.0 * rows, 12.0 * 27.0 * rows,
                            aa::MemPattern::gather);
    const auto symgs = phase("symgs", 4.0 * 27.0 * rows, 24.0 * 27.0 * rows,
                             aa::MemPattern::gather);
    const auto dot = phase("ddot", 2.0 * rows, 16.0 * rows, aa::MemPattern::stream);
    const auto axpy = phase("waxpby", 3.0 * rows, 24.0 * rows, aa::MemPattern::stream);

    am::ProgramSet ps(ranks);
    for (int it = 0; it < iters; ++it) {
        ps.halo_exchange(neighbors, face);
        ps.compute(spmv);
        ps.compute(dot);
        ps.allreduce(8);
        for (int l = 0; l < kLevels - 1; ++l) {
            ps.halo_exchange(neighbors, face);
            ps.compute(symgs);
            ps.halo_exchange(neighbors, face);
            ps.compute(spmv);
        }
        ps.halo_exchange(neighbors, face);
        ps.compute(symgs);
        for (int l = kLevels - 2; l >= 0; --l) {
            ps.halo_exchange(neighbors, face);
            ps.compute(symgs);
        }
        ps.compute(dot);
        ps.allreduce(8);
        ps.compute(axpy);
        ps.compute(dot);
        ps.allreduce(8);
    }
    return ps;
}

/// COSA-shaped skeleton: the paper's 800-block harmonic-balance case with
/// round-robin block ownership — a per-rank block sweep, a chain halo
/// exchange among active ranks, and a residual allreduce per iteration. At
/// 1024 ranks a quarter of the ranks own no blocks (exactly the imbalance
/// regime of Fig 4). Mirrors apps/cosa/cosa.cpp.
am::ProgramSet cosa_skeleton(int ranks, int iters) {
    constexpr int kBlocks = 800;
    const int active = std::min(ranks, kBlocks);
    std::vector<int> blocks_of(static_cast<std::size_t>(ranks), 0);
    for (int b = 0; b < kBlocks; ++b) blocks_of[static_cast<std::size_t>(b % ranks)]++;

    const auto neighbors = am::chain_neighbors(ranks, active);
    std::vector<double> halo(static_cast<std::size_t>(ranks));
    for (std::size_t r = 0; r < halo.size(); ++r) halo[r] = 4.6e5 * blocks_of[r];

    am::ProgramSet ps(ranks);
    ps.mark("cosa-hb-mg");
    for (int it = 0; it < iters; ++it) {
        ps.compute_by_rank([&](int r) {
            const int nblocks = blocks_of[static_cast<std::size_t>(r)];
            auto p = phase("hb-mg-iteration", nblocks * 1.16e8, nblocks * 5.0e8,
                           aa::MemPattern::stream);
            p.vector_fraction = 0.8;
            return p;
        });
        if (ranks > 1 && active > 1) ps.halo_exchange(neighbors, halo);
        ps.allreduce(8);
    }
    return ps;
}

/// Pure-SPMD HPCG-shaped skeleton for the collapse scaling rows: the same
/// compute phases and allreduce cadence as hpcg_skeleton, but no halo
/// exchanges — point-to-point ops are rank-asymmetric (distinct dst lists)
/// and split the engine's rank-equivalence classes (DESIGN.md §11), and the
/// scale rows exist to measure the collapsed engine. The caller zeroes
/// os_noise so the rows time the uniform-clock path; at default knobs the
/// class would run on per-member clocks instead (DESIGN.md §11.5).
am::ProgramSet hpcg_spmd_skeleton(int ranks, int iters) {
    constexpr int kLevels = 3;
    const double rows = 16.0 * 16.0 * 16.0;
    const auto spmv = phase("spmv0", 2.0 * 27.0 * rows, 12.0 * 27.0 * rows,
                            aa::MemPattern::gather);
    const auto symgs = phase("symgs", 4.0 * 27.0 * rows, 24.0 * 27.0 * rows,
                             aa::MemPattern::gather);
    const auto dot = phase("ddot", 2.0 * rows, 16.0 * rows, aa::MemPattern::stream);
    const auto axpy = phase("waxpby", 3.0 * rows, 24.0 * rows, aa::MemPattern::stream);

    am::ProgramSet ps(ranks);
    for (int it = 0; it < iters; ++it) {
        ps.compute(spmv);
        ps.compute(dot);
        ps.allreduce(8);
        for (int l = 0; l < kLevels - 1; ++l) {
            ps.compute(symgs);
            ps.compute(spmv);
        }
        ps.compute(symgs);
        for (int l = kLevels - 2; l >= 0; --l) ps.compute(symgs);
        ps.compute(dot);
        ps.allreduce(8);
        ps.compute(axpy);
        ps.compute(dot);
        ps.allreduce(8);
    }
    return ps;
}

// ---- measurement -----------------------------------------------------------

struct Scenario {
    std::string app;
    int ranks = 0;
    long ops = 0;
    double seconds = 0;       ///< best-of-reps CPU time of one Engine::run
    double ops_per_sec = 0;
    long peak_rss_kb = 0;     ///< peak RSS during THIS scenario (see rss_scope)
    /// "scenario" when /proc/self/clear_refs let us reset VmHWM before the
    /// runs (the value is this scenario's own high-water mark), "process"
    /// when the reset is unsupported and the value is the cumulative process
    /// peak — labelled so a row can never pass off an earlier scenario's
    /// allocation as its own.
    bool rss_per_scenario = false;
    bool collapse = true;     ///< RunOptions::collapse for this row
    int collapse_classes = 0; ///< rank-equivalence classes the run ended with
    int collapse_splits = 0;  ///< split events, broken down by cause below
    int split_p2p = 0;        ///< absolute p2p / wildcard / rel-arrival splits
    int split_noise = 0;      ///< always 0: noise keeps per-member clocks
    int split_placement = 0;  ///< rel-send hop-tier (node edge) splits
    int peak_msg_records = 0; ///< live message-store records, high-water mark
    bool bit_identical = false;  ///< diffed against collapse-off and equal
};

/// Cumulative process high-water mark (getrusage). Only meaningful as a
/// whole-process number — the million-rank footprint gate at the end of
/// main() — never as a per-scenario figure.
long process_peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;  // KiB on Linux
}

/// Reset the kernel's per-mm RSS high-water mark (VmHWM) so the next
/// vm_hwm_kb() read covers only what happened since. Linux-specific
/// (write "5" to /proc/self/clear_refs); returns false where unsupported,
/// in which case rows fall back to the cumulative peak and say so.
bool reset_vm_hwm() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return (std::fclose(f) == 0) && wrote;
}

/// Current VmHWM from /proc/self/status, in KiB (-1 if unreadable). After a
/// successful reset_vm_hwm() this is the peak RSS since the reset (floored
/// at the RSS current at reset time — memory already resident stays counted).
long vm_hwm_kb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return -1;
    long kb = -1;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    return kb;
}

/// Thread CPU seconds. Engine::run is single-threaded, so this is exactly the
/// work done, immune to the scheduler parking us behind other processes —
/// best-of-reps wall time still swings 2x on a loaded box.
double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Record this scenario's RSS peak: per-scenario VmHWM when the kernel lets
/// us reset it, cumulative process peak (honestly labelled) otherwise.
void finish_rss(Scenario* s, bool reset_ok) {
    const long hwm = reset_ok ? vm_hwm_kb() : -1;
    s->rss_per_scenario = hwm >= 0;
    s->peak_rss_kb = s->rss_per_scenario ? hwm : process_peak_rss_kb();
}

/// Exit 1 unless a collapsed run and its collapse-off run are bit-identical:
/// numbers from an engine whose collapse diverges would be meaningless.
void require_bit_identical(const as::RunResult& collapsed, const as::RunResult& flat,
                           const std::string& what) {
    const std::string diff = as::check::diff_results(collapsed, flat);
    if (diff.empty()) return;
    std::fprintf(stderr, "bench_engine: collapse differential FAILED for %s: %s\n",
                 what.c_str(), diff.c_str());
    std::exit(1);
}

Scenario measure(const std::string& app, int ranks,
                 const as::ProgramBundle& progs) {
    const int nodes = (ranks + 63) / 64;  // Fulhame: 64 cores/node
    const as::Engine engine(aa::fulhame(),
                            as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
                            0.8, aa::ModelKnobs{});

    Scenario s;
    s.app = app;
    s.ranks = ranks;
    for (int r = 0; r < progs.ranks(); ++r) {
        s.ops += static_cast<long>(progs.of(r).ops.size());
    }

    const bool rss_reset = reset_vm_hwm();
    constexpr int kReps = 7;
    double best = 1e300;
    as::RunResult res;
    for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = cpu_now();
        auto run = engine.run(progs);
        const double t1 = cpu_now();
        best = std::min(best, t1 - t0);
        res = std::move(run);
    }
    s.seconds = best;
    s.ops_per_sec = static_cast<double>(s.ops) / best;
    s.collapse_classes = res.collapse_classes;
    s.collapse_splits = res.collapse_splits;
    s.split_p2p = res.collapse_split_p2p;
    s.split_noise = res.collapse_split_noise;
    s.split_placement = res.collapse_split_placement;
    s.peak_msg_records = res.peak_msg_records;
    finish_rss(&s, rss_reset);

    // These rows run merged on per-member clocks (DESIGN.md §11.5): one
    // untimed collapse-off run, after the RSS read, must give the same bits.
    as::RunOptions flat;
    flat.collapse = false;
    require_bit_identical(res, engine.run(progs, flat),
                          format("%s at %d ranks", app.c_str(), ranks));
    s.bit_identical = true;
    std::printf("  %-5s %5d ranks  %9ld ops  %8.4f s  %10.0f ops/s"
                "  rss %ld MiB%s  classes %d  msg records %d  (makespan %.3f s)\n",
                app.c_str(), ranks, s.ops, s.seconds,
                s.ops_per_sec, s.peak_rss_kb / 1024,
                s.rss_per_scenario ? "" : " (process)", s.collapse_classes,
                s.peak_msg_records, res.makespan);
    return s;
}

/// Collapse scaling rows (DESIGN.md §11): run the SPMD skeleton as a shared
/// ProgramBundle with os_noise=0 so the engine simulates one state machine
/// per equivalence class instead of one per rank. `ops` counts simulated
/// rank-ops (ranks x ops-per-rank) — the collapsed engine executes only
/// O(classes) of them, which is exactly the speedup the row records.
/// When `check_flat` is set the same engine re-runs with collapse disabled
/// and the two RunResults must be bit-identical (check::diff_results); a
/// mismatch aborts the bench, because scale numbers from a result that
/// diverges from the uncollapsed engine would be meaningless.
Scenario measure_scale(const std::string& app, int ranks,
                       const as::ProgramBundle& bundle, bool check_flat,
                       as::RunResult* out, bool collapse = true) {
    const int nodes = (ranks + 63) / 64;  // Fulhame: 64 cores/node
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;  // time the uniform-clock path (DESIGN.md §11.5)
    const as::Engine engine(aa::fulhame(),
                            as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
                            0.8, noiseless);

    Scenario s;
    s.app = app;
    s.ranks = ranks;
    s.collapse = collapse;
    // Simulated rank-ops: sum per rank (halo skeletons give boundary ranks
    // shorter programs, so ranks x ops-of-rank-0 would miscount).
    for (int r = 0; r < bundle.ranks(); ++r) {
        s.ops += static_cast<long>(bundle.of(r).ops.size());
    }
    as::RunOptions opts;
    opts.collapse = collapse;

    const bool rss_reset = reset_vm_hwm();
    constexpr int kReps = 3;
    double best = 1e300;
    double makespan = 0;
    as::RunResult res;
    for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = cpu_now();
        res = engine.run(bundle, opts);
        const double t1 = cpu_now();
        best = std::min(best, t1 - t0);
        makespan = res.makespan;
    }
    s.seconds = best;
    s.ops_per_sec = static_cast<double>(s.ops) / best;
    s.collapse_classes = res.collapse_classes;
    s.collapse_splits = res.collapse_splits;
    s.split_p2p = res.collapse_split_p2p;
    s.split_noise = res.collapse_split_noise;
    s.split_placement = res.collapse_split_placement;
    s.peak_msg_records = res.peak_msg_records;
    if (out != nullptr) *out = res;

    if (check_flat) {
        as::RunOptions flat = opts;
        flat.collapse = false;
        require_bit_identical(res, engine.run(bundle, flat),
                              format("%s at %d ranks", app.c_str(), ranks));
        s.bit_identical = true;
    }

    finish_rss(&s, rss_reset);
    std::printf("  %-10s %8d ranks  %11ld ops  %8.4f s  %12.3g ops/s"
                "  rss %ld MiB%s  classes %d  splits %d (p2p %d, noise %d, "
                "placement %d)  msg records %d%s  (makespan %.3f s)\n",
                app.c_str(), ranks, s.ops, s.seconds,
                s.ops_per_sec, s.peak_rss_kb / 1024,
                s.rss_per_scenario ? "" : " (process)", s.collapse_classes,
                s.collapse_splits, s.split_p2p, s.split_noise, s.split_placement,
                s.peak_msg_records, collapse ? "" : "  [collapse off]", makespan);
    return s;
}

/// ops/sec recorded on the pre-optimization engine (commit 5470295) — the
/// denominator of the speedups this PR reports. Methodology: this same bench
/// source built Release in a scratch worktree of the parent commit, run
/// interleaved with the current build on the same box, best CPU time of 7
/// reps per scenario (CLOCK_THREAD_CPUTIME_ID, so co-tenant load does not
/// skew either side). Regenerate the same way if the scenarios change.
struct BaselinePoint {
    const char* app;
    int ranks;
    double ops_per_sec;
};
constexpr BaselinePoint kBaseline[] = {
    {"hpcg", 48, 41093610},  {"hpcg", 256, 38647352}, {"hpcg", 1024, 22389714},
    {"cosa", 48, 49875329},  {"cosa", 256, 46483694}, {"cosa", 1024, 23915198},
};

std::string json_escape(const std::string& s) { return s; }  // labels are plain

void write_json(const std::vector<Scenario>& scenarios) {
    std::string j = "{\n  \"bench\": \"engine\",\n  \"unit\": \"ops/sec\",\n";
    j += "  \"baseline\": [\n";
    for (std::size_t i = 0; i < std::size(kBaseline); ++i) {
        const auto& b = kBaseline[i];
        j += format("    {\"app\": \"%s\", \"ranks\": %d, \"ops_per_sec\": %.0f}%s\n",
                    b.app, b.ranks, b.ops_per_sec,
                    i + 1 < std::size(kBaseline) ? "," : "");
    }
    j += "  ],\n  \"current\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto& s = scenarios[i];
        double base = 0;
        for (const auto& b : kBaseline) {
            if (s.app == b.app && s.ranks == b.ranks) base = b.ops_per_sec;
        }
        j += format("    {\"app\": \"%s\", \"ranks\": %d, "
                    "\"collapse\": %s, "
                    "\"ops\": %ld, \"seconds\": %.6f, \"ops_per_sec\": %.0f, "
                    "\"peak_rss_kb\": %ld, \"rss_scope\": \"%s\", "
                    "\"collapse_classes\": %d, \"collapse_splits\": %d, "
                    "\"split_p2p\": %d, \"split_noise\": %d, "
                    "\"split_placement\": %d, \"peak_msg_records\": %d",
                    json_escape(s.app).c_str(), s.ranks,
                    s.collapse ? "true" : "false",
                    s.ops, s.seconds, s.ops_per_sec,
                    s.peak_rss_kb, s.rss_per_scenario ? "scenario" : "process",
                    s.collapse_classes, s.collapse_splits, s.split_p2p,
                    s.split_noise, s.split_placement, s.peak_msg_records);
        // A row only carries bit_identical when it was actually diffed
        // against collapse-off (a mismatch aborts before the JSON is
        // written), and only carries a speedup when a baseline entry exists
        // — absent fields mean "not measured", never a made-up zero.
        if (s.bit_identical) j += ", \"bit_identical\": true";
        if (base > 0) {
            j += format(", \"speedup_vs_baseline\": %.2f", s.ops_per_sec / base);
        }
        j += format("}%s\n", i + 1 < scenarios.size() ? "," : "");
    }
    j += "  ]\n}\n";
    if (!armstice::util::write_file_atomic("BENCH_engine.json", j)) {
        std::fprintf(stderr, "bench_engine: could not write BENCH_engine.json\n");
    }
}

} // namespace

int main(int argc, char** argv) {
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s (takes no options)\n", argv[0]);
        return 2;
    }

    std::printf("engine throughput bench (Fulhame nodes, 64 ranks/node, "
                "default noise)\n");
    std::vector<Scenario> scenarios;

    for (int ranks : {48, 256, 1024}) {
        scenarios.push_back(
            measure("hpcg", ranks, hpcg_skeleton(ranks, /*iters=*/20).take_bundle()));
    }
    for (int ranks : {48, 256, 1024}) {
        scenarios.push_back(
            measure("cosa", ranks, cosa_skeleton(ranks, /*iters=*/200).take_bundle()));
    }

    // Relative-halo collapse rows (DESIGN.md §11.4): the SAME halo skeletons
    // as the throughput rows above, but under os_noise=0, so they time the
    // uniform-clock path (the rows above run merged on per-member clocks,
    // §11.5) — halo_exchange's relative addressing keeps the grid/chain
    // interior merged through the p2p, ending with classes << ranks. Each
    // skeleton is measured with collapse on and off, and the two RunResults
    // must be bit-identical (the off row records what the engine pays
    // without the merge).
    std::printf("halo collapse rows (relative-addressed halos, os_noise=0, "
                "DESIGN.md §11.4)\n");
    const auto halo_rows = [&](const std::string& app,
                               const as::ProgramBundle& bundle) {
        as::RunResult merged, flat;
        Scenario on = measure_scale(app, 1024, bundle, /*check_flat=*/false, &merged);
        Scenario off = measure_scale(app, 1024, bundle, /*check_flat=*/false, &flat,
                                     /*collapse=*/false);
        require_bit_identical(merged, flat, app);
        on.bit_identical = off.bit_identical = true;
        scenarios.push_back(on);
        scenarios.push_back(off);
    };
    halo_rows("hpcg-halo", hpcg_skeleton(1024, /*iters=*/20).take_bundle());
    halo_rows("cosa-halo", cosa_skeleton(1024, /*iters=*/200).take_bundle());

    std::printf("collapse scaling (SPMD hpcg skeleton, os_noise=0, "
                "DESIGN.md §11)\n");
    for (int ranks : {100000, 1000000}) {
        am::ProgramSet ps = hpcg_spmd_skeleton(ranks, /*iters=*/20);
        if (!ps.spmd()) {
            std::fprintf(stderr,
                         "bench_engine: scale skeleton forked — no longer "
                         "SPMD, scale rows would not collapse\n");
            return 1;
        }
        // Differential vs the uncollapsed engine at 100k ranks only: the
        // flat run simulates one state machine per rank and exists to prove
        // bit-identity, not to wait on at a million ranks.
        scenarios.push_back(measure_scale("hpcg-spmd", ranks, ps.take_bundle(),
                                          /*check_flat=*/ranks == 100000,
                                          nullptr));
    }
    // Footprint gate: a million collapsed ranks must stay O(classes) state
    // plus O(ranks) final stats arrays. 512 MiB is ~4x the measured peak —
    // headroom for allocator noise, a hard stop for an O(ranks)-state
    // regression (which lands around several GiB here). Process-wide peak on
    // purpose: per-scenario VmHWM resets must not launder a regression.
    const long rss_kb = process_peak_rss_kb();
    if (rss_kb > 512 * 1024) {
        std::fprintf(stderr,
                     "bench_engine: peak RSS %ld MiB exceeds the 512 MiB "
                     "million-rank budget\n",
                     rss_kb / 1024);
        return 1;
    }

    write_json(scenarios);
    std::printf("wrote BENCH_engine.json\n");
    return 0;
}
