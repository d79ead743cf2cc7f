#pragma once
// sim::check — the correctness-tooling subsystem (DESIGN.md §10). Three
// pillars:
//
//   1. Differential checking: generate random-but-reproducible program sets
//      and require sim::Engine and sim::RefEngine to produce bit-identical
//      RunResults — across the bundle/collapse pipeline (DESIGN.md §11).
//   2. Schedule-perturbation determinism: re-run each case under K nonzero
//      RunOptions::perturb_seed values and require the RunResult to stay
//      bit-identical while the pop order is scrambled.
//   3. Deadlock forensics: generate intentionally-deadlocking cases and
//      require every executor to throw sim::DeadlockError with a
//      byte-identical wait-for-graph report that names the planted fault.
//
// One generator serves the differential checker, the perturbation tests and
// the engine fuzz tests (tests/sim_testlib.hpp wraps it for gtest); the
// `simcheck` bench driver (bench/simcheck.cpp) runs the whole suite from the
// command line.

#include "arch/system.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace armstice::sim::check {

/// Planted-deadlock flavours for GenConfig::deadlock.
enum class DeadlockKind {
    none = 0,
    unmatched_recv,    ///< one rank receives a (src, tag) nobody ever sends
    recv_cycle,        ///< ranks 0 -> 1 -> 2 -> 0 each recv before their send
    skipped_collective,///< every rank but one enters a final extra allreduce
};

struct GenConfig {
    int ranks = 0;   ///< 0 = derive from the seed (4..32)
    int rounds = 0;  ///< 0 = derive from the seed (3..10)
    bool allow_any_source = true;  ///< emit ANY_SOURCE funnel rounds
    bool allow_sendrecv = true;    ///< emit crossing mixed-tag pair rounds
    DeadlockKind deadlock = DeadlockKind::none;
};

struct GeneratedCase {
    int ranks = 0;
    std::vector<Program> programs;
    double total_flops = 0;  ///< sum of all ComputeOp flops (conservation check)
    DeadlockKind deadlock = DeadlockKind::none;
    /// recv_cycle: the blocking cycle the diagnosis must report.
    std::vector<int> planted_cycle;
    /// unmatched_recv / skipped_collective: the rank the fault points at
    /// (the never-sending source, resp. the rank that skipped).
    int planted_culprit = -1;
    std::string note;  ///< one-line human description of the case
};

/// Deterministic random program set for `seed`. Deadlock-free by
/// construction unless cfg.deadlock asks for a planted fault (appended after
/// the normal rounds, so the fault is the only reason the case stalls).
[[nodiscard]] GeneratedCase generate(std::uint64_t seed, const GenConfig& cfg = {});

/// Bitwise comparison of two RunResults: every double is compared by bit
/// pattern, counters exactly, phase maps key-by-key. Returns "" when
/// identical, else a one-line description of the first difference.
[[nodiscard]] std::string diff_results(const RunResult& a, const RunResult& b);

/// Run one case through Engine (canonical), RefEngine, and `perturbations`
/// perturbed Engine schedules; returns one failure string per violated
/// requirement (empty = case passed). Deadlock cases must make every
/// executor throw sim::DeadlockError with byte-identical reports matching
/// the planted fault. `sys` needs >= case ranks cores across two nodes.
[[nodiscard]] std::vector<std::string> check_case(const arch::SystemSpec& sys,
                                                  const GeneratedCase& gc,
                                                  int perturbations);

struct CheckConfig {
    std::uint64_t first_seed = 1;
    int seeds = 100;         ///< number of generated cases
    int ranks = 0;           ///< 0 = per-seed random rank count
    int perturbations = 8;   ///< perturbed schedules per case
    int deadlock_every = 8;  ///< every M-th case carries a planted deadlock (0 = never)
    int jobs = 1;            ///< checker threads (output is jobs-invariant)
};

struct CheckReport {
    int cases = 0;
    int deadlock_cases = 0;
    int perturbations = 0;
    std::vector<std::string> failures;  ///< "seed N: <violation>", seed-ordered

    [[nodiscard]] bool ok() const { return failures.empty(); }
    /// Deterministic multi-line summary (no timing — comparable across runs
    /// and job counts).
    [[nodiscard]] std::string render() const;
};

/// Run the whole differential/perturbation/deadlock suite. Cases execute on
/// cfg.jobs threads; failures are aggregated in seed order, so the report is
/// identical for any job count.
[[nodiscard]] CheckReport run_suite(const arch::SystemSpec& sys,
                                    const CheckConfig& cfg);

} // namespace armstice::sim::check
