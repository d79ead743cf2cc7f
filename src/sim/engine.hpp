#pragma once
// Engine — the discrete-event simulator. Executes one Program per rank with
// blocking-MPI semantics: eager sends, FIFO tag matching on receives, and
// synchronising collectives priced by net::CollectiveModel. Compute ops are
// priced by arch::CostModel under the placement's contention context.
//
// The engine is process-oriented: it advances each runnable rank's virtual
// clock until the rank blocks (receive with no matching message, collective
// with absent peers) or finishes, unblocking peers as messages/collectives
// complete. If no rank can make progress the engine throws
// util::DeadlockError naming the blocked ranks.
//
// Thread-safety: `run` is const and uses only local state — Placement,
// CostModel and Network are read-only after construction, the noise samples
// are pure functions of (rank, op), and the arch catalog/calibration tables
// are immutable function-local statics (the phase-label interner is shared
// but append-only and internally locked). Concurrent `run` calls on one
// Engine (core::SweepRunner executes sweep points on a thread pool) are
// sound and return bit-identical results; asserted by
// tests/test_sim_engine.cpp ConcurrentRunsAreBitIdentical.
//
// Performance (DESIGN.md §8): ranks are grouped into ExecContext equivalence
// classes at run start and CostModel pricing is memoized per (phase content,
// class) — the deterministic per-(rank, op) noise stretch is applied on top,
// so memoization can never share noise draws. Per-phase seconds accumulate
// into vectors indexed by interned PhaseId and the phase_compute map is
// materialised only on return. Messages live in one store that names each
// by (source, destination, tag, ordinal): a class keeps one send log and one
// receive count per (peer offset, tag) for all its members, so a merged
// relative send is one record and a halo round costs O(classes) (§11.4).
//
// Scale (DESIGN.md §11): ranks sharing one Program object (ProgramBundle)
// and one ExecContext class execute as ONE simulation class — the engine
// runs O(classes) state machines, not O(ranks), and splits a class lazily
// the moment an op could break its shared control flow (p2p ops). OS noise
// does not split: members keep their own clocks (§11.5). Splitting is
// exact, so collapsed results are
// bit-identical to RunOptions::collapse = false; million-rank SPMD
// workloads simulate in roughly the footprint of a 64-rank one.
//
// Schedule invariance (DESIGN.md §10): every RunResult field is a pure
// function of the programs and the model — never of the order in which the
// engine happens to pop runnable ranks. Global sums (total_flops,
// phase_compute) accumulate per rank in program order and reduce across
// ranks in rank order; MPI_ANY_SOURCE matches the pending message with the
// smallest (arrival time, source rank) key, which is schedule-invariant,
// instead of the schedule-dependent global send-issue order. RunOptions::
// perturb_seed exploits this: any nonzero seed permutes the runnable-queue
// pop order, and sim::check asserts the RunResult stays bit-identical.

#include "arch/cost_model.hpp"
#include "arch/system.hpp"
#include "net/collectives.hpp"
#include "sim/placement.hpp"
#include "sim/program.hpp"
#include "sim/trace.hpp"

#include <cstddef>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace armstice::sim {

/// Deterministic OS-noise stretch for (rank, op index): a capped Exp(1)
/// sample, pure function of its arguments. Exposed so tests can pin the
/// semantics the cost-memoization relies on (every rank draws its own
/// noise even when the memo shares the underlying phase time).
[[nodiscard]] double noise_sample(int rank, std::size_t op_index);

struct RankStats {
    double finish = 0;          ///< virtual time the rank's program completed
    double compute = 0;         ///< seconds in ComputeOps
    double recv_wait = 0;       ///< seconds blocked waiting for messages
    double collective_wait = 0; ///< seconds in collectives (sync + transfer)
    double injected_bytes = 0;
    int msgs_sent = 0;
    int msgs_received = 0;
};

/// The per-rank stats of a run, stored as maximal runs of consecutive ranks
/// whose RankStats are bit-identical (every double by bit pattern, both
/// ints). `append` merges into the last run whenever it can, so the table is
/// canonical: two results with equal per-rank stats hold equal runs, whatever
/// engine, collapse setting or class structure produced them. A collapsed
/// SPMD run of 10^6 ranks is one run of 52 bytes: its stats and its first
/// rank (DESIGN.md §11). Under OS noise every rank is its own run.
class RankTable {
public:
    /// Ranks [first, first + length) all have `stats`.
    struct Run {
        int first = 0;
        int length = 0;
        RankStats stats;
    };

    /// Yields every rank's stats in rank order.
    class const_iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = RankStats;
        using difference_type = std::ptrdiff_t;
        using pointer = const RankStats*;
        using reference = const RankStats&;

        const_iterator() = default;
        reference operator*() const { return t_->stats_[k_]; }
        const_iterator& operator++() {
            if (++r_ == t_->run_end(k_)) ++k_;
            return *this;
        }
        const_iterator operator++(int) {
            auto t = *this;
            ++*this;
            return t;
        }
        bool operator==(const const_iterator& o) const { return r_ == o.r_; }

    private:
        friend class RankTable;
        const_iterator(const RankTable* t, std::size_t k, int r) : t_(t), k_(k), r_(r) {}
        const RankTable* t_ = nullptr;
        std::size_t k_ = 0;  ///< run holding rank r_
        int r_ = 0;
    };

    /// Reserve room for `runs` runs: the upper bound a producer knows before
    /// it appends, so the arrays never grow by doubling.
    void reserve(std::size_t runs) {
        stats_.reserve(runs);
        start_.reserve(runs);
    }
    /// Append `count` (>= 1) ranks with stats `s`, merging into the last run
    /// when `s` is bitwise equal to its stats.
    void append(const RankStats& s, int count = 1);

    [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(n_); }
    [[nodiscard]] bool empty() const { return n_ == 0; }
    /// Rank r's stats, found by binary search over the run starts.
    [[nodiscard]] const RankStats& operator[](std::size_t r) const;
    [[nodiscard]] const_iterator begin() const { return {this, 0, 0}; }
    [[nodiscard]] const_iterator end() const { return {this, stats_.size(), n_}; }

    [[nodiscard]] std::size_t runs() const { return stats_.size(); }
    [[nodiscard]] Run run(std::size_t k) const {
        return Run{start_[k], run_end(k) - start_[k], stats_[k]};
    }

private:
    [[nodiscard]] int run_end(std::size_t k) const {
        return k + 1 < start_.size() ? start_[k + 1] : n_;
    }

    std::vector<RankStats> stats_;  ///< one per run
    std::vector<int> start_;        ///< each run's first rank
    int n_ = 0;                     ///< ranks
};

/// Per-run execution options (the schedule-perturbation hook of the
/// sim::check differential tooling, plus the rank-equivalence switch).
struct RunOptions {
    /// 0 = canonical FIFO pop order. Any other value seeds a deterministic
    /// permutation of the engine's order-free choices: the runnable-queue
    /// pop order, the quiescence resolver's scan order, and the order a
    /// completed collective's waiters are resumed in. Results are
    /// bit-identical for every seed (schedule invariance, DESIGN.md §10.2).
    std::uint64_t perturb_seed = 0;
    /// Rank-equivalence collapse (DESIGN.md §11): ranks sharing one Program
    /// object (ProgramBundle) and one ExecContext class execute as one
    /// simulation class until an op breaks the symmetry. Absolute p2p ops
    /// shatter the class into per-rank singletons. Relative-addressed p2p
    /// (§11.4 — what the simmpi halo helpers emit) stays merged: under OS
    /// noise every merged class runs on per-member clocks and hop tiers
    /// from the moment it forms (§11.5) and splits only where its members'
    /// match state differs at quiescence; at os_noise = 0 it has one clock
    /// and group-splits into per-signature subclasses where hop tiers or
    /// completion times genuinely differ. A Cartesian halo interior thus
    /// runs as O(surface) classes, each sending one message record per
    /// send for all its members. Results are bit-identical with the flag on
    /// or off — it is a simulation-cost knob, never a model knob. Ignored
    /// (forced off) when a Trace is attached.
    bool collapse = true;
};

struct RunResult {
    double makespan = 0;      ///< max rank finish time
    double total_flops = 0;   ///< counted FLOPs over all ranks
    /// Per-rank stats as runs of bit-identical neighbours: O(classes) for a
    /// collapsed run at os_noise = 0, one entry per rank under noise.
    RankTable ranks;
    /// Compute seconds per MarkOp label, summed over ranks (divide by ranks
    /// for the SPMD per-rank view).
    std::map<std::string, double> phase_compute;
    /// Collapse diagnostics (not part of the modelled result: excluded from
    /// check::diff_results and the persistent-cache codec).
    /// `collapse_classes` is the number of simulation classes the run *ended*
    /// with (initial classes plus every class a split created — equal to the
    /// initial count when nothing split); `collapse_splits` counts split
    /// events, broken down by cause: `split_p2p` (absolute-addressed p2p op,
    /// wildcard recv, a relative recv matched for only some members at
    /// quiescence, or, at os_noise = 0, a relative recv whose members'
    /// completion times differ), `split_placement` (relative send whose hop
    /// distance differs across members — node-edge effects of the
    /// Placement — at os_noise = 0 only). `split_noise` is always 0: under
    /// OS noise every merged class runs on per-member clocks and hop tiers
    /// (DESIGN.md §11.5). It stays because perfbench reads it.
    int collapse_classes = 0;
    int collapse_splits = 0;
    int collapse_split_p2p = 0;
    int collapse_split_noise = 0;
    int collapse_split_placement = 0;
    /// High-water mark of live message records (DESIGN.md §11.4): one per
    /// in-flight send of a class, so a halo holds O(neighbours x classes)
    /// however many ranks and rounds it has. A diagnostic, like the
    /// collapse_* fields.
    int peak_msg_records = 0;

    [[nodiscard]] double gflops() const {
        return makespan > 0 ? total_flops / 1e9 / makespan : 0.0;
    }
    [[nodiscard]] double mean_compute() const;
    [[nodiscard]] double mean_recv_wait() const;
    [[nodiscard]] double mean_collective_wait() const;
};

class Engine {
public:
    /// `nodes` sizes the interconnect; `vec_quality` comes from the
    /// experiment's Toolchain.
    Engine(const arch::SystemSpec& sys, Placement placement, double vec_quality,
           arch::ModelKnobs knobs = {});

    /// Execute one program per rank (programs.size() must equal
    /// placement.ranks()). Deterministic; reusable. `opts` sets schedule
    /// perturbation and collapse. When `trace` is non-null every per-rank
    /// span (compute, sends, waits, collectives) is recorded for timeline
    /// export (sim/trace.hpp).
    [[nodiscard]] RunResult run(const std::vector<Program>& programs,
                                const RunOptions& opts = {},
                                Trace* trace = nullptr) const;

    /// Shared-program variant: ranks mapping to the same distinct program
    /// execute one instance (simmpi::ProgramSet::take_bundle()). Results are
    /// bit-identical to the per-rank-vector overload.
    [[nodiscard]] RunResult run(const ProgramBundle& bundle, const RunOptions& opts = {},
                                Trace* trace = nullptr) const;

    [[nodiscard]] const Placement& placement() const { return placement_; }
    [[nodiscard]] const net::Network& network() const { return network_; }

private:
    const arch::SystemSpec* sys_;
    Placement placement_;
    double vec_quality_;
    arch::CostModel cost_;
    net::Network network_;
};

} // namespace armstice::sim
