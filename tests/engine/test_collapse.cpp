// Rank-equivalence collapse (DESIGN.md §11): collapsed runs must be
// bit-identical to uncollapsed runs and to RefEngine, classes must form on
// (shared program, ExecContext class) and split exactly when an op can break
// the symmetry — p2p ops, placement asymmetry, and ANY_SOURCE arrival races
// are each pinned by a directed case below. OS noise never splits: a merged
// class keeps per-member clocks (§11.5), and the cases at the end hand those
// clocks through every split and collective path.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "simmpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
namespace ck = armstice::sim::check;

aa::ComputePhase phase(const char* label, double flops, double bytes) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = bytes;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

/// Fig-shaped SPMD iteration loop: compute + collectives + a ring halo, the
/// op mix of the paper's strong-scaling figures. Deterministic builder so it
/// can be materialised twice (bundle for the engine, vector for RefEngine).
am::ProgramSet fig_skeleton(int ranks, int iters) {
    am::ProgramSet ps(ranks);
    const auto spmv = phase("spmv", 2.4e7, 1.5e8);
    const auto axpy = phase("axpy", 1.0e6, 2.4e7);
    std::vector<std::vector<int>> neighbors(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        if (ranks > 1) {
            neighbors[static_cast<std::size_t>(r)].push_back((r + 1) % ranks);
            neighbors[static_cast<std::size_t>(r)].push_back((r + ranks - 1) % ranks);
        }
    }
    for (int it = 0; it < iters; ++it) {
        if (ranks > 1) ps.halo_exchange(neighbors, 2.1e5);
        ps.compute(spmv);
        ps.allreduce(8);
        ps.compute(axpy);
        if (it % 3 == 0) ps.alltoall(256);
        ps.allreduce(8);
    }
    return ps;
}

as::Engine make_engine(int ranks, int nodes, aa::ModelKnobs knobs = {}) {
    return {aa::fulhame(),
            as::Placement::block(aa::fulhame().node, nodes, ranks, 1), 0.8,
            knobs};
}

as::RunOptions no_collapse() {
    as::RunOptions opts;
    opts.collapse = false;
    return opts;
}

#define EXPECT_BITEQ(a, b, what)                                          \
    do {                                                                  \
        const std::string d_ = ck::diff_results((a), (b));                \
        EXPECT_EQ(d_, "") << what;                                        \
    } while (0)

TEST(Collapse, FigWorkloadsBitIdenticalOnOffAndPerturbedAtScale) {
    for (int ranks : {48, 256, 1024}) {
        const int nodes = (ranks + 63) / 64;
        const auto eng = make_engine(ranks, nodes);
        const auto bundle = fig_skeleton(ranks, /*iters=*/4).take_bundle();
        const auto vec = fig_skeleton(ranks, /*iters=*/4).take();

        const auto collapsed = eng.run(bundle);
        const auto flat = eng.run(bundle, no_collapse());
        const auto per_rank = eng.run(vec);
        EXPECT_BITEQ(collapsed, flat, "collapse on vs off at " << ranks);
        EXPECT_BITEQ(collapsed, per_rank, "bundle vs vector at " << ranks);
        EXPECT_EQ(flat.collapse_classes, ranks);
        // The relative-addressed ring halo shares one interior program, and
        // default knobs carry os_noise > 0, so the merged classes run on
        // per-member clocks after the first compute — the engine must agree
        // with itself bit-for-bit regardless of how far the collapse carries.
        for (std::uint64_t seed : {0xc011a95eULL, 0x5eedULL}) {
            as::RunOptions opts;
            opts.perturb_seed = seed;
            EXPECT_BITEQ(collapsed, eng.run(bundle, opts),
                         "perturbed collapse at " << ranks);
        }
    }
}

TEST(Collapse, SpmdFigWorkloadMatchesRefEngine) {
    // RefEngine is O(ranks^2 * events); keep it at the small end and let the
    // on/off differential above carry the large sizes.
    for (int ranks : {48, 96}) {
        const auto eng = make_engine(ranks, (ranks + 63) / 64);
        const as::RefEngine ref(
            aa::fulhame(),
            as::Placement::block(aa::fulhame().node, (ranks + 63) / 64, ranks, 1),
            0.8);
        const auto bundle = fig_skeleton(ranks, /*iters=*/3).take_bundle();
        const auto vec = fig_skeleton(ranks, /*iters=*/3).take();
        EXPECT_BITEQ(eng.run(bundle), ref.run(vec), "engine vs ref at " << ranks);
        EXPECT_BITEQ(eng.run(bundle), ref.run(bundle),
                     "engine vs ref bundle overload at " << ranks);
    }
}

TEST(Collapse, PureSpmdCollapsesToContextClassesUnderZeroNoise) {
    // 128 ranks on 2 fully-populated Fulhame nodes, no p2p, no noise: one
    // shared program and one ExecContext class => exactly one simulation
    // class, zero splits.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const int ranks = 128;
    const auto eng = make_engine(ranks, 2, knobs);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < 5; ++it) {
        ps.compute(phase("jacobi", 3.0e7, 2.0e8));
        ps.allreduce(8);
    }
    ASSERT_TRUE(ps.spmd());
    const auto bundle = ps.take_bundle();
    ASSERT_EQ(bundle.distinct(), 1);

    const auto collapsed = eng.run(bundle);
    EXPECT_EQ(collapsed.collapse_classes, 1);
    EXPECT_EQ(collapsed.collapse_splits, 0);
    const auto flat = eng.run(bundle, no_collapse());
    EXPECT_EQ(flat.collapse_classes, ranks);
    EXPECT_BITEQ(collapsed, flat, "collapsed vs flat");
}

/// Bit-identity of a noisy run against collapse-off, RefEngine and two
/// perturbed schedules.
void expect_noisy_invariant(const as::Engine& eng, const as::RefEngine& ref,
                            const as::RunResult& collapsed,
                            const std::vector<as::Program>& progs,
                            const char* what) {
    const auto bundle = as::ProgramBundle::from(progs);
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()), what << ": on/off");
    EXPECT_BITEQ(collapsed, ref.run(progs), what << ": vs RefEngine");
    for (std::uint64_t seed : {0x7e57ULL, 0xc10c5ULL}) {
        as::RunOptions opts;
        opts.perturb_seed = seed;
        EXPECT_BITEQ(collapsed, eng.run(bundle, opts), what << ": perturbed");
    }
}

TEST(Collapse, OsNoiseKeepsSpmdClassMerged) {
    // Default knobs carry os_noise > 0 and the noise draw is keyed on the
    // rank, so members' clocks differ after the first ComputeOp. The class
    // keeps them per member instead of splitting: the run ends with the one
    // class it started with, and every rank still gets its own bits.
    const int ranks = 64;
    const auto placement = as::Placement::block(aa::fulhame().node, 1, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8);
    as::Program spmd;
    spmd.compute(phase("noisy", 1.0e7, 5.0e7));
    spmd.allreduce(8);
    const std::vector<as::Program> progs(static_cast<std::size_t>(ranks), spmd);

    const auto collapsed = eng.run(as::ProgramBundle::from(progs));
    EXPECT_EQ(collapsed.collapse_classes, 1);
    EXPECT_EQ(collapsed.collapse_splits, 0);
    EXPECT_EQ(collapsed.collapse_split_noise, 0);
    EXPECT_NE(std::bit_cast<std::uint64_t>(collapsed.ranks[0].compute),
              std::bit_cast<std::uint64_t>(collapsed.ranks[1].compute));
    expect_noisy_invariant(eng, ref, collapsed, progs, "noisy SPMD");
}

TEST(Collapse, SharedRingSplitsOnFirstSend) {
    // Collective prologue keeps the class together; the ring send is the
    // first op that addresses an absolute rank and must trigger the split.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const int ranks = 8;
    const auto eng = make_engine(ranks, 1, knobs);
    as::Program proto;
    proto.allreduce(8);
    proto.compute(phase("pre", 1.0e6, 1.0e7));
    // Every rank sends to rank 0 (rank 0 to itself — a legal shm
    // self-message), keeping the bundle shared; eager sends let the ranks
    // finish with the messages unconsumed.
    proto.send(0, 4096, /*tag=*/7);
    const auto bundle =
        as::ProgramBundle::classes({proto}, std::vector<std::uint32_t>(ranks, 0));

    const auto collapsed = eng.run(bundle);
    // The absolute-addressed send shatters the class into singletons, so the
    // run ends with one class per rank after a single split event.
    EXPECT_EQ(collapsed.collapse_classes, ranks);
    EXPECT_EQ(collapsed.collapse_splits, 1);
    EXPECT_EQ(collapsed.collapse_split_p2p, 1);
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()), "send split");
}

TEST(Collapse, AnySourceFunnelSplitsAndStaysInvariant) {
    // Non-root ranks share one program (identical sends), the root is its
    // own class; the equal arrival times force the wildcard matcher through
    // its source-rank tie-break, which any collapse bug in send issue times
    // would perturb. The shared class must split at its SendOp before any
    // per-rank asymmetry can be observed.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const int ranks = 12;
    const auto eng = make_engine(ranks, 1, knobs);
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (int r = 1; r < ranks; ++r) {
        progs[static_cast<std::size_t>(r)].compute(phase("pre", 2.0e6, 1.0e7));
        progs[static_cast<std::size_t>(r)].send(0, 1024.0, /*tag=*/3);
        progs[static_cast<std::size_t>(r)].recv(0, /*tag=*/4);
    }
    for (int i = 1; i < ranks; ++i) {
        progs[0].recv(as::kAnySource, /*tag=*/3);
    }
    for (int r = 1; r < ranks; ++r) progs[0].send(r, 64.0, /*tag=*/4);
    const auto bundle = as::ProgramBundle::from(progs);
    ASSERT_EQ(bundle.distinct(), 2);

    const auto collapsed = eng.run(bundle);
    // The shared non-root class splits at its absolute SendOp, leaving one
    // class per rank by the end of the run.
    EXPECT_EQ(collapsed.collapse_classes, ranks);
    EXPECT_GE(collapsed.collapse_splits, 1);
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()), "funnel on/off");
    EXPECT_BITEQ(collapsed, eng.run(progs), "funnel bundle vs vector");
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        as::RunOptions opts;
        opts.perturb_seed = seed;
        EXPECT_BITEQ(collapsed, eng.run(bundle, opts), "funnel perturbed");
    }
}

TEST(Collapse, PlacementAsymmetryMakesSeparateClasses) {
    // 3 ranks on 2 nodes (block): the under-filled node's rank sees a
    // different stream count, so one shared program still yields two
    // ExecContext classes — collapse must keep them apart from the start.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const auto eng = make_engine(3, 2, knobs);
    am::ProgramSet ps(3);
    ps.compute(phase("imbalanced", 5.0e7, 3.0e8));
    ps.allreduce(8);
    const auto bundle = ps.take_bundle();
    ASSERT_EQ(bundle.distinct(), 1);

    const auto collapsed = eng.run(bundle);
    EXPECT_EQ(collapsed.collapse_classes, 2);
    EXPECT_EQ(collapsed.collapse_splits, 0);
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()), "asym placement");
    // Co-resident ranks share a class and replicate its stats exactly.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(collapsed.ranks[0].compute),
              std::bit_cast<std::uint64_t>(collapsed.ranks[1].compute));
}

TEST(Collapse, TraceForcesSingletonsAndMatchesCollapsedResult) {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const int ranks = 16;
    const auto eng = make_engine(ranks, 1, knobs);
    am::ProgramSet ps(ranks);
    ps.compute(phase("traced", 1.0e7, 8.0e7));
    ps.allreduce(8);
    const auto bundle = ps.take_bundle();

    as::Trace trace;
    const auto traced = eng.run(bundle, &trace);
    EXPECT_EQ(traced.collapse_classes, ranks);  // trace disables collapse
    EXPECT_FALSE(trace.spans().empty());
    EXPECT_BITEQ(eng.run(bundle), traced, "collapsed vs traced");
}

TEST(Collapse, HundredThousandRankSpmdSmoke) {
    // The scale the collapse exists for: 100k ranks, a handful of classes,
    // and the uncollapsed run (cheap here: few ops/rank) agrees bit-for-bit.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const int ranks = 100000;
    const int nodes = (ranks + 63) / 64;
    const auto eng = make_engine(ranks, nodes, knobs);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < 5; ++it) {
        ps.compute(phase("spmv", 2.4e7, 1.5e8));
        ps.allreduce(8);
    }
    ASSERT_TRUE(ps.spmd());
    const auto bundle = ps.take_bundle();

    const auto collapsed = eng.run(bundle);
    EXPECT_LE(collapsed.collapse_classes, 2);  // full nodes + one partial
    EXPECT_GT(collapsed.makespan, 0.0);
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()), "100k on/off");
}

TEST(Collapse, NoisyClassHandsClocksToAbsoluteAndWildcardSplits) {
    // Two merged classes run a noisy compute first, so each carries
    // per-member clocks when its first absolute p2p op arrives. Ranks 1..7
    // send to rank 0 (an absolute send: full split); ranks 8..15 post an
    // ANY_SOURCE receive (a wildcard: full split). Each new singleton must
    // start from its own member's clock — rank 0's wildcard matches order
    // by those arrival times, so a wrong hand-off changes the result.
    const int ranks = 16;
    const auto placement = as::Placement::block(aa::fulhame().node, 1, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8);
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    as::Program sender;
    sender.compute(phase("pre", 2.0e6, 1.0e7));
    sender.send(0, 1024.0, /*tag=*/3);
    sender.recv(0, /*tag=*/4);
    as::Program waiter;
    waiter.compute(phase("pre", 2.0e6, 1.0e7));
    waiter.recv(as::kAnySource, /*tag=*/5);
    progs[0].compute(phase("root", 1.0e6, 1.0e7));
    for (int r = 1; r < 8; ++r) {
        progs[static_cast<std::size_t>(r)] = sender;
        progs[0].recv(as::kAnySource, /*tag=*/3);
    }
    for (int r = 1; r < 8; ++r) progs[0].send(r, 64.0, /*tag=*/4);
    for (int r = 8; r < ranks; ++r) {
        progs[static_cast<std::size_t>(r)] = waiter;
        progs[0].send(r, 64.0, /*tag=*/5);
    }
    std::vector<std::uint32_t> of(static_cast<std::size_t>(ranks), 1);
    of[0] = 0;
    for (int r = 8; r < ranks; ++r) of[static_cast<std::size_t>(r)] = 2;
    const auto bundle = as::ProgramBundle::classes({progs[0], sender, waiter}, of);

    const auto collapsed = eng.run(bundle);
    EXPECT_EQ(collapsed.collapse_classes, ranks);
    EXPECT_EQ(collapsed.collapse_splits, 2);
    EXPECT_EQ(collapsed.collapse_split_p2p, 2);
    expect_noisy_invariant(eng, ref, collapsed, progs, "abs/wildcard hand-off");
}

TEST(Collapse, NoisyCollectiveSyncsDivergedMemberClocks) {
    // 130 ranks on 3 nodes (44, 44 and 42 per node) make a few merged
    // ExecContext classes, so merged classes with diverged clocks wait in
    // the collective while another completes it. Every member must take the
    // completion time and add its own wait, and nothing splits.
    const int ranks = 130;
    const auto placement = as::Placement::block(aa::fulhame().node, 3, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8);
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (auto& p : progs) {
        p.compute(phase("stage1", 1.0e7, 5.0e7));
        p.allreduce(8);
        p.compute(phase("stage2", 2.0e6, 1.0e7));
        p.barrier();
        p.compute(phase("stage1", 1.0e7, 5.0e7));
    }
    const auto bundle = as::ProgramBundle::from(progs);
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const auto quiet = as::Engine(aa::fulhame(), placement, 0.8, knobs).run(bundle);
    ASSERT_GE(quiet.collapse_classes, 2);
    ASSERT_LE(quiet.collapse_classes * 8, ranks);
    const auto collapsed = eng.run(bundle);
    EXPECT_EQ(collapsed.collapse_classes, quiet.collapse_classes);
    EXPECT_EQ(collapsed.collapse_splits, 0);
    EXPECT_NE(std::bit_cast<std::uint64_t>(collapsed.ranks[0].collective_wait),
              std::bit_cast<std::uint64_t>(collapsed.ranks[1].collective_wait));
    expect_noisy_invariant(eng, ref, collapsed, progs, "diverged collective");
}

TEST(TieredP2p, EngineMatchesRefEngineAcrossTheOldTableCutoff) {
    // The dense node-pair table used to be gated by n_nodes <= 256; the
    // tiered hop table replaced it for every size. Straddle the old cutoff
    // and require bit-identity against RefEngine, whose sends price through
    // Network::p2p_time directly.
    for (int nodes : {200, 256, 257, 300}) {
        const int ranks = 64;  // round-robin: one rank per node, many hops
        const auto placement =
            as::Placement::round_robin(aa::fulhame().node, nodes, ranks, 1);
        const as::Engine eng(aa::fulhame(), placement, 0.8);
        const as::RefEngine ref(aa::fulhame(), placement, 0.8);
        std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
        for (int r = 0; r < ranks; ++r) {
            auto& p = progs[static_cast<std::size_t>(r)];
            p.compute(phase("tier", 1.0e6 * (1 + r % 3), 1.0e7));
            p.send((r + 1) % ranks, 1.0e4 * (1 + r), /*tag=*/1);
            p.send((r + 7) % ranks, 2.5e3, /*tag=*/2);
            p.recv((r + ranks - 1) % ranks, /*tag=*/1);
            p.recv((r + ranks - 7) % ranks, /*tag=*/2);
            p.allreduce(8);
        }
        const auto a = eng.run(progs);
        EXPECT_BITEQ(a, ref.run(progs), "tiered p2p at " << nodes << " nodes");
        EXPECT_GT(a.ranks[0].msgs_received, 0);
    }
}

} // namespace
