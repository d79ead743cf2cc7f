// Relative-addressing collapse over halo exchanges (DESIGN.md §11.4): the
// simmpi halo helpers emit send_rel/recv_rel, so structurally symmetric
// ranks — the whole interior of a Cartesian decomposition — share one
// program AND stay merged through p2p. These tests pin the class-count wins
// (interior merged, only genuine symmetry breaks split), the split
// correctness at torus wraps and node-edge hop-tier changes, and the hard
// contract: bit-identical to collapse-off, RefEngine, and every perturbed
// schedule, at any checker job count. The shape cases run twice: with
// os_noise = 0, and at default knobs, where every merged class carries
// per-member clocks from the start (§11.5) and must end with no more classes
// than the quiet run and with no split at all: a class under noise that
// straddles a node edge keeps per-member hop tiers instead of splitting by
// tier, and completes each member's receive on its own clock instead of
// splitting by completion time.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "simmpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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

/// OS noise off: completion times agree across members, so every split the
/// quiet run makes is placement or arrival geometry.
aa::ModelKnobs quiet() {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    return knobs;
}

as::Engine make_engine(int ranks, int nodes, aa::ModelKnobs knobs = quiet()) {
    return {aa::fulhame(),
            as::Placement::block(aa::fulhame().node, nodes, ranks, 1), 0.8,
            knobs};
}

as::RunOptions no_collapse() {
    as::RunOptions opts;
    opts.collapse = false;
    return opts;
}

/// Halo-dominated SPMD iteration: exchange + spmv + allreduce, the op mix of
/// the paper's halo apps (hpcg/cosa skeletons) boiled down to its shape.
am::ProgramSet halo_app(const am::HaloGraph& neighbors, int iters,
                        double bytes = 1.0e5) {
    am::ProgramSet ps(neighbors.ranks());
    const auto spmv = phase("spmv", 2.4e7, 1.5e8);
    for (int it = 0; it < iters; ++it) {
        ps.halo_exchange(neighbors, bytes, /*tag=*/100 + it);
        ps.compute(spmv);
        ps.allreduce(8);
    }
    return ps;
}

am::HaloGraph ring_neighbors(int ranks) {
    std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        nbrs[static_cast<std::size_t>(r)].push_back((r + 1) % ranks);
        nbrs[static_cast<std::size_t>(r)].push_back((r + ranks - 1) % ranks);
    }
    return am::HaloGraph(nbrs);
}

#define EXPECT_BITEQ(a, b, what)                                          \
    do {                                                                  \
        const std::string d_ = ck::diff_results((a), (b));                \
        EXPECT_EQ(d_, "") << what;                                        \
    } while (0)

void expect_invariant(const as::Engine& eng, const as::RunResult& collapsed,
                      const as::ProgramBundle& bundle, const char* what) {
    EXPECT_BITEQ(collapsed, eng.run(bundle, no_collapse()),
                 what << ": collapse on vs off");
    for (std::uint64_t seed : {0x4a105eedULL, 0x9e37ULL}) {
        as::RunOptions opts;
        opts.perturb_seed = seed;
        EXPECT_BITEQ(collapsed, eng.run(bundle, opts), what << ": perturbed");
    }
}

/// Run one halo case with os_noise = 0 and again at default knobs. Each run
/// must be bit-identical to collapse-off, RefEngine and perturbed schedules,
/// and must satisfy the case's own `check(engine, result, noisy)`; the noisy
/// run must end with no more classes than the quiet one and with no split
/// (per-member clocks and hop tiers never split a class on a noise draw, a
/// completion time or a node edge, and these halos match every receive).
template <class Check>
void quiet_and_noisy(int ranks, int nodes, const as::ProgramBundle& bundle,
                     const char* what, Check&& check) {
    int quiet_classes = 0;
    for (const bool noisy : {false, true}) {
        SCOPED_TRACE(noisy ? "default knobs" : "os_noise = 0");
        const aa::ModelKnobs knobs = noisy ? aa::ModelKnobs{} : quiet();
        const auto eng = make_engine(ranks, nodes, knobs);
        const as::RefEngine ref(
            aa::fulhame(), as::Placement::block(aa::fulhame().node, nodes, ranks, 1),
            0.8, knobs);
        const auto collapsed = eng.run(bundle);
        EXPECT_EQ(collapsed.collapse_split_noise, 0);
        check(eng, collapsed, noisy);
        expect_invariant(eng, collapsed, bundle, what);
        EXPECT_BITEQ(collapsed, ref.run(bundle), what << ": vs RefEngine");
        if (noisy) {
            EXPECT_LE(collapsed.collapse_classes, quiet_classes) << what;
            EXPECT_EQ(collapsed.collapse_splits, 0) << what;
        } else {
            quiet_classes = collapsed.collapse_classes;
        }
    }
}

TEST(CollapseHalo, RingInteriorStaysMergedThroughP2p) {
    // 256 ranks on 4 nodes. In relative form the ring has three program
    // shapes (interior ±1, the two wrap ranks), and the interior class only
    // group-splits where the +1/-1 hop tier changes at a node edge — a
    // handful of classes, not one per rank. Under noise it does not split
    // there at all: its members carry their own tiers.
    const int ranks = 256;
    const auto bundle = halo_app(ring_neighbors(ranks), /*iters=*/3).take_bundle();
    quiet_and_noisy(ranks, 4, bundle, "ring 256",
                    [&](const as::Engine& eng, const as::RunResult& collapsed,
                        bool noisy) {
                        EXPECT_LE(collapsed.collapse_classes, 16);
                        // Node-edge hop-tier changes are placement geometry,
                        // counted as such.
                        if (!noisy) {
                            EXPECT_GE(collapsed.collapse_split_placement, 1);
                        }
                        EXPECT_EQ(eng.run(bundle, no_collapse()).collapse_classes,
                                  ranks);
                    });
}

TEST(CollapseHalo, Torus2DWrapRanksSplitInteriorMerges) {
    // 16x16 periodic torus on 4 nodes: nine relative shapes (interior, four
    // edges, four corners — the wrap offsets differ), refined by hop tiers.
    const int ranks = 256;
    const auto dims = am::dims_create(ranks, 2);
    ASSERT_EQ(dims[0] * dims[1], ranks);
    const auto bundle =
        halo_app(am::cart_neighbors(dims, /*periodic=*/true), /*iters=*/3)
            .take_bundle();
    quiet_and_noisy(ranks, 4, bundle, "torus 16x16",
                    [&](const as::Engine&, const as::RunResult& collapsed, bool) {
                        EXPECT_LE(collapsed.collapse_classes * 4, ranks);
                    });
}

TEST(CollapseHalo, Torus3DCollapsesToSurfaceOrderClasses)  {
    // 8x8x8 periodic torus on 8 nodes: the tentpole's headline case — the
    // O(ranks) classes of absolute addressing become O(surface) relative
    // shape/tier groups; interior ranks stay merged through all six
    // exchanges per iteration.
    const int ranks = 512;
    const auto dims = am::dims_create(ranks, 3);
    ASSERT_EQ(dims[0] * dims[1] * dims[2], ranks);
    const auto bundle =
        halo_app(am::cart_neighbors(dims, /*periodic=*/true), /*iters=*/2)
            .take_bundle();
    quiet_and_noisy(ranks, 8, bundle, "torus 8x8x8",
                    [&](const as::Engine& eng, const as::RunResult& collapsed,
                        bool) {
                        EXPECT_LE(collapsed.collapse_classes * 2, ranks);
                        EXPECT_EQ(eng.run(bundle, no_collapse()).collapse_classes,
                                  ranks);
                    });
}

TEST(CollapseHalo, NonDivisibleDecompositionsStayInvariant) {
    // Decompositions that don't tile the node or the grid evenly: a 6x5x3
    // non-periodic box (boundary categories dominate) and a chain where only
    // 45 of 64 ranks are active (idle tail shares one empty-exchange
    // program). Both must collapse below the rank count and stay invariant.
    {
        const auto dims = am::dims_create(90, 3);
        const auto bundle =
            halo_app(am::cart_neighbors(dims, /*periodic=*/false), /*iters=*/2)
                .take_bundle();
        quiet_and_noisy(90, 2, bundle, "box 6x5x3",
                        [](const as::Engine&, const as::RunResult& collapsed, bool) {
                            EXPECT_LT(collapsed.collapse_classes, 90);
                        });
    }
    {
        const auto bundle =
            halo_app(am::chain_neighbors(64, /*active=*/45), /*iters=*/3)
                .take_bundle();
        quiet_and_noisy(64, 1, bundle, "chain 45/64",
                        [](const as::Engine&, const as::RunResult& collapsed, bool) {
                            EXPECT_LE(collapsed.collapse_classes, 8);
                        });
    }
}

TEST(CollapseHalo, NoisyInactiveChainCarriesTiersOnMemberClocks) {
    // COSA's shape: per-rank compute first, then a chain halo over the 45
    // active of 64 ranks, then an allreduce. At default knobs the merged
    // classes carry per-member clocks by the time the first relative send
    // checks its hop tier, so a class whose members straddle a node edge
    // records each member's tier beside its clocks and stays merged.
    const int ranks = 64;
    const int active = 45;
    const auto nbrs = am::chain_neighbors(ranks, active);
    am::ProgramSet ps(ranks);
    ps.mark("chain");
    for (int it = 0; it < 3; ++it) {
        ps.compute_by_rank([&](int r) {
            const double blocks = r < active ? 1 + r % 2 : 0;
            return phase("block", blocks * 1.0e7, blocks * 5.0e7);
        });
        ps.halo_exchange(nbrs, 4.0e4);
        ps.allreduce(8);
    }
    const auto bundle = ps.take_bundle();
    for (const int nodes : {2, 4}) {
        const auto placement =
            as::Placement::block(aa::fulhame().node, nodes, ranks, 1);
        const as::Engine eng(aa::fulhame(), placement, 0.8);
        const as::RefEngine ref(aa::fulhame(), placement, 0.8);
        const auto collapsed = eng.run(bundle);
        EXPECT_EQ(collapsed.collapse_split_placement, 0) << nodes << " nodes";
        EXPECT_LE(collapsed.collapse_classes, 8) << nodes << " nodes";
        expect_invariant(eng, collapsed, bundle, "noisy chain 45/64");
        EXPECT_BITEQ(collapsed, ref.run(bundle), "noisy chain vs RefEngine");
    }
}

TEST(CollapseHalo, NoisySplitPartsSendAtTheirMembersTiers) {
    // A two-wide relative pipeline on 8 nodes of 3 ranks. Ranks 2..21 first
    // send to r + 2, which stays on the node for one member in three, so at
    // default knobs their class records per-member hop tiers for offset +2.
    // They then receive from r - 2, and quiescence splits the class stage by
    // stage; each part sends a large message to r + 2 again, from the tier
    // memo, and must price it at its own members' tiers.
    const int ranks = 24;
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("wave", 1.0e6, 5.0e6));
        if (r + 2 < ranks) p.send_rel(2, 4.0e4, /*tag=*/1);
        if (r >= 2) p.recv_rel(-2, /*tag=*/4);
        if (r + 2 < ranks) p.send_rel(2, 1.0e6, /*tag=*/4);
        if (r >= 2) p.recv_rel(-2, /*tag=*/1);
        p.allreduce(8);
    }
    const auto bundle = as::ProgramBundle::from(progs);
    ASSERT_EQ(bundle.distinct(), 3);
    const auto placement = as::Placement::block(aa::fulhame().node, 8, ranks, 1);
    for (const bool noisy : {false, true}) {
        SCOPED_TRACE(noisy ? "default knobs" : "os_noise = 0");
        const aa::ModelKnobs knobs = noisy ? aa::ModelKnobs{} : quiet();
        const as::Engine eng(aa::fulhame(), placement, 0.8, knobs);
        const as::RefEngine ref(aa::fulhame(), placement, 0.8, knobs);
        const auto collapsed = eng.run(bundle);
        EXPECT_GE(collapsed.collapse_split_p2p, 1);
        EXPECT_EQ(collapsed.collapse_split_placement, noisy ? 0 : 2);
        // Stages wait on their predecessors' large messages.
        EXPECT_GT(collapsed.ranks[9].recv_wait, 0.0);
        expect_invariant(eng, collapsed, bundle, "tiered pipeline");
        EXPECT_BITEQ(collapsed, ref.run(progs), "tiered pipeline vs RefEngine");
    }
}

TEST(CollapseHalo, NoisyBoxAcrossNodeEdgesStaysMerged) {
    // HPCG's shape on a 6x6x6 non-periodic box over 4 nodes of 54 ranks:
    // node edges cut through the middle of a 36-rank plane, so face
    // exchanges cross a node edge for some members of a class and not for
    // others. With os_noise = 0 those classes split by hop tier; at default
    // knobs they keep per-member tiers and end with fewer classes.
    const int ranks = 216;
    const auto dims = am::dims_create(ranks, 3);
    ASSERT_EQ(dims[0] * dims[1] * dims[2], ranks);
    const auto bundle =
        halo_app(am::cart_neighbors(dims, /*periodic=*/false), /*iters=*/2).take_bundle();
    int quiet_classes = 0;
    quiet_and_noisy(ranks, 4, bundle, "box 6x6x6 on 4 nodes",
                    [&](const as::Engine&, const as::RunResult& collapsed, bool noisy) {
                        if (noisy) {
                            EXPECT_LT(collapsed.collapse_classes, quiet_classes);
                        } else {
                            EXPECT_GE(collapsed.collapse_split_placement, 1);
                            quiet_classes = collapsed.collapse_classes;
                        }
                    });
}

TEST(CollapseHalo, NoisyPipelineGroupSplitsAtQuiescence) {
    // A two-wide relative pipeline: ranks 2..13 receive from r - 2, then
    // send to r + 2. After a noisy compute the merged middle class blocks
    // with only its first two members matched, so quiescence group-splits
    // it by match state: the matched pair keeps per-member clocks and
    // completes its receive merged, the rest stay blocked.
    const int ranks = 16;
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        for (int it = 0; it < 2; ++it) {
            p.compute(phase("wave", 1.0e7, 5.0e7));
            if (r >= 2) p.recv_rel(-2, /*tag=*/4);
            if (r + 2 < ranks) p.send_rel(2, 4.0e4, /*tag=*/4);
            p.allreduce(8);
        }
    }
    const auto bundle = as::ProgramBundle::from(progs);
    ASSERT_EQ(bundle.distinct(), 3);
    const auto placement = as::Placement::block(aa::fulhame().node, 1, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8);
    const auto collapsed = eng.run(bundle);
    EXPECT_GE(collapsed.collapse_split_p2p, 1);
    EXPECT_LT(collapsed.collapse_classes, ranks);
    expect_invariant(eng, collapsed, bundle, "noisy pipeline");
    EXPECT_BITEQ(collapsed, ref.run(progs), "noisy pipeline vs RefEngine");
}

TEST(CollapseHalo, HopTierChangeForcesGroupedSplit) {
    // Wrap-boundary split correctness in isolation: neighbour pairs (2i,
    // 2i+1) exchange through identical relative offsets, but with 3 ranks
    // per node some pairs sit inside a node and some straddle an edge. The
    // shared classes must group-split by hop tier (one class per tier group,
    // NOT per rank), price both tiers correctly (RefEngine agrees), and
    // count the split as placement asymmetry — the tier is a property of
    // where the Placement put the pair, not of the op stream.
    const int ranks = 48;
    const auto eng = make_engine(ranks, 16);  // 3 ranks per node
    std::vector<as::Program> progs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("pair", 2.0e6, 1.0e7));
        const int off = (r % 2 == 0) ? 1 : -1;
        p.send_rel(off, 4.0e4, /*tag=*/9);
        p.recv_rel(off, /*tag=*/9);
        p.allreduce(8);
    }
    const auto bundle = as::ProgramBundle::from(progs);
    ASSERT_EQ(bundle.distinct(), 2);  // even/odd shapes share

    const as::RefEngine ref(
        aa::fulhame(),
        as::Placement::block(aa::fulhame().node, 16, ranks, 1), 0.8, quiet());
    const auto collapsed = eng.run(bundle);
    EXPECT_GE(collapsed.collapse_split_placement, 1);
    EXPECT_GE(collapsed.collapse_classes, 4);  // even/odd x intra/inter
    EXPECT_LE(collapsed.collapse_classes, 12);
    EXPECT_BITEQ(collapsed, ref.run(progs), "pair exchange vs RefEngine");
    expect_invariant(eng, collapsed, bundle, "pair exchange");
}

TEST(CollapseHalo, MatchesRefEngineOnTorus) {
    // RefEngine is O(ranks^2 * events): keep the differential at the small
    // end; the on/off checks above carry the large sizes.
    const auto dims = am::dims_create(36, 2);
    const auto eng = make_engine(36, 2);
    const as::RefEngine ref(aa::fulhame(),
                            as::Placement::block(aa::fulhame().node, 2, 36, 1),
                            0.8, quiet());
    const auto bundle =
        halo_app(am::cart_neighbors(dims, /*periodic=*/true), /*iters=*/2)
            .take_bundle();
    const auto vec =
        halo_app(am::cart_neighbors(dims, /*periodic=*/true), /*iters=*/2)
            .take();
    EXPECT_BITEQ(eng.run(bundle), ref.run(vec), "torus 6x6 vs RefEngine");
}

TEST(CollapseHalo, CheckSuiteWithHaloRoundsIsJobCountInvariant) {
    // The sim::check generator now emits relative-addressed halo rounds
    // (kind 7); run the differential/perturbation suite over them at jobs 1
    // and 8 and require a clean, byte-identical report — the "bit-identical
    // at any job count" leg of the contract.
    ck::CheckConfig cfg;
    cfg.first_seed = 0x4a10ULL;
    cfg.seeds = 24;
    cfg.perturbations = 2;
    cfg.deadlock_every = 6;
    cfg.jobs = 1;
    const auto one = ck::run_suite(aa::fulhame(), cfg);
    EXPECT_TRUE(one.ok()) << one.render();
    cfg.jobs = 8;
    const auto eight = ck::run_suite(aa::fulhame(), cfg);
    EXPECT_TRUE(eight.ok()) << eight.render();
    EXPECT_EQ(one.render(), eight.render());
}

} // namespace
