// Schedule-perturbation determinism (DESIGN.md §10.2): RunOptions::
// perturb_seed scrambles the engine's runnable-queue pop order, and every
// RunResult field must stay bit-identical — the engine's results are a pure
// function of the programs, never of the schedule.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "sim_testlib.hpp"

#include <gtest/gtest.h>

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace ck = armstice::sim::check;

namespace {

as::Engine make_engine(int ranks) {
    return {aa::fulhame(), as::Placement::block(aa::fulhame().node, 2, ranks, 1),
            0.8};
}

} // namespace

TEST(Perturb, GeneratedCasesBitIdenticalAcrossEightSeeds) {
    for (std::uint64_t seed : {3ull, 14ull, 159ull}) {
        ck::GenConfig g;
        g.ranks = 10;
        const auto gc = ck::generate(seed, g);
        const auto eng = make_engine(gc.ranks);
        const auto base = eng.run(gc.programs);
        for (int k = 1; k <= 8; ++k) {
            as::RunOptions opts;
            opts.perturb_seed = 0xabcdef00ULL + static_cast<std::uint64_t>(k);
            armstice::testlib::assert_bit_identical(base,
                                                    eng.run(gc.programs, opts),
                                                    "perturbed schedule");
        }
    }
}

TEST(Perturb, AnySourceFunnelIsScheduleInvariant) {
    // The historical failure mode: an eager ANY_SOURCE match consumes
    // whichever message the schedule delivered first. Distinct payload sizes
    // give every message a distinct arrival, so any matching difference
    // changes recv_wait bits.
    const int ranks = 8;
    std::vector<as::Program> progs(ranks);
    for (int r = 1; r < ranks; ++r) {
        progs[static_cast<std::size_t>(r)].send(0, 1e4 * r, /*tag=*/1);
    }
    for (int i = 1; i < ranks; ++i) {
        progs[0].recv(as::kAnySource, /*tag=*/1);
    }
    for (int r = 1; r < ranks; ++r) {
        progs[0].send(r, 64.0, /*tag=*/2);
        progs[static_cast<std::size_t>(r)].recv(0, /*tag=*/2);
    }
    const auto eng = make_engine(ranks);
    const auto base = eng.run(progs);
    EXPECT_EQ(base.ranks[0].msgs_received, ranks - 1);
    for (int k = 1; k <= 8; ++k) {
        as::RunOptions opts;
        opts.perturb_seed = static_cast<std::uint64_t>(k) * 0x9e3779b9ULL;
        armstice::testlib::assert_bit_identical(base, eng.run(progs, opts),
                                                "perturbed ANY_SOURCE funnel");
    }
    // And the naive interpreter agrees bit-for-bit.
    const as::RefEngine ref(
        aa::fulhame(), as::Placement::block(aa::fulhame().node, 2, ranks, 1), 0.8);
    armstice::testlib::assert_bit_identical(base, ref.run(progs),
                                            "ref ANY_SOURCE funnel");
}

TEST(Perturb, PerturbationActuallyChangesTheSchedule) {
    // The hook must genuinely permute execution, not just be ignored: with
    // enough concurrent compute the trace's global span interleaving differs
    // between the canonical and a perturbed run, while the RunResult is
    // bit-identical.
    ck::GenConfig g;
    g.ranks = 12;
    g.rounds = 6;
    const auto gc = ck::generate(42, g);
    const auto eng = make_engine(gc.ranks);

    as::Trace canonical;
    const auto base = eng.run(gc.programs, {}, &canonical);
    bool any_interleaving_differs = false;
    for (int k = 1; k <= 8 && !any_interleaving_differs; ++k) {
        as::RunOptions opts;
        opts.perturb_seed = 0x7001ULL + static_cast<std::uint64_t>(k);
        as::Trace perturbed;
        const auto res = eng.run(gc.programs, opts, &perturbed);
        armstice::testlib::assert_bit_identical(base, res, "perturbed w/ trace");
        ASSERT_EQ(canonical.spans().size(), perturbed.spans().size());
        for (std::size_t i = 0; i < canonical.spans().size(); ++i) {
            if (canonical.spans()[i].rank != perturbed.spans()[i].rank) {
                any_interleaving_differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_interleaving_differs)
        << "8 perturbation seeds never changed the pop order";
}

TEST(Perturb, ZeroSeedIsCanonical) {
    ck::GenConfig g;
    g.ranks = 6;
    const auto gc = ck::generate(7, g);
    const auto eng = make_engine(gc.ranks);
    as::Trace a;
    as::Trace b;
    (void)eng.run(gc.programs, {}, &a);
    (void)eng.run(gc.programs, as::RunOptions{}, &b);
    ASSERT_EQ(a.spans().size(), b.spans().size());
    for (std::size_t i = 0; i < a.spans().size(); ++i) {
        EXPECT_EQ(a.spans()[i].rank, b.spans()[i].rank);
    }
}
