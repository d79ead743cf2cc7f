// Differential harness: sim::Engine and sim::RefEngine must produce
// bit-for-bit identical RunResults on generated program sets (DESIGN.md
// §10.1) — the acceptance bar is >= 500 seeds with 8 perturbed schedules
// each, which DifferentialSuite runs in one go via check::run_suite.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "sim_testlib.hpp"

#include <gtest/gtest.h>

#include <string>

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace ck = armstice::sim::check;

TEST(Differential, SuiteOf500SeedsIsBitIdentical) {
    ck::CheckConfig cfg;
    cfg.seeds = 500;
    cfg.perturbations = 8;
    cfg.deadlock_every = 8;
    const auto rep = ck::run_suite(aa::fulhame(), cfg);
    EXPECT_EQ(rep.cases, 500);
    EXPECT_GT(rep.deadlock_cases, 0);
    EXPECT_TRUE(rep.ok()) << rep.render();
}

TEST(Differential, RefEngineMatchesEngineOnEveryRoundType) {
    // Fixed rank count so every round type (incl. pairs and funnels) is
    // reachable; invariants assert on the engine result, bit-identity on the
    // pair.
    for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
        ck::GenConfig g;
        g.ranks = 8;
        const auto gc = ck::generate(seed, g);
        const auto placement =
            as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
        const as::Engine eng(aa::fulhame(), placement, 0.8);
        const as::RefEngine ref(aa::fulhame(), placement, 0.8);
        const auto a = eng.run(gc.programs);
        armstice::testlib::assert_invariants(gc, a);
        armstice::testlib::assert_bit_identical(a, ref.run(gc.programs),
                                                "engine vs ref");
    }
}

TEST(Differential, RefEngineMatchesUnderZeroNoiseToo) {
    // os_noise = 0 exercises the noise-free branch of both engines.
    ck::GenConfig g;
    g.ranks = 6;
    const auto gc = ck::generate(77, g);
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    const auto placement = as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8, knobs);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8, knobs);
    armstice::testlib::assert_bit_identical(eng.run(gc.programs),
                                            ref.run(gc.programs),
                                            "engine vs ref (no noise)");
}

TEST(Differential, DiffResultsReportsFirstDifference) {
    ck::GenConfig g;
    g.ranks = 4;
    const auto gc = ck::generate(5, g);
    const auto placement = as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8);
    const auto a = eng.run(gc.programs);
    EXPECT_EQ(ck::diff_results(a, a), "");

    auto b = a;
    b.makespan *= 1.0 + 1e-15;  // one-ulp-ish change must be caught
    EXPECT_NE(ck::diff_results(a, b), "");

    auto c = a;
    c.ranks = {};
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
        auto st = a.ranks[r];
        if (r + 1 == a.ranks.size()) st.msgs_received += 1;
        c.ranks.append(st);
    }
    const auto d = ck::diff_results(a, c);
    const std::string last = "rank " + std::to_string(a.ranks.size() - 1) + " msgs_received";
    EXPECT_NE(d.find(last), std::string::npos) << d;
}

TEST(Differential, GeneratorIsDeterministic) {
    const auto a = ck::generate(123);
    const auto b = ck::generate(123);
    ASSERT_EQ(a.ranks, b.ranks);
    ASSERT_EQ(a.programs.size(), b.programs.size());
    for (std::size_t r = 0; r < a.programs.size(); ++r) {
        EXPECT_TRUE(a.programs[r] == b.programs[r]) << "rank " << r;
    }
    EXPECT_NE(ck::generate(124).programs, b.programs);
}
