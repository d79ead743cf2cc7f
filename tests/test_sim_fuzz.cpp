// Randomised property tests of the discrete-event engine: the shared
// sim::check generator (tests/sim_testlib.hpp) produces random programs that
// are deadlock-free by construction — collectives, ring shifts, crossing
// mixed-tag pairs, ANY_SOURCE funnels, random compute — and the global
// invariants must hold for every realisation.

#include "arch/system.hpp"
#include "sim/engine.hpp"
#include "sim_testlib.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace as = armstice::sim;
namespace aa = armstice::arch;
namespace ck = armstice::sim::check;

class EngineFuzz : public ::testing::TestWithParam<unsigned long> {};

TEST_P(EngineFuzz, InvariantsHoldForRandomPrograms) {
    ck::GenConfig cfg;
    cfg.ranks = 4 + static_cast<int>(GetParam() % 29);
    const auto gc = ck::generate(GetParam() * 7919ul, cfg);

    auto placement = as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
    const as::Engine engine(aa::fulhame(), std::move(placement), 0.8);
    const auto res = engine.run(gc.programs);

    armstice::testlib::assert_invariants(gc, res);
    // Determinism: a second run is bit-identical, not merely close.
    armstice::testlib::assert_bit_identical(res, engine.run(gc.programs),
                                            "second run");
}

TEST_P(EngineFuzz, TraceCoversAllComputeTime) {
    ck::GenConfig cfg;
    cfg.ranks = 4 + static_cast<int>(GetParam() % 13);
    const auto gc = ck::generate(GetParam() * 104729ul, cfg);
    auto placement = as::Placement::block(aa::ngio().node, 1, gc.ranks, 1);
    const as::Engine engine(aa::ngio(), std::move(placement), 0.8);
    as::Trace trace;
    const auto res = engine.run(gc.programs, {}, &trace);
    double total_compute = 0;
    for (const auto& r : res.ranks) total_compute += r.compute;
    EXPECT_NEAR(trace.total_seconds(as::SpanKind::compute), total_compute,
                1e-9 * std::max(1.0, total_compute));
    // Spans never overlap per rank (each rank is a serial timeline).
    std::vector<std::vector<std::pair<double, double>>> per_rank(
        static_cast<std::size_t>(gc.ranks));
    for (const auto& s : trace.spans()) {
        per_rank[static_cast<std::size_t>(s.rank)].push_back({s.begin, s.end});
    }
    for (auto& spans : per_rank) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12);
        }
    }
}

TEST_P(EngineFuzz, UnmatchedRecvCasesAlwaysDeadlock) {
    ck::GenConfig cfg;
    cfg.ranks = 4 + static_cast<int>(GetParam() % 11);
    cfg.deadlock = ck::DeadlockKind::unmatched_recv;
    const auto gc = ck::generate(GetParam() * 6151ul, cfg);
    auto placement = as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
    const as::Engine engine(aa::fulhame(), std::move(placement), 0.8);
    EXPECT_THROW((void)engine.run(gc.programs), armstice::util::DeadlockError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(1ul, 2ul, 3ul, 5ul, 8ul, 13ul, 21ul, 34ul,
                                           55ul, 89ul));
