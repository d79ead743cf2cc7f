// RankTable (sim/engine.hpp): per-rank results stored as maximal runs of
// bit-identical neighbours. Merging is by bit pattern, the table is
// canonical across every engine and schedule, its means add every rank in
// rank order, and a collapsed million-rank SPMD run is one run.

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
namespace ck = armstice::sim::check;

// The iterator's declared category holds, postfix ++ included.
static_assert(std::forward_iterator<as::RankTable::const_iterator>);

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const as::RankStats& a, const as::RankStats& b) {
    return same_bits(a.finish, b.finish) && same_bits(a.compute, b.compute) &&
           same_bits(a.recv_wait, b.recv_wait) &&
           same_bits(a.collective_wait, b.collective_wait) &&
           same_bits(a.injected_bytes, b.injected_bytes) &&
           a.msgs_sent == b.msgs_sent && a.msgs_received == b.msgs_received;
}

/// "" when both tables hold the same runs (first rank, length, stats bits).
std::string diff_runs(const as::RankTable& a, const as::RankTable& b) {
    if (a.runs() != b.runs()) {
        return "run count " + std::to_string(a.runs()) + " vs " + std::to_string(b.runs());
    }
    for (std::size_t k = 0; k < a.runs(); ++k) {
        const auto x = a.run(k);
        const auto y = b.run(k);
        if (x.first != y.first || x.length != y.length || !same_stats(x.stats, y.stats)) {
            return "run " + std::to_string(k) + " differs";
        }
    }
    return "";
}

/// Every read path of the table agrees with one per-rank array.
void expect_agrees(const as::RankTable& t, const std::vector<as::RankStats>& per_rank) {
    ASSERT_EQ(t.size(), per_rank.size());
    std::size_t r = 0;
    for (const auto& st : t) {
        ASSERT_LT(r, per_rank.size());
        EXPECT_TRUE(same_stats(st, per_rank[r])) << "iterator, rank " << r;
        EXPECT_TRUE(same_stats(t[r], per_rank[r])) << "operator[], rank " << r;
        ++r;
    }
    EXPECT_EQ(r, per_rank.size());
    EXPECT_EQ(static_cast<std::size_t>(std::ranges::distance(t.begin(), t.end())),
              per_rank.size());
    int next = 0;
    for (std::size_t k = 0; k < t.runs(); ++k) {
        const auto run = t.run(k);
        EXPECT_EQ(run.first, next) << "run " << k;
        EXPECT_GE(run.length, 1) << "run " << k;
        for (int i = run.first; i < run.first + run.length; ++i) {
            EXPECT_TRUE(same_stats(run.stats, per_rank[static_cast<std::size_t>(i)]))
                << "run " << k << ", rank " << i;
        }
        if (k > 0) {
            EXPECT_FALSE(same_stats(t.run(k - 1).stats, run.stats)) << "run " << k;
        }
        next = run.first + run.length;
    }
    EXPECT_EQ(static_cast<std::size_t>(next), per_rank.size());
}

TEST(RankTable, MergesOnlyBitIdenticalNeighbours) {
    as::RankStats a;
    a.finish = 2.0;
    a.compute = 0.0;
    a.msgs_sent = 3;
    a.msgs_received = 3;
    as::RankStats neg_zero = a;
    neg_zero.compute = -0.0;  // == 0.0 as a double, different bits
    as::RankStats one_more = a;
    one_more.msgs_received = 4;

    as::RankTable t;
    t.append(a);
    EXPECT_EQ(t.runs(), 1u);
    t.append(a, 2);
    EXPECT_EQ(t.runs(), 1u);
    t.append(neg_zero);
    t.append(a);
    t.append(one_more, 3);
    t.append(one_more);
    t.append(a);
    EXPECT_EQ(t.size(), 10u);
    EXPECT_EQ(t.runs(), 5u);
    expect_agrees(t, {a, a, a, neg_zero, a, one_more, one_more, one_more, one_more, a});

    // One rank per run: run k is rank k.
    as::RankTable singles;
    singles.append(a);
    singles.append(neg_zero);
    singles.append(a);
    EXPECT_EQ(singles.runs(), 3u);
    expect_agrees(singles, {a, neg_zero, a});

    as::RankTable empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.begin(), empty.end());
    EXPECT_THROW((void)empty[0], armstice::util::Error);
    EXPECT_THROW(empty.append(a, 0), armstice::util::Error);
}

/// Results of the generated cases, each produced five ways whose run lists
/// must agree: Engine with collapse on and off, two perturbed schedules, and
/// RefEngine. At os_noise = 0 neighbours often agree and runs get long.
struct Produced {
    std::string what;
    std::vector<as::RunResult> results;
};

std::vector<Produced> produce(int seeds) {
    std::vector<Produced> out;
    for (const double noise : {0.0, aa::ModelKnobs{}.os_noise}) {
        aa::ModelKnobs knobs;
        knobs.os_noise = noise;
        for (int seed = 1; seed <= seeds; ++seed) {
            const auto gc = ck::generate(static_cast<std::uint64_t>(seed));
            const auto placement = as::Placement::block(aa::fulhame().node, 2, gc.ranks, 1);
            const as::Engine eng(aa::fulhame(), placement, 0.8, knobs);
            const as::RefEngine ref(aa::fulhame(), placement, 0.8, knobs);
            const auto bundle = as::ProgramBundle::from(gc.programs);
            Produced p;
            p.what = "seed " + std::to_string(seed) + " os_noise " + std::to_string(noise);
            p.results.push_back(eng.run(bundle));
            as::RunOptions off;
            off.collapse = false;
            p.results.push_back(eng.run(bundle, off));
            for (const std::uint64_t s : {0x5eedULL, 0xc0deULL}) {
                as::RunOptions perturbed;
                perturbed.perturb_seed = s;
                p.results.push_back(eng.run(bundle, perturbed));
            }
            p.results.push_back(ref.run(gc.programs));
            out.push_back(std::move(p));
        }
    }
    return out;
}

TEST(RankTable, CanonicalAcrossEngines) {
    std::size_t merged = 0;  // results holding a run longer than one rank
    for (const auto& p : produce(40)) {
        const auto& base = p.results.front();
        std::vector<as::RankStats> per_rank(base.ranks.begin(), base.ranks.end());
        expect_agrees(base.ranks, per_rank);
        if (base.ranks.runs() < base.ranks.size()) ++merged;
        for (std::size_t i = 1; i < p.results.size(); ++i) {
            EXPECT_EQ(diff_runs(base.ranks, p.results[i].ranks), "")
                << p.what << ", producer " << i;
            EXPECT_EQ(ck::diff_results(base, p.results[i]), "")
                << p.what << ", producer " << i;
        }
    }
    EXPECT_GT(merged, 0u) << "no generated case merged neighbours";
}

TEST(RankTable, MeansAddEveryRankInOrder) {
    for (const auto& p : produce(20)) {
        for (const auto& res : p.results) {
            double compute = 0, recv = 0, coll = 0;
            for (const auto& r : res.ranks) {
                compute += r.compute;
                recv += r.recv_wait;
                coll += r.collective_wait;
            }
            const auto n = static_cast<double>(res.ranks.size());
            EXPECT_TRUE(same_bits(res.mean_compute(), compute / n)) << p.what;
            EXPECT_TRUE(same_bits(res.mean_recv_wait(), recv / n)) << p.what;
            EXPECT_TRUE(same_bits(res.mean_collective_wait(), coll / n)) << p.what;
        }
    }
    // A long run of one awkward value: add_repeat must take the same n
    // rounding steps as the loop.
    as::RunResult res;
    as::RankStats s;
    s.compute = 0.1;
    s.recv_wait = 1e-17;
    s.collective_wait = 3.0000000000000004;
    res.ranks.append(s, 100000);
    double compute = 0, recv = 0, coll = 0;
    for (const auto& r : res.ranks) {
        compute += r.compute;
        recv += r.recv_wait;
        coll += r.collective_wait;
    }
    EXPECT_TRUE(same_bits(res.mean_compute(), compute / 100000.0));
    EXPECT_TRUE(same_bits(res.mean_recv_wait(), recv / 100000.0));
    EXPECT_TRUE(same_bits(res.mean_collective_wait(), coll / 100000.0));
}

TEST(RankTable, MillionRankSpmdIsOneRun) {
    constexpr int kRanks = 1000000;
    am::ProgramSet ps(kRanks);
    aa::ComputePhase ph;
    ph.label = "spmv";
    ph.flops = 2.0 * 27.0 * 4096.0;
    ph.main_bytes = 12.0 * 27.0 * 4096.0;
    ph.pattern = aa::MemPattern::gather;
    ph.efficiency = 0.8;
    for (int it = 0; it < 3; ++it) {
        ps.compute(ph);
        ps.allreduce(8);
    }
    const auto bundle = ps.take_bundle();
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;
    const as::Engine eng(aa::fulhame(),
                         as::Placement::block(aa::fulhame().node, (kRanks + 63) / 64, kRanks, 1),
                         0.8, noiseless);
    const auto res = eng.run(bundle);
    EXPECT_EQ(res.ranks.runs(), 1u);
    EXPECT_EQ(res.ranks.size(), static_cast<std::size_t>(kRanks));
    EXPECT_EQ(res.collapse_classes, 1);
    const auto run = res.ranks.run(0);
    EXPECT_EQ(run.first, 0);
    EXPECT_EQ(run.length, kRanks);
    EXPECT_TRUE(same_bits(run.stats.finish, res.makespan));
    EXPECT_TRUE(same_bits(res.ranks[kRanks - 1].compute, run.stats.compute));
}

} // namespace
