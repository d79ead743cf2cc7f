// Pins the engine-internal contracts the scaling work relies on: the
// noise_sample(rank, op_index) stream (results are bit-identical only while
// this function is), the phase-label interner, ProgramBundle structural
// dedup, the take()/take_bundle() bit-identity promise and ProgramSet's class
// build (take_bundle() equals ProgramBundle::from(take())), and the
// distance-aware alltoall pricing (block vs round-robin placement).

#include "arch/system.hpp"
#include "net/collectives.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace aa = armstice::arch;
namespace an = armstice::net;
namespace as = armstice::sim;
namespace am = armstice::simmpi;

namespace {

aa::ComputePhase phase(const char* label, double flops, double bytes) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = bytes;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

// ---- noise_sample ----------------------------------------------------------

// The OS-noise stretch applied to compute op `pc` on rank `r` is
//   u  = (splitmix64(0x9e3779b97f4a7c15 ^ (r << 32) ^ pc) >> 11) * 2^-53
//   dt *= 1 + os_noise * min(8, -log1p(-u))
// Every golden in tests/engine/goldens bakes this stream in; changing the
// seed mix, the 53-bit mantissa draw, or the exponential clamp is a model
// change and must bump arch::kModelVersion.
TEST(NoiseSample, PinsExactFormula) {
    for (int rank : {0, 1, 47, 1023}) {
        for (std::size_t pc : {std::size_t{0}, std::size_t{1}, std::size_t{999},
                               std::size_t{1} << 40}) {
            std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                                  (static_cast<std::uint64_t>(rank) << 32) ^ pc;
            const double u =
                static_cast<double>(armstice::util::splitmix64(state) >> 11) *
                0x1.0p-53;
            const double expect = std::min(8.0, -std::log1p(-u));
            EXPECT_EQ(as::noise_sample(rank, pc), expect)
                << "rank " << rank << " pc " << pc;
        }
    }
}

TEST(NoiseSample, DeterministicAndBounded) {
    std::set<double> seen;
    for (int rank = 0; rank < 8; ++rank) {
        for (std::size_t pc = 0; pc < 64; ++pc) {
            const double v = as::noise_sample(rank, pc);
            EXPECT_EQ(v, as::noise_sample(rank, pc));  // pure function
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 8.0);
            seen.insert(v);
        }
    }
    // The stream must vary by rank AND op index — a collapse to a few values
    // would mean the seed mix lost one of its inputs.
    EXPECT_GT(seen.size(), 500u);
}

// ---- phase-label interner --------------------------------------------------

TEST(PhaseTable, EmptyLabelIsAlwaysKNoPhase) {
    EXPECT_EQ(as::intern_phase_label(""), as::kNoPhase);
    EXPECT_EQ(as::kNoPhase, 0u);
}

TEST(PhaseTable, StableIdsAndRoundTrip) {
    const as::PhaseId a = as::intern_phase_label("engine-internals-spmv");
    const as::PhaseId b = as::intern_phase_label("engine-internals-symgs");
    EXPECT_NE(a, b);
    EXPECT_EQ(as::intern_phase_label("engine-internals-spmv"), a);
    EXPECT_EQ(as::phase_table().str(a), "engine-internals-spmv");
    EXPECT_EQ(as::phase_table().str(b), "engine-internals-symgs");
}

// ---- ProgramBundle structural sharing --------------------------------------

TEST(ProgramBundle, DedupsStructurallyIdenticalPrograms) {
    // Ranks 0 and 2 run the same program built independently; rank 1 differs
    // in a send destination, rank 3 in a phase's flop count.
    auto make = [](int dst, double flops) {
        as::Program p;
        p.compute(phase("halo-pack", flops, 4096));
        p.send(dst, 1024, 7);
        p.recv(as::kAnySource, 7);
        p.allreduce(8);
        return p;
    };
    std::vector<as::Program> progs;
    progs.push_back(make(1, 100.0));
    progs.push_back(make(0, 100.0));
    progs.push_back(make(1, 100.0));
    progs.push_back(make(1, 101.0));

    const auto bundle = as::ProgramBundle::from(std::move(progs));
    EXPECT_EQ(bundle.ranks(), 4);
    EXPECT_EQ(bundle.distinct(), 3);
    EXPECT_EQ(&bundle.of(0), &bundle.of(2));  // shared storage, not a copy
    EXPECT_NE(&bundle.of(0), &bundle.of(1));
    EXPECT_NE(&bundle.of(0), &bundle.of(3));
}

TEST(ProgramBundle, SharedIsSingleProgram) {
    as::Program p;
    p.compute(phase("spmd", 10.0, 10.0)).barrier();
    const auto bundle =
        as::ProgramBundle::classes({std::move(p)}, std::vector<std::uint32_t>(48, 0));
    EXPECT_EQ(bundle.ranks(), 48);
    EXPECT_EQ(bundle.distinct(), 1);
    EXPECT_EQ(&bundle.of(0), &bundle.of(47));
}

TEST(ProgramBundle, EqualCostDifferentLabelStaysDistinct) {
    // Same numeric cost inputs under two labels must not merge: per-phase
    // attribution (RunResult::phase_compute) depends on the label id.
    as::Program a;
    a.compute(phase("jacobi-x", 5.0, 40.0));
    as::Program b;
    b.compute(phase("jacobi-y", 5.0, 40.0));
    std::vector<as::Program> progs;
    progs.push_back(std::move(a));
    progs.push_back(std::move(b));
    const auto bundle = as::ProgramBundle::from(std::move(progs));
    EXPECT_EQ(bundle.distinct(), 2);
}

// ---- take() vs take_bundle() bit-identity ----------------------------------

am::ProgramSet mixed_workload(int ranks, int iters) {
    // SPMD prefix, then a rank-dependent middle (splits the one class of
    // ranks), then more SPMD — exercises class sharing AND per-class appends.
    am::ProgramSet ps(ranks);
    ps.mark("mixed");
    for (int it = 0; it < iters; ++it) {
        ps.compute(phase("stencil", 2.5e6, 1.6e7));
        ps.compute_by_rank([&](int r) {
            return phase("tail", 1e5 * (1 + r % 3), 8e5);
        });
        ps.halo_exchange({{1}, {0}}, 32768.0);
        ps.allreduce(8);
    }
    return ps;
}

TEST(ProgramSetBundle, BitIdenticalToPerRankVector) {
    const int ranks = 2;
    const as::Engine engine(
        aa::a64fx(), as::Placement::block(aa::a64fx().node, 1, ranks, 1), 0.8,
        aa::ModelKnobs{});

    const auto res_vec = engine.run(mixed_workload(ranks, 5).take());
    const auto res_bun = engine.run(mixed_workload(ranks, 5).take_bundle());

    EXPECT_EQ(res_vec.makespan, res_bun.makespan);  // exact, not NEAR
    EXPECT_EQ(res_vec.total_flops, res_bun.total_flops);
    ASSERT_EQ(res_vec.ranks.size(), res_bun.ranks.size());
    for (std::size_t r = 0; r < res_vec.ranks.size(); ++r) {
        EXPECT_EQ(res_vec.ranks[r].compute, res_bun.ranks[r].compute);
        EXPECT_EQ(res_vec.ranks[r].recv_wait, res_bun.ranks[r].recv_wait);
        EXPECT_EQ(res_vec.ranks[r].collective_wait,
                  res_bun.ranks[r].collective_wait);
        EXPECT_EQ(res_vec.ranks[r].finish, res_bun.ranks[r].finish);
    }
    EXPECT_EQ(res_vec.phase_compute, res_bun.phase_compute);
}

// ---- class build vs the per-rank oracle -----------------------------------

/// A ProgramSet and, beside it, the per-rank programs the same ops build
/// when appended rank by rank through the plain Program API: the reference
/// the class build must reproduce. ProgramBundle::from(ref) is the oracle.
struct TwinBuild {
    explicit TwinBuild(int ranks) : set(ranks), ref(static_cast<std::size_t>(ranks)) {}

    void spmd(const std::function<void(am::ProgramSet&)>& on_set,
              const std::function<void(as::Program&)>& on_rank) {
        on_set(set);
        for (auto& p : ref) on_rank(p);
    }
    void compute_by_rank(const std::function<aa::ComputePhase(int)>& make_phase) {
        set.compute_by_rank(make_phase);
        for (std::size_t r = 0; r < ref.size(); ++r) {
            ref[r].compute(make_phase(static_cast<int>(r)));
        }
    }
    void halo(const std::vector<std::vector<int>>& nb,
              const std::vector<std::vector<double>>& bytes, int tag) {
        set.halo_exchange(nb, bytes, tag);
        for (std::size_t r = 0; r < ref.size(); ++r) {
            const int rank = static_cast<int>(r);
            for (std::size_t i = 0; i < nb[r].size(); ++i) {
                ref[r].send_rel(nb[r][i] - rank, bytes[r][i], tag);
            }
            for (const int n : nb[r]) ref[r].recv_rel(n - rank, tag);
        }
    }
    void halo(const std::vector<std::vector<int>>& nb, double bytes, int tag) {
        set.halo_exchange(nb, bytes, tag);
        for (std::size_t r = 0; r < ref.size(); ++r) {
            const int rank = static_cast<int>(r);
            for (const int n : nb[r]) ref[r].send_rel(n - rank, bytes, tag);
            for (const int n : nb[r]) ref[r].recv_rel(n - rank, tag);
        }
    }

    am::ProgramSet set;
    std::vector<as::Program> ref;
};

/// A seeded skeleton that interleaves every ProgramSet op: SPMD ops, uniform
/// and non-uniform compute_by_rank, Cartesian halos (periodic or not, and one
/// with a dimension of size 2), chain halos with inactive ranks, COSA-shaped
/// per-rank bytes, and repeated halos on one graph. Deterministic in
/// (ranks, seed), so it can be built twice.
TwinBuild seeded_build(int ranks, std::uint64_t seed) {
    armstice::util::Rng rng(seed);
    const auto pick = [&rng](int n) { return static_cast<int>(rng.next_below(n)); };
    const auto cart = am::cart_neighbors(am::dims_create(ranks, 1 + pick(3)), pick(2) == 1);
    const auto cart2 = ranks % 2 == 0
                           ? am::cart_neighbors({2, ranks / 2}, pick(2) == 1)
                           : am::cart_neighbors({ranks, 1}, true);
    const int active = 1 + pick(ranks);
    const auto chain = am::chain_neighbors(ranks, active);
    // COSA shape: blocks dealt round-robin over the active ranks, halo bytes
    // proportional to the blocks a rank owns.
    const int blocks = active + pick(2 * active + 1);
    std::vector<std::vector<double>> block_bytes(static_cast<std::size_t>(ranks));
    for (int r = 0; r < active; ++r) {
        const int owned = blocks / active + (r < blocks % active ? 1 : 0);
        block_bytes[static_cast<std::size_t>(r)].assign(
            chain[static_cast<std::size_t>(r)].size(), 640.0 * owned);
    }

    TwinBuild b(ranks);
    const int steps = 3 + pick(10);
    for (int s = 0; s < steps; ++s) {
        const int tag = pick(3);
        switch (pick(10)) {
            case 0: {
                const auto p = phase("spmd", 1e6 * (1 + pick(3)), 4e6);
                b.spmd([&](am::ProgramSet& ps) { ps.compute(p); },
                       [&](as::Program& pr) { pr.compute(p); });
                break;
            }
            case 1: {
                const double bytes = 8.0 * (1 + pick(4));
                const char* label = pick(2) ? "m-a" : "m-b";
                b.spmd([&](am::ProgramSet& ps) { ps.allreduce(bytes).mark(label); },
                       [&](as::Program& pr) { pr.allreduce(bytes).mark(label); });
                break;
            }
            case 2: {
                const double bytes = 256.0 * (1 + pick(2));
                b.spmd([&](am::ProgramSet& ps) { ps.barrier().alltoall(bytes); },
                       [&](as::Program& pr) { pr.barrier().alltoall(bytes); });
                break;
            }
            case 3:  // uniform: equal content built separately per rank
                b.compute_by_rank([](int) { return phase("uniform", 3e5, 2e6); });
                break;
            case 4: {  // non-uniform cost or label
                const int k = 1 + pick(5);
                const bool by_label = pick(2) == 1;
                b.compute_by_rank([k, by_label](int r) {
                    return by_label ? phase(r % k == 0 ? "even" : "odd", 5e5, 1e6)
                                    : phase("skew", 1e5 * (1 + r % k), 8e5);
                });
                break;
            }
            case 5: b.halo(cart, 4096.0 * (1 + pick(2)), tag); break;
            case 6: b.halo(cart2, 2048.0, tag); break;
            case 7: b.halo(chain, 1024.0, tag); break;
            case 8: b.halo(chain, block_bytes, tag); break;
            default:  // the same graph several times in a row
                for (int i = 0, n = 2 + pick(3); i < n; ++i) b.halo(cart, 512.0, tag);
                break;
        }
    }
    return b;
}

/// `got` must equal `want` exactly: the same programs, in the same order,
/// with the same rank index and the same phase pools.
void expect_same_bundle(const as::ProgramBundle& got, const as::ProgramBundle& want,
                        const std::string& what) {
    ASSERT_EQ(got.ranks(), want.ranks()) << what;
    ASSERT_EQ(got.distinct(), want.distinct()) << what;
    // Programs are numbered by first appearance in rank order, so the k-th
    // program to appear sits k programs past rank 0's in both bundles.
    std::vector<const as::Program*> got_seen, want_seen;
    for (int r = 0; r < got.ranks(); ++r) {
        const as::Program* g = &got.of(r);
        const as::Program* w = &want.of(r);
        const auto g_at = g - &got.of(0);
        const auto w_at = w - &want.of(0);
        ASSERT_EQ(g_at, w_at) << what << ": rank " << r;
        if (g_at == static_cast<std::ptrdiff_t>(got_seen.size())) {
            got_seen.push_back(g);
            want_seen.push_back(w);
        }
        ASSERT_LT(g_at, static_cast<std::ptrdiff_t>(got_seen.size()))
            << what << ": rank " << r << " runs a program out of first-appearance order";
    }
    ASSERT_EQ(static_cast<int>(got_seen.size()), got.distinct()) << what;
    for (std::size_t k = 0; k < got_seen.size(); ++k) {
        const as::Program& g = *got_seen[k];
        const as::Program& w = *want_seen[k];
        EXPECT_TRUE(g == w) << what << ": program " << k;
        EXPECT_EQ(g.phases, w.phases) << what << ": program " << k;
        for (std::size_t i = 0; i < g.ops.size() && i < w.ops.size(); ++i) {
            const auto* gc = std::get_if<as::ComputeOp>(&g.ops[i]);
            const auto* wc = std::get_if<as::ComputeOp>(&w.ops[i]);
            if (gc != nullptr && wc != nullptr) {
                EXPECT_EQ(gc->phase_idx, wc->phase_idx) << what << ": program " << k;
            }
        }
    }
}

TEST(ProgramSetClasses, BundleEqualsPerRankOracleOverSeededBuilds) {
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;  // the uniform-clock path; noise is in test_collapse*
    for (const int ranks : {1, 2, 7, 48, 125, 384}) {
        const as::Engine engine(
            aa::a64fx(),
            as::Placement::block(aa::a64fx().node, (ranks + 47) / 48, ranks, 1), 0.8,
            noiseless);
        for (std::uint64_t seed = 0; seed < 100; ++seed) {
            const std::string what =
                "ranks " + std::to_string(ranks) + " seed " + std::to_string(seed);
            TwinBuild a = seeded_build(ranks, seed);
            const as::ProgramBundle got = a.set.take_bundle();
            const as::ProgramBundle want = as::ProgramBundle::from(std::move(a.ref));
            expect_same_bundle(got, want, what);
            // take() expands the same classes: from(take()) is the same bundle.
            expect_same_bundle(got, as::ProgramBundle::from(seeded_build(ranks, seed).set.take()),
                               what + " (take)");
            if (::testing::Test::HasFatalFailure()) return;
            EXPECT_EQ(as::check::diff_results(engine.run(got), engine.run(want)), "")
                << what;
        }
    }
}

TEST(ProgramSetClasses, ScaleHaloShapeBundlesToTwentySevenPrograms) {
    // perfbench's `scale` halo: 100k ranks on a non-periodic 3D grid. Every
    // dimension has a low face, an interior and a high face, so 3^3 distinct
    // neighbour shapes; one iteration is enough to fix them.
    const int ranks = 100000;
    const auto neighbors = am::cart_neighbors(am::dims_create(ranks, 3), false);
    am::ProgramSet ps(ranks);
    ps.halo_exchange(neighbors, 8.0 * 16.0 * 16.0);
    ps.compute(phase("halo-spmv", 2.0 * 27.0 * 4096.0, 12.0 * 27.0 * 4096.0));
    ps.allreduce(8);
    EXPECT_FALSE(ps.spmd());
    EXPECT_EQ(ps.take_bundle().distinct(), 27);
}

TEST(ProgramSetClasses, ComputeByRankCallsMakePhaseOncePerRank) {
    am::ProgramSet ps(5);
    std::vector<int> calls;
    ps.compute_by_rank([&calls](int r) {
        calls.push_back(r);
        return phase("uniform", 1e3, 1e3);
    });
    EXPECT_EQ(calls, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(ps.spmd());
}

TEST(ProgramSetClasses, ThrowingMakePhaseLeavesTheSetUnchanged) {
    am::ProgramSet ps(4);
    ps.compute_by_rank([](int r) { return phase("split", 1e3 * (r % 2), 1e3); });
    EXPECT_THROW(ps.compute_by_rank([](int r) {
        if (r == 3) throw armstice::util::Error("make_phase failed");
        return phase("split-more", 1e3 * r, 1e3);
    }),
                 armstice::util::Error);
    ps.allreduce(8);
    const as::ProgramBundle got = ps.take_bundle();
    am::ProgramSet oracle(4);
    oracle.compute_by_rank([](int r) { return phase("split", 1e3 * (r % 2), 1e3); });
    oracle.allreduce(8);
    expect_same_bundle(got, as::ProgramBundle::from(oracle.take()), "after a throw");
}

TEST(ProgramBundle, ClassesRejectsAnOutOfRangeIndex) {
    std::vector<as::Program> two(2);
    EXPECT_EQ(as::ProgramBundle::classes(two, {0, 1, 1, 0}).distinct(), 2);
    EXPECT_THROW((void)as::ProgramBundle::classes(two, {0, 2}), armstice::util::Error);
}

// ---- distance-aware alltoall (block vs round-robin) ------------------------

TEST(AlltoallPlacement, RoundRobinPricesAboveBlock) {
    // 6 ranks on 4 Fulhame nodes. Block packs (2,2,2,-): every rank has a
    // co-resident partner, so one of the 5 pairwise rounds stays on-node.
    // Round-robin scatters (2,2,1,1): the ranks alone on nodes 2 and 3 cross
    // the fabric for all 5 rounds, and the collective finishes when they do.
    // The old uniform-round-split model priced both layouts identically.
    const auto& sys = aa::fulhame();
    const int nodes = 4, ranks = 6;

    am::ProgramSet ps_b(ranks), ps_r(ranks);
    ps_b.alltoall(4096);
    ps_r.alltoall(4096);

    const as::Engine block(sys, as::Placement::block(sys.node, nodes, ranks, 1),
                           0.8, aa::ModelKnobs{});
    const as::Engine rr(
        sys, as::Placement::round_robin(sys.node, nodes, ranks, 1), 0.8,
        aa::ModelKnobs{});

    const double t_block = block.run(ps_b.take_bundle()).makespan;
    const double t_rr = rr.run(ps_r.take_bundle()).makespan;
    EXPECT_GT(t_rr, t_block);

    // Same contrast straight at the model: min occupancy 1 vs 2 with every
    // other layout field equal.
    const an::CollectiveModel coll(block.network());
    EXPECT_GT(coll.alltoall({4, 2, 6, 1}, 4096.0),
              coll.alltoall({3, 2, 6, 2}, 4096.0));
}

} // namespace
