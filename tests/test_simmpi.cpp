// Tests of the MiniMpi program-builder facade and its decomposition helpers.

#include "simmpi/minimpi.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace am = armstice::simmpi;
namespace as = armstice::sim;

TEST(Chunks, PartitionCoversExactly) {
    for (long n : {0L, 1L, 7L, 100L, 9573984L}) {
        for (int p : {1, 2, 3, 7, 48}) {
            long total = 0;
            for (int i = 0; i < p; ++i) total += am::chunk_size(n, p, i);
            EXPECT_EQ(total, n);
            // begins are consistent with sizes.
            for (int i = 0; i + 1 < p; ++i) {
                EXPECT_EQ(am::chunk_begin(n, p, i) + am::chunk_size(n, p, i),
                          am::chunk_begin(n, p, i + 1));
            }
        }
    }
}

TEST(Chunks, BalancedWithinOne) {
    for (int i = 0; i < 7; ++i) {
        const long s = am::chunk_size(100, 7, i);
        EXPECT_GE(s, 14);
        EXPECT_LE(s, 15);
    }
}

TEST(Chunks, BadIndicesThrow) {
    EXPECT_THROW(am::chunk_size(10, 0, 0), armstice::util::Error);
    EXPECT_THROW(am::chunk_size(10, 2, 2), armstice::util::Error);
    EXPECT_THROW(am::chunk_begin(10, 2, -1), armstice::util::Error);
}

TEST(DimsCreate, ProductEqualsRanks) {
    for (int p : {1, 2, 6, 48, 96, 768, 1024}) {
        const auto dims = am::dims_create(p, 3);
        EXPECT_EQ(dims.size(), 3u);
        EXPECT_EQ(dims[0] * dims[1] * dims[2], p);
        EXPECT_GE(dims[0], dims[1]);
        EXPECT_GE(dims[1], dims[2]);
    }
}

TEST(DimsCreate, NearCubicFor48) {
    const auto dims = am::dims_create(48, 3);
    EXPECT_LE(dims[0], 4);  // 4x4x3, not 48x1x1
}

namespace {

/// Every rank's neighbour list, in order.
std::vector<std::vector<int>> lists(const am::HaloGraph& g) {
    std::vector<std::vector<int>> out;
    for (int r = 0; r < g.ranks(); ++r) {
        const auto nb = g.neighbors(r);
        out.emplace_back(nb.begin(), nb.end());
    }
    return out;
}

} // namespace

TEST(CartNeighbors, NonPeriodicCounts) {
    // 3x3 grid: corner 2, edge 3, centre 4 neighbours.
    const auto nb = am::cart_neighbors({3, 3}, false);
    EXPECT_EQ(nb.neighbors(0).size(), 2u);
    EXPECT_EQ(nb.neighbors(1).size(), 3u);
    EXPECT_EQ(nb.neighbors(4).size(), 4u);
}

TEST(CartNeighbors, PeriodicUniformCounts) {
    const auto nb = am::cart_neighbors({4, 4}, true);
    ASSERT_EQ(nb.ranks(), 16);
    for (int r = 0; r < nb.ranks(); ++r) EXPECT_EQ(nb.neighbors(r).size(), 4u);
    // Offsets wrap at each end of a periodic dim: low end, interior and high
    // end per dim, so 3 x 3 shapes.
    EXPECT_EQ(nb.shapes(), 9);
}

namespace {

/// Brute-force oracle over every rank pair: q neighbours r iff their
/// coordinates differ along exactly one dim, by one step (or by d - 1, the
/// wrap, when periodic). Lists come out ascending.
std::vector<std::vector<int>> enumerate_neighbors(const std::vector<int>& dims,
                                                  bool periodic) {
    const int p = std::accumulate(dims.begin(), dims.end(), 1, std::multiplies<>());
    auto coords = [&](int rank) {
        std::vector<int> c;
        for (const int d : dims) {
            c.push_back(rank % d);
            rank /= d;
        }
        return c;
    };
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
        const auto cr = coords(r);
        for (int q = 0; q < p; ++q) {
            const auto cq = coords(q);
            int differing = 0;
            bool one_step = true;
            for (std::size_t i = 0; i < dims.size(); ++i) {
                if (cr[i] == cq[i]) continue;
                ++differing;
                const int gap = std::abs(cr[i] - cq[i]);
                one_step = one_step && (gap == 1 || (periodic && gap == dims[i] - 1));
            }
            if (differing == 1 && one_step) out[static_cast<std::size_t>(r)].push_back(q);
        }
    }
    return out;
}

} // namespace

TEST(CartNeighbors, SymmetricGraph) {
    for (const std::vector<int>& dims : {std::vector<int>{3, 4, 2}, std::vector<int>{2, 1, 1}}) {
        for (bool periodic : {false, true}) {
            const auto g = am::cart_neighbors(dims, periodic);
            const auto nb = lists(g);
            EXPECT_EQ(nb, enumerate_neighbors(dims, periodic))
                << dims[0] << "x" << dims[1] << "x" << dims[2] << " periodic=" << periodic;
            for (std::size_t r = 0; r < nb.size(); ++r) {
                for (int n : nb[r]) {
                    const auto& back = nb[static_cast<std::size_t>(n)];
                    EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(r)),
                              back.end());
                }
            }
        }
    }
}

TEST(CartNeighbors, PeriodicSizeTwoDimDeduplicated) {
    const auto nb = am::cart_neighbors({2, 1, 1}, true);
    EXPECT_EQ(nb.neighbors(0).size(), 1u);  // rank 1 appears once, not twice
}

TEST(CartNeighbors, RankCountAboveIntMaxRejected) {
    // 65536^2 = 2^32 overflows int. Each product is rejected before
    // anything is allocated.
    EXPECT_THROW((void)am::cart_neighbors({65536, 65536}, false), armstice::util::Error);
    EXPECT_THROW((void)am::cart_neighbors({46341, 46341}, true), armstice::util::Error);
    EXPECT_THROW((void)am::cart_neighbors({2, 1 << 30}, false), armstice::util::Error);
    EXPECT_THROW((void)am::cart_neighbors({1 << 16, 1 << 16, 2}, false),
                 armstice::util::Error);
    EXPECT_THROW((void)am::cart_neighbors({3, 0}, false), armstice::util::Error);
}

TEST(ChainNeighbors, InactiveRanksHaveNoNeighbours) {
    const auto g = am::chain_neighbors(6, 4);
    EXPECT_EQ(lists(g), (std::vector<std::vector<int>>{{1}, {0, 2}, {1, 3}, {2}, {}, {}}));
    EXPECT_EQ(g.shapes(), 4);  // low end, interior, high end, inactive
    EXPECT_THROW((void)am::chain_neighbors(3, 4), armstice::util::Error);
    EXPECT_THROW((void)am::chain_neighbors(0), armstice::util::Error);
}

// The constructor from lists is explicit: a raw list never turns into a
// graph (and is never re-checked) behind a halo_exchange call.
static_assert(!std::is_convertible_v<std::vector<std::vector<int>>, am::HaloGraph>);

TEST(HaloGraph, NeighborOutOfRangeRejected) {
    EXPECT_THROW(am::HaloGraph({{2}, {0}}), armstice::util::Error);
    EXPECT_THROW(am::HaloGraph({{-1}, {}}), armstice::util::Error);
}

TEST(HaloGraph, NeighborListedTwiceRejected) {
    // Every back edge of {{1, 1}, {0}} exists, but the exchange deadlocks:
    // rank 0 waits for a second message rank 1 never sends.
    EXPECT_THROW(am::HaloGraph({{1, 1}, {0}}), armstice::util::Error);
    EXPECT_THROW(am::HaloGraph({{1, 1}, {0, 0}}), armstice::util::Error);
    EXPECT_THROW(am::HaloGraph({{1, 2, 1}, {0}, {0}}), armstice::util::Error);
}

namespace {

/// Two ranks share a shape id iff their ordered offset lists are equal, and
/// shape ids are numbered by first appearance in rank order, each one's
/// representative being its lowest rank.
void expect_shapes_match_offsets(const am::HaloGraph& g, const std::string& what) {
    std::map<std::vector<int>, std::uint32_t> id_of;
    std::uint32_t next = 0;
    for (int r = 0; r < g.ranks(); ++r) {
        std::vector<int> offsets;
        for (const int n : g.neighbors(r)) offsets.push_back(n - r);
        const auto [it, added] = id_of.try_emplace(offsets, g.shape_of(r));
        EXPECT_EQ(it->second, g.shape_of(r)) << what << ": rank " << r;
        if (added) {
            EXPECT_EQ(g.shape_of(r), next) << what << ": rank " << r;
            EXPECT_EQ(g.representative(next), r) << what;
            ++next;
        }
    }
    // One id per distinct offset list, so distinct lists never share an id.
    EXPECT_EQ(static_cast<int>(id_of.size()), g.shapes()) << what;
    EXPECT_EQ(static_cast<int>(next), g.shapes()) << what;
}

} // namespace

TEST(HaloGraph, ShapeIdsMatchOffsetListsOverSeededGraphs) {
    armstice::util::Rng rng(0x6a10);
    const auto pick = [&rng](int n) { return static_cast<int>(rng.next_below(n)); };
    // Fixed Cartesian cases with size-1 and size-2 dimensions.
    for (const std::vector<int>& dims :
         {std::vector<int>{2, 1, 3}, std::vector<int>{1, 1, 1}, std::vector<int>{2, 2, 2},
          std::vector<int>{5, 1}, std::vector<int>{1, 4, 2}}) {
        for (const bool periodic : {false, true}) {
            const auto g = am::cart_neighbors(dims, periodic);
            EXPECT_EQ(lists(g), enumerate_neighbors(dims, periodic));
            expect_shapes_match_offsets(g, "cart fixed");
        }
    }
    for (int trial = 0; trial < 60; ++trial) {
        const std::string what = "trial " + std::to_string(trial);
        // Cartesian, 1-3 dims of extent 1-5, periodic or not.
        std::vector<int> dims(static_cast<std::size_t>(1 + pick(3)));
        for (int& d : dims) d = 1 + pick(5);
        const bool periodic = pick(2) == 1;
        const auto cart = am::cart_neighbors(dims, periodic);
        EXPECT_EQ(lists(cart), enumerate_neighbors(dims, periodic)) << what;
        expect_shapes_match_offsets(cart, what + " cart");

        // Chains with inactive ranks (active in [-1, ranks]).
        const int ranks = 1 + pick(40);
        const int active = pick(ranks + 2) - 1;
        const auto chain = am::chain_neighbors(ranks, active);
        const int live = active < 0 ? ranks : active;
        for (int r = 0; r < ranks; ++r) {
            std::vector<int> want;
            if (r < live && r > 0) want.push_back(r - 1);
            if (r + 1 < live) want.push_back(r + 1);
            const auto got = chain.neighbors(r);
            EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want) << what << " rank " << r;
        }
        expect_shapes_match_offsets(chain, what + " chain");

        // A hand-built ring, successor first.
        const int n = 3 + pick(30);
        std::vector<std::vector<int>> ring(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            ring[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
        }
        const am::HaloGraph ring_graph(ring);
        EXPECT_EQ(lists(ring_graph), ring) << what;
        EXPECT_EQ(ring_graph.shapes(), 3) << what;  // rank 0, the interior, rank n-1
        expect_shapes_match_offsets(ring_graph, what + " ring");

        // A random symmetric graph, lists in random order.
        const int m = 1 + pick(24);
        std::vector<std::set<int>> adj(static_cast<std::size_t>(m));
        for (int e = pick(3 * m); e > 0; --e) {
            const int a = pick(m);
            const int b = pick(m);
            adj[static_cast<std::size_t>(a)].insert(b);
            adj[static_cast<std::size_t>(b)].insert(a);
        }
        std::vector<std::vector<int>> random(static_cast<std::size_t>(m));
        for (int r = 0; r < m; ++r) {
            auto& v = random[static_cast<std::size_t>(r)];
            v.assign(adj[static_cast<std::size_t>(r)].begin(),
                     adj[static_cast<std::size_t>(r)].end());
            for (std::size_t i = v.size(); i > 1; --i) {
                std::swap(v[i - 1], v[static_cast<std::size_t>(pick(static_cast<int>(i)))]);
            }
        }
        const am::HaloGraph random_graph(random);
        EXPECT_EQ(lists(random_graph), random) << what;
        expect_shapes_match_offsets(random_graph, what + " random");
    }
}

TEST(ProgramSet, SpmdHelpersHitEveryRank) {
    am::ProgramSet ps(3);
    armstice::arch::ComputePhase phase;
    phase.flops = 10;
    ps.mark("m").compute(phase).allreduce(8).barrier().alltoall(16);
    const auto progs = ps.take();
    for (const auto& p : progs) {
        EXPECT_EQ(p.ops.size(), 5u);
        EXPECT_DOUBLE_EQ(p.total_flops(), 10.0);
    }
}

TEST(ProgramSet, ComputeByRankVaries) {
    am::ProgramSet ps(4);
    ps.compute_by_rank([](int r) {
        armstice::arch::ComputePhase p;
        p.flops = 100.0 * r;
        return p;
    });
    auto progs = ps.take();
    EXPECT_DOUBLE_EQ(progs[0].total_flops(), 0.0);
    EXPECT_DOUBLE_EQ(progs[3].total_flops(), 300.0);
}

TEST(ProgramSet, HaloExchangeEmitsSendsThenRecvs) {
    am::ProgramSet ps(2);
    ps.halo_exchange(am::HaloGraph({{1}, {0}}), 1e3);
    const auto progs = ps.take();
    ASSERT_EQ(progs[0].ops.size(), 2u);
    EXPECT_TRUE(std::holds_alternative<as::SendOp>(progs[0].ops[0]));
    EXPECT_TRUE(std::holds_alternative<as::RecvOp>(progs[0].ops[1]));
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[0].ops[0]).bytes, 1e3);
}

TEST(ProgramSet, HaloExchangeAsymmetricBytes) {
    am::ProgramSet ps(2);
    ps.halo_exchange(am::HaloGraph({{1}, {0}}), std::vector<double>{100.0, 900.0});
    const auto progs = ps.take();
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[0].ops[0]).bytes, 100.0);
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[1].ops[0]).bytes, 900.0);
}

TEST(ProgramSet, AsymmetricHaloGraphRejected) {
    // 0 -> 1 but 1 does not list 0.
    EXPECT_THROW(am::HaloGraph({{1}, {2}, {1}}), armstice::util::Error);
}

TEST(ProgramSet, HaloSizesMustMatchRanks) {
    am::ProgramSet ps(2);
    EXPECT_THROW(ps.halo_exchange(am::HaloGraph(std::vector<std::vector<int>>(1)), 1.0),
                 armstice::util::Error);
    EXPECT_THROW(ps.halo_exchange(am::chain_neighbors(3), 1.0), armstice::util::Error);
    const am::HaloGraph pair({{1}, {0}});
    EXPECT_THROW(ps.halo_exchange(pair, std::vector<double>{1.0}), armstice::util::Error);
    EXPECT_THROW(ps.halo_exchange(pair, std::vector<double>{1.0, 2.0, 3.0}),
                 armstice::util::Error);
    // A rejected call appends nothing.
    ps.halo_exchange(pair, 8.0);
    for (const auto& p : ps.take()) EXPECT_EQ(p.ops.size(), 2u);
}

TEST(ProgramSet, BadRankAccessThrows) {
    EXPECT_THROW(am::ProgramSet(0), armstice::util::Error);
}

TEST(Program, TotalsCountOnlyComputeOps) {
    as::Program p;
    armstice::arch::ComputePhase phase;
    phase.flops = 5;
    phase.main_bytes = 7;
    p.compute(phase).send(0, 100).allreduce(8).compute(phase);
    EXPECT_DOUBLE_EQ(p.total_flops(), 10.0);
    EXPECT_DOUBLE_EQ(p.total_main_bytes(), 14.0);
}
