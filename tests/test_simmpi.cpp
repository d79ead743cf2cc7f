// Tests of the MiniMpi program-builder facade and its decomposition helpers.

#include "simmpi/minimpi.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
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

TEST(CartNeighbors, NonPeriodicCounts) {
    // 3x3 grid: corner 2, edge 3, centre 4 neighbours.
    const auto nb = am::cart_neighbors({3, 3}, false);
    EXPECT_EQ(nb[0].size(), 2u);
    EXPECT_EQ(nb[1].size(), 3u);
    EXPECT_EQ(nb[4].size(), 4u);
}

TEST(CartNeighbors, PeriodicUniformCounts) {
    const auto nb = am::cart_neighbors({4, 4}, true);
    for (const auto& v : nb) EXPECT_EQ(v.size(), 4u);
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
            const auto nb = am::cart_neighbors(dims, periodic);
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
    EXPECT_EQ(nb[0].size(), 1u);  // rank 1 appears once, not twice
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
    ps.halo_exchange({{1}, {0}}, 1e3);
    const auto progs = ps.take();
    ASSERT_EQ(progs[0].ops.size(), 2u);
    EXPECT_TRUE(std::holds_alternative<as::SendOp>(progs[0].ops[0]));
    EXPECT_TRUE(std::holds_alternative<as::RecvOp>(progs[0].ops[1]));
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[0].ops[0]).bytes, 1e3);
}

TEST(ProgramSet, HaloExchangeAsymmetricBytes) {
    am::ProgramSet ps(2);
    ps.halo_exchange({{1}, {0}}, {{100.0}, {900.0}});
    const auto progs = ps.take();
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[0].ops[0]).bytes, 100.0);
    EXPECT_DOUBLE_EQ(std::get<as::SendOp>(progs[1].ops[0]).bytes, 900.0);
}

TEST(ProgramSet, AsymmetricHaloGraphRejected) {
    am::ProgramSet ps(3);
    // 0 -> 1 but 1 does not list 0.
    EXPECT_THROW(ps.halo_exchange({{1}, {2}, {1}}, 1.0), armstice::util::Error);
}

TEST(ProgramSet, HaloSizesMustMatchRanks) {
    am::ProgramSet ps(2);
    EXPECT_THROW(ps.halo_exchange({{1}}, 1.0), armstice::util::Error);
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
