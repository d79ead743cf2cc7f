// Tests of rank/thread placement and the memory-capacity model.

#include "arch/system.hpp"
#include "sim/placement.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace as = armstice::sim;
namespace aa = armstice::arch;
namespace au = armstice::util;

TEST(Placement, BlockFillsNodesInOrder) {
    const auto p = as::Placement::block(aa::a64fx().node, 2, 96, 1);
    EXPECT_EQ(p.ranks(), 96);
    EXPECT_EQ(p.nodes(), 2);
    EXPECT_EQ(p.loc(0).node, 0);
    EXPECT_EQ(p.loc(47).node, 0);
    EXPECT_EQ(p.loc(48).node, 1);
    EXPECT_EQ(p.ranks_on_node(0), 48);
    EXPECT_EQ(p.ranks_on_node(1), 48);
}

TEST(Placement, DomainsFollowCmgBoundaries) {
    // A64FX: 4 CMGs x 12 cores.
    const auto p = as::Placement::block(aa::a64fx().node, 1, 48, 1);
    EXPECT_EQ(p.loc(0).first_domain, 0);
    EXPECT_EQ(p.loc(11).first_domain, 0);
    EXPECT_EQ(p.loc(12).first_domain, 1);
    EXPECT_EQ(p.loc(47).first_domain, 3);
    for (int d = 0; d < 4; ++d) EXPECT_EQ(p.streams_on_domain(0, d), 12);
}

TEST(Placement, ThreadsOccupyConsecutiveCores) {
    const auto p = as::Placement::block(aa::a64fx().node, 1, 4, 12);
    // Each rank owns one whole CMG.
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(p.loc(r).first_domain, r);
        EXPECT_EQ(p.loc(r).domains_spanned, 1);
    }
}

TEST(Placement, WideRanksSpanDomains) {
    const auto p = as::Placement::block(aa::a64fx().node, 1, 2, 24);
    EXPECT_EQ(p.loc(0).domains_spanned, 2);
    EXPECT_EQ(p.loc(1).first_domain, 2);
    EXPECT_EQ(p.streams_on_domain(0, 0), 12);
}

TEST(Placement, OversubscriptionThrows) {
    EXPECT_THROW(as::Placement::block(aa::a64fx().node, 1, 49, 1),
                 armstice::util::Error);
    EXPECT_THROW(as::Placement::block(aa::a64fx().node, 2, 10, 12),
                 armstice::util::Error);  // 5 ranks x 12 threads > 48 cores
}

TEST(Placement, UnderPopulationAllowed) {
    const auto p = as::Placement::block(aa::fulhame().node, 2, 48, 1);
    EXPECT_EQ(p.ranks_on_node(0), 24);
    EXPECT_EQ(p.streams_on_domain(0, 0), 24);  // block fill: socket 0 first
    EXPECT_EQ(p.streams_on_domain(0, 1), 0);
}

TEST(Placement, ExecContextCarriesContention) {
    const auto p = as::Placement::block(aa::ngio().node, 1, 48, 1);
    const auto ctx = p.exec_context(0, 0.8);
    EXPECT_EQ(ctx.streams_on_domain, 24);
    EXPECT_EQ(ctx.threads, 1);
    EXPECT_DOUBLE_EQ(ctx.vec_quality, 0.8);
    EXPECT_EQ(ctx.cpu, &aa::ngio().node.cpu);
}

TEST(Placement, CapacityAcceptsAndRejects) {
    const auto p = as::Placement::block(aa::a64fx().node, 1, 48, 1);
    EXPECT_NO_THROW(p.check_capacity(0.5e9));  // 24 GB total
    EXPECT_THROW(p.check_capacity(1.0e9), armstice::util::CapacityError);  // 48 GB
}

TEST(Placement, CapacityErrorIsDescriptive) {
    const auto p = as::Placement::block(aa::a64fx().node, 1, 48, 1);
    try {
        p.check_capacity(1.0e9);
        FAIL();
    } catch (const armstice::util::CapacityError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("48 ranks"), std::string::npos);
        EXPECT_NE(msg.find("GB"), std::string::npos);
    }
}

TEST(Placement, BadArgumentsThrow) {
    EXPECT_THROW(as::Placement::block(aa::a64fx().node, 0, 1, 1), armstice::util::Error);
    EXPECT_THROW(as::Placement::block(aa::a64fx().node, 1, 0, 1), armstice::util::Error);
    EXPECT_THROW(as::Placement::block(aa::a64fx().node, 1, 1, 0), armstice::util::Error);
    const auto p = as::Placement::block(aa::a64fx().node, 1, 4, 1);
    EXPECT_THROW((void)p.loc(4), armstice::util::Error);
    EXPECT_THROW((void)p.loc(-1), armstice::util::Error);
    EXPECT_THROW((void)p.ranks_on_node(1), armstice::util::Error);
    EXPECT_THROW(p.check_capacity(-1.0), armstice::util::Error);
}

TEST(Placement, RoundRobinScattersAcrossNodesAndDomains) {
    const auto p = as::Placement::round_robin(aa::a64fx().node, 2, 8, 1);
    // Ranks alternate nodes; within a node they cycle the 4 CMGs.
    EXPECT_EQ(p.loc(0).node, 0);
    EXPECT_EQ(p.loc(1).node, 1);
    EXPECT_EQ(p.ranks_on_node(0), 4);
    EXPECT_EQ(p.ranks_on_node(1), 4);
    for (int d = 0; d < 4; ++d) EXPECT_EQ(p.streams_on_domain(0, d), 1);
}

TEST(Placement, RoundRobinReducesContentionVsBlock) {
    // 6 ranks on one A64FX node: block packs them on CMG 0; scatter gives
    // at most 2 per CMG.
    const auto block = as::Placement::block(aa::a64fx().node, 1, 6, 1);
    const auto scatter = as::Placement::round_robin(aa::a64fx().node, 1, 6, 1);
    EXPECT_EQ(block.streams_on_domain(0, 0), 6);
    EXPECT_EQ(scatter.streams_on_domain(0, 0), 2);
    EXPECT_EQ(scatter.streams_on_domain(0, 3), 1);
}

TEST(Placement, RoundRobinOversubscriptionThrows) {
    EXPECT_THROW(as::Placement::round_robin(aa::a64fx().node, 2, 97, 1),
                 armstice::util::Error);
    // Thread blocks that straddle a CMG boundary collide under scatter.
    EXPECT_NO_THROW(as::Placement::round_robin(aa::a64fx().node, 1, 8, 6));
}

class PlacementSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlacementSweep, StreamsSumToRanksTimesThreads) {
    const auto [nodes, ranks, threads] = GetParam();
    const auto& node = aa::fulhame().node;
    if ((ranks + nodes - 1) / nodes * threads > node.cores()) GTEST_SKIP();
    const auto p = as::Placement::block(node, nodes, ranks, threads);
    int total = 0;
    for (int n = 0; n < nodes; ++n) {
        for (int d = 0; d < node.mem_domains(); ++d) {
            total += p.streams_on_domain(n, d);
        }
    }
    EXPECT_EQ(total, ranks * threads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlacementSweep,
    ::testing::Values(std::tuple{1, 64, 1}, std::tuple{1, 32, 2}, std::tuple{2, 64, 2},
                      std::tuple{4, 256, 1}, std::tuple{3, 7, 5}, std::tuple{2, 2, 32},
                      std::tuple{1, 1, 64}));

TEST(Placement, RoundRobinDoublePinNamesNodeAndCore) {
    // Slot 4 of node 0 starts at core 8 and its 8 threads reach core 12,
    // which slot 1 (cores 12-19) already holds.
    try {
        (void)as::Placement::round_robin(aa::a64fx().node, 1, 8, 8);
        FAIL() << "no throw";
    } catch (const au::Error& e) {
        EXPECT_NE(std::string(e.what()).find("placement pins two ranks to node 0 core 12"),
                  std::string::npos)
            << e.what();
    }
}

namespace {

/// The per-rank placement walk the slot table replaced, kept as the oracle:
/// one RankLoc per rank, a core bitmap per node, a stream count per (node,
/// domain), each rank checked in rank order.
struct OraclePlacement {
    std::vector<as::RankLoc> locs;
    std::vector<std::vector<int>> streams;
    std::vector<int> occupancy;
};

OraclePlacement oracle_build(const aa::NodeSpec& node, int nodes, int ranks,
                             int threads_per_rank,
                             const std::function<std::pair<int, int>(int)>& assign) {
    ARMSTICE_CHECK(nodes >= 1, "placement needs >=1 node");
    ARMSTICE_CHECK(ranks >= 1, "placement needs >=1 rank");
    ARMSTICE_CHECK(threads_per_rank >= 1, "placement needs >=1 thread per rank");
    node.validate();

    OraclePlacement p;
    p.locs.resize(static_cast<std::size_t>(ranks));
    p.streams.assign(static_cast<std::size_t>(nodes),
                     std::vector<int>(static_cast<std::size_t>(node.mem_domains()), 0));
    p.occupancy.assign(static_cast<std::size_t>(nodes), 0);

    const int cores_per_node = node.cores();
    const int cpd = node.cores_per_domain();
    std::vector<std::vector<char>> used(
        static_cast<std::size_t>(nodes),
        std::vector<char>(static_cast<std::size_t>(cores_per_node), 0));
    for (int r = 0; r < ranks; ++r) {
        const auto [n, first_core] = assign(r);
        ARMSTICE_CHECK(n >= 0 && n < nodes, "placement node out of range");
        ARMSTICE_CHECK(first_core >= 0 &&
                           first_core + threads_per_rank <= cores_per_node,
                       au::format("placement oversubscribes cores: rank %d at core"
                                  " %d x %d threads on %d-core nodes",
                                  r, first_core, threads_per_rank, cores_per_node));
        as::RankLoc loc;
        loc.node = n;
        loc.first_core = first_core;
        loc.first_domain = loc.first_core / cpd;
        const int last_domain = (loc.first_core + threads_per_rank - 1) / cpd;
        loc.domains_spanned = last_domain - loc.first_domain + 1;
        p.locs[static_cast<std::size_t>(r)] = loc;
        p.occupancy[static_cast<std::size_t>(n)] += 1;
        for (int t = 0; t < threads_per_rank; ++t) {
            const int core = loc.first_core + t;
            auto& cell = used[static_cast<std::size_t>(n)][static_cast<std::size_t>(core)];
            ARMSTICE_CHECK(!cell, au::format("placement pins two ranks to node %d"
                                             " core %d", n, core));
            cell = 1;
            p.streams[static_cast<std::size_t>(loc.node)]
                     [static_cast<std::size_t>(core / cpd)] += 1;
        }
    }
    return p;
}

OraclePlacement oracle_block(const aa::NodeSpec& node, int nodes, int ranks, int threads) {
    const int per_node = (ranks + nodes - 1) / nodes;
    return oracle_build(node, nodes, ranks, threads, [&](int r) {
        return std::pair<int, int>{r / per_node, (r % per_node) * threads};
    });
}

OraclePlacement oracle_round_robin(const aa::NodeSpec& node, int nodes, int ranks,
                                   int threads) {
    const int domains = node.mem_domains();
    const int cpd = node.cores_per_domain();
    return oracle_build(node, nodes, ranks, threads, [&](int r) {
        const int i = r / nodes;
        const int first_core = (i % domains) * cpd + (i / domains) * threads;
        return std::pair<int, int>{r % nodes, first_core};
    });
}

/// The text after the check's em dash: the description, without the
/// file:line prefix and the checked expression.
std::string description(const std::string& what) {
    const std::string dash = "— ";
    const auto at = what.rfind(dash);
    return at == std::string::npos ? what : what.substr(at + dash.size());
}

/// Runs `f`; returns the error description it threw, or nullopt.
template <typename F>
std::optional<std::string> thrown(F&& f) {
    try {
        f();
    } catch (const au::Error& e) {
        return description(e.what());
    }
    return std::nullopt;
}

} // namespace

TEST(PlacementOracle, SlotTableMatchesPerRankWalk) {
    au::Rng rng(0x51077ab1e);
    const auto& catalog = aa::system_catalog();
    int accepted = 0, rejected = 0, double_pinned = 0, fewer_ranks_than_nodes = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        const aa::NodeSpec& node = catalog[rng.next_below(catalog.size())].node;
        const int cores = node.cores();
        const int nodes = 1 + static_cast<int>(rng.next_below(9));
        // Threads mostly divide a domain, sometimes anything up to the node.
        const int threads = rng.next_below(3) == 0
                                ? 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cores)))
                                : 1 + static_cast<int>(rng.next_below(
                                          static_cast<std::uint64_t>(node.cores_per_domain())));
        // Up to ~1.3x what fits, so some cases oversubscribe.
        const int fit = nodes * std::max(1, cores / threads);
        const int ranks = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(fit + fit / 3 + 1)));
        const bool rr = rng.next_below(2) == 1;
        const std::string what = au::format("iter %d: %s %d nodes x %d ranks x %d threads",
                                            iter, rr ? "round_robin" : "block", nodes,
                                            ranks, threads);

        std::optional<OraclePlacement> want;
        const auto want_err = thrown([&] {
            want = rr ? oracle_round_robin(node, nodes, ranks, threads)
                      : oracle_block(node, nodes, ranks, threads);
        });
        std::optional<as::Placement> got;
        const auto got_err = thrown([&] {
            got = rr ? as::Placement::round_robin(node, nodes, ranks, threads)
                     : as::Placement::block(node, nodes, ranks, threads);
        });
        ASSERT_EQ(got_err, want_err) << what;
        if (want_err) {
            ++rejected;
            if (want_err->find("pins two ranks") != std::string::npos) ++double_pinned;
            continue;
        }
        ++accepted;
        if (ranks < nodes) ++fewer_ranks_than_nodes;

        ASSERT_EQ(got->ranks(), ranks) << what;
        for (int r = 0; r < ranks; ++r) {
            const as::RankLoc a = got->loc(r);
            const as::RankLoc& b = want->locs[static_cast<std::size_t>(r)];
            ASSERT_EQ(a.node, b.node) << what << ", rank " << r;
            ASSERT_EQ(a.first_core, b.first_core) << what << ", rank " << r;
            ASSERT_EQ(a.first_domain, b.first_domain) << what << ", rank " << r;
            ASSERT_EQ(a.domains_spanned, b.domains_spanned) << what << ", rank " << r;
            const auto ctx = got->exec_context(r, 0.8);
            ASSERT_EQ(ctx.streams_on_domain,
                      std::max(1, want->streams[static_cast<std::size_t>(b.node)]
                                              [static_cast<std::size_t>(b.first_domain)]))
                << what << ", rank " << r;
            ASSERT_EQ(ctx.domains_spanned, b.domains_spanned) << what << ", rank " << r;
        }
        int occupied = 0, max_on = 0, min_on = ranks;
        for (int n = 0; n < nodes; ++n) {
            const int on = want->occupancy[static_cast<std::size_t>(n)];
            ASSERT_EQ(got->ranks_on_node(n), on) << what << ", node " << n;
            for (int d = 0; d < node.mem_domains(); ++d) {
                ASSERT_EQ(got->streams_on_domain(n, d),
                          want->streams[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)])
                    << what << ", node " << n << ", domain " << d;
            }
            if (on > 0) {
                ++occupied;
                min_on = std::min(min_on, on);
            }
            max_on = std::max(max_on, on);
        }
        const auto layout = got->comm_layout();
        EXPECT_EQ(layout.total_ranks, ranks) << what;
        EXPECT_EQ(layout.nodes, std::max(1, occupied)) << what;
        EXPECT_EQ(layout.ranks_per_node, std::max(1, max_on)) << what;
        EXPECT_EQ(layout.min_ranks_per_node, occupied > 0 ? min_on : 1) << what;

        // Capacity: just under, at and just over the fullest node's share.
        const double cap = node.mem_capacity();
        for (const double scale : {0.5, 1.0, 1.0000001}) {
            const double bytes = cap / max_on * scale;
            std::optional<std::string> want_cap;
            for (int n = 0; n < nodes && !want_cap; ++n) {
                const int on = want->occupancy[static_cast<std::size_t>(n)];
                if (bytes * on > cap) {
                    want_cap = au::format(
                        "node %d needs %.2f GB but has %.2f GB (%d ranks x %.2f GB)", n,
                        bytes * on / 1e9, cap / 1e9, on, bytes / 1e9);
                }
            }
            std::optional<std::string> got_cap;
            try {
                got->check_capacity(bytes);
            } catch (const au::CapacityError& e) {
                got_cap = e.what();
            }
            EXPECT_EQ(got_cap, want_cap) << what << ", bytes " << bytes;
        }
    }
    // The seeded cases reach every branch.
    EXPECT_GT(accepted, 1000);
    EXPECT_GT(rejected, 100);
    EXPECT_GT(double_pinned, 0);
    EXPECT_GT(fewer_ranks_than_nodes, 0);
}
