// Receive-wait bits (DESIGN.md §11.5): every receive completes through one
// update, t = max(clock, arrival); wait += t - clock; clock = t. A message
// that arrived before the receive was posted adds +0, so an always-early
// rank's recv_wait stays exactly +0.0 (checked by bit pattern, not by a
// tolerance), and every rank's stats equal RefEngine's branchy update bit
// for bit. Each program runs on all three receive paths: singletons
// (collapse off), a merged class with one shared clock (os_noise = 0) and
// a merged class with per-member clocks (default knobs).

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "simmpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;

aa::ComputePhase phase(double flops) {
    aa::ComputePhase p;
    p.label = "work";
    p.flops = flops;
    p.main_bytes = 5.0 * flops;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

/// One receive path: collapse on or off, OS noise on (default knobs) or off.
struct Path {
    const char* name;
    bool collapse;
    bool noisy;
};
constexpr Path kPaths[] = {
    {"singletons, os_noise = 0", false, false},
    {"singletons, default knobs", false, true},
    {"merged, shared clock (os_noise = 0)", true, false},
    {"merged, per-member clocks (default knobs)", true, true},
};

/// Run `bundle` on one path and require RefEngine's bits. Merged paths must
/// actually merge, or the test would not reach their receive.
as::RunResult run_checked(const Path& path, int ranks, int nodes,
                          const as::ProgramBundle& bundle) {
    aa::ModelKnobs knobs;
    if (!path.noisy) knobs.os_noise = 0.0;
    const auto placement = as::Placement::block(aa::fulhame().node, nodes, ranks, 1);
    const as::Engine eng(aa::fulhame(), placement, 0.8, knobs);
    const as::RefEngine ref(aa::fulhame(), placement, 0.8, knobs);
    as::RunOptions opts;
    opts.collapse = path.collapse;
    auto res = eng.run(bundle, opts);
    EXPECT_EQ(as::check::diff_results(res, ref.run(bundle)), "") << "vs RefEngine";
    if (path.collapse) {
        EXPECT_LT(res.collapse_classes * 4, ranks);
    } else {
        EXPECT_EQ(res.collapse_classes, ranks);
    }
    return res;
}

constexpr std::uint64_t kPlusZero = 0;

TEST(RecvWaitBits, EarlyRanksWaitExactlyPlusZero) {
    // Pairs (2i, 2i + 1) exchange through relative offsets +1 / -1. The even
    // rank computes briefly and waits for its partner; the odd rank computes
    // 4x longer, more than OS noise (a factor of at most 1 + 8 * 0.012) can
    // close, so its partner's message has always arrived when it posts the
    // receive.
    const int ranks = 32;
    std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) nbrs[static_cast<std::size_t>(r)] = {r ^ 1};
    const am::HaloGraph pairs(nbrs);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < 3; ++it) {
        ps.compute_by_rank([](int r) { return phase(r % 2 == 0 ? 1.0e7 : 4.0e7); });
        ps.halo_exchange(pairs, 4.0e4, /*tag=*/it);
    }
    const auto bundle = ps.take_bundle();
    for (const Path& path : kPaths) {
        SCOPED_TRACE(path.name);
        const auto res = run_checked(path, ranks, 1, bundle);
        for (int r = 0; r < ranks; ++r) {
            const auto& st = res.ranks[static_cast<std::size_t>(r)];
            EXPECT_EQ(st.msgs_received, 3) << "rank " << r;
            if (r % 2 == 1) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(st.recv_wait), kPlusZero)
                    << "early rank " << r << " recv_wait " << st.recv_wait;
            } else {
                EXPECT_GT(st.recv_wait, 0.0) << "waiting rank " << r;
            }
        }
    }
}

TEST(RecvWaitBits, RingMixesEarlyAndLateMembersInOneReceive) {
    // Every rank computes the same phase, then exchanges with both ring
    // neighbours, 32 ranks on each of two nodes. Quiet, most ranks get both
    // messages before they post their receives, and the ranks whose
    // messages cross or queue behind a node edge wait. Under OS noise each
    // member's message is early or late by its own draws, so one merged
    // receive with per-member clocks completes a mix of both. Every path
    // must see both kinds of rank.
    const int ranks = 64;
    std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
        nbrs[static_cast<std::size_t>(r)] = {(r + 1) % ranks, (r + ranks - 1) % ranks};
    }
    const am::HaloGraph ring(nbrs);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < 2; ++it) {
        ps.compute(phase(2.0e7));
        ps.halo_exchange(ring, 4.0e4, /*tag=*/it);
    }
    const auto bundle = ps.take_bundle();
    for (const Path& path : kPaths) {
        SCOPED_TRACE(path.name);
        const auto res = run_checked(path, ranks, 2, bundle);
        int early = 0;
        for (int r = 0; r < ranks; ++r) {
            const auto& st = res.ranks[static_cast<std::size_t>(r)];
            EXPECT_EQ(st.msgs_received, 4) << "rank " << r;
            EXPECT_GE(st.recv_wait, 0.0) << "rank " << r;
            early += std::bit_cast<std::uint64_t>(st.recv_wait) == kPlusZero;
        }
        EXPECT_GT(early, 0);
        EXPECT_LT(early, ranks);
    }
}

} // namespace
