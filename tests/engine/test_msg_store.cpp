// The engine's message store (DESIGN.md §11.4): a merged relative send is
// ONE record for every member's message, named by (source, destination,
// tag, ordinal), and a merged relative receive resolves its members by
// source class. These cases drive the store through every way a record can
// be read other than by a merged receive of the same shape — split
// singletons, wildcards, reordered tags, a sender that splits while its
// records are pending, a deadlock — and require each run to be
// bit-identical to RefEngine, collapse off and two perturbed schedules,
// with os_noise = 0 and at default knobs (per-member arrivals, §11.5).

#include "arch/system.hpp"
#include "sim/check.hpp"
#include "sim/deadlock.hpp"
#include "sim/engine.hpp"
#include "sim/ref_engine.hpp"
#include "simmpi/minimpi.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace as = armstice::sim;
namespace am = armstice::simmpi;
namespace ck = armstice::sim::check;

aa::ComputePhase phase(const char* label, double flops) {
    aa::ComputePhase p;
    p.label = label;
    p.flops = flops;
    p.main_bytes = 5.0 * flops;
    p.pattern = aa::MemPattern::stream;
    p.efficiency = 0.8;
    return p;
}

aa::ModelKnobs knobs_for(bool noisy) {
    aa::ModelKnobs knobs;
    if (!noisy) knobs.os_noise = 0.0;
    return knobs;
}

as::Placement block(int nodes, int ranks) {
    return as::Placement::block(aa::fulhame().node, nodes, ranks, 1);
}

#define EXPECT_BITEQ(a, b, what)                                          \
    do {                                                                  \
        const std::string d_ = ck::diff_results((a), (b));                \
        EXPECT_EQ(d_, "") << what;                                        \
    } while (0)

constexpr std::uint64_t kSeeds[] = {0x4a105eedULL, 0x9e37ULL};

struct Runs {
    as::RunResult quiet;
    as::RunResult noisy;
};

/// Run `progs` (shared through ProgramBundle::from, so equal programs form
/// one class) quiet and at default knobs. Each collapsed run must be
/// bit-identical to RefEngine, collapse off and two perturbed schedules.
Runs run_everywhere(const std::vector<as::Program>& progs, int nodes, const char* what) {
    const int ranks = static_cast<int>(progs.size());
    const auto bundle = as::ProgramBundle::from(progs);
    Runs out;
    for (const bool noisy : {false, true}) {
        SCOPED_TRACE(noisy ? "default knobs" : "os_noise = 0");
        const as::Engine eng(aa::fulhame(), block(nodes, ranks), 0.8, knobs_for(noisy));
        const as::RefEngine ref(aa::fulhame(), block(nodes, ranks), 0.8, knobs_for(noisy));
        const as::RunResult collapsed = eng.run(bundle);
        EXPECT_BITEQ(collapsed, ref.run(progs), what << ": vs RefEngine");
        as::RunOptions off;
        off.collapse = false;
        EXPECT_BITEQ(collapsed, eng.run(bundle, off), what << ": collapse off");
        for (const std::uint64_t seed : kSeeds) {
            as::RunOptions opts;
            opts.perturb_seed = seed;
            EXPECT_BITEQ(collapsed, eng.run(bundle, opts), what << ": perturbed");
        }
        (noisy ? out.noisy : out.quiet) = collapsed;
    }
    return out;
}

std::string deadlock_text(const std::function<as::RunResult()>& run) {
    try {
        (void)run();
    } catch (const as::DeadlockError& e) {
        return e.what();
    }
    return "<no deadlock>";
}

TEST(MsgStore, MergedSenderReadBySplitSingletons) {
    // Ranks 1..7 send to r + 8 as one merged class. Ranks 8..15 share a
    // program whose first p2p op is an absolute send to rank 0, so they are
    // singletons by the time they receive: each reads its message out of
    // the merged sender's record — one arrival, or, at default knobs, its
    // own member's entry. Rank 0 collects the absolute sends first.
    const int ranks = 16;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("work", r < 8 ? 2.0e6 : 4.0e6));
        if (r == 0) {
            for (int s = 8; s < ranks; ++s) p.recv(s, /*tag=*/9);
        }
        if (r < 8) {
            p.send_rel(8, 6.4e4, /*tag=*/5);
        } else {
            p.send(0, 1.0e3, /*tag=*/9);
            p.recv_rel(-8, /*tag=*/5);
        }
        p.allreduce(8);
    }
    const Runs runs = run_everywhere(progs, 2, "split singletons read a merged sender");
    for (const as::RunResult* r : {&runs.quiet, &runs.noisy}) {
        // rank 0, merged 1..7, and 8..15 split to singletons by the
        // absolute send.
        EXPECT_EQ(r->collapse_classes, 10);
        EXPECT_EQ(r->collapse_split_p2p, 1);
        EXPECT_EQ(r->ranks[12].msgs_received, 1);
    }
}

TEST(MsgStore, MergedSenderConsumedByWildcard) {
    // Ranks 8..15 take two ANY_SOURCE receives of tag 3. Their candidates
    // are a merged class below (r - 8 -> r) and a merged class above
    // (r + 8 -> r) that computes longer first, so the wildcard order is
    // (arrival, source) over two merged senders' records.
    const int ranks = 24;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        if (r < 8) {
            p.compute(phase("lower", 2.0e6));
            p.send_rel(8, 3.2e4, /*tag=*/3);
        } else if (r < 16) {
            p.recv(as::kAnySource, /*tag=*/3);
            p.recv(as::kAnySource, /*tag=*/3);
        } else {
            p.compute(phase("upper", 6.0e6));
            p.send_rel(-8, 3.2e4, /*tag=*/3);
        }
        p.allreduce(8);
    }
    const Runs runs = run_everywhere(progs, 3, "wildcard reads merged senders");
    for (const as::RunResult* r : {&runs.quiet, &runs.noisy}) {
        EXPECT_EQ(r->collapse_classes, 10);  // both senders stay merged
        EXPECT_EQ(r->collapse_split_p2p, 1);
        EXPECT_EQ(r->ranks[9].msgs_received, 2);
    }
}

TEST(MsgStore, TwoInFlightSendsAndReversedTags) {
    // Ranks 0..7 post one send of tag 2, then two of tag 1, while ranks
    // 8..15 compute; those take both tag-1 messages first and tag 2 last.
    // Ranks 8..11 compute less than 12..15 (two classes), so they read the
    // second tag-1 record while the first is still pending for the other
    // class, and finish when that last-sent message arrives. Each merged
    // send is one record, so the store holds three records, not 24
    // messages.
    const int ranks = 16;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        if (r < 8) {
            p.compute(phase("send side", 8.0e6));
            p.send_rel(8, 3.0e4, /*tag=*/2);
            p.send_rel(8, 1.0e5, /*tag=*/1);
            p.send_rel(8, 2.0e5, /*tag=*/1);
        } else {
            p.compute(phase("recv side", r < 12 ? 1.0e6 : 2.0e6));
            p.recv_rel(-8, /*tag=*/1);
            p.recv_rel(-8, /*tag=*/1);
            p.recv_rel(-8, /*tag=*/2);
        }
        p.allreduce(8);
    }
    const Runs runs = run_everywhere(progs, 2, "in-flight sends, reversed tags");
    for (const as::RunResult* r : {&runs.quiet, &runs.noisy}) {
        EXPECT_EQ(r->collapse_classes, 3);
        EXPECT_EQ(r->collapse_splits, 0);
        EXPECT_EQ(r->peak_msg_records, 3);
        EXPECT_EQ(r->ranks[10].msgs_received, 3);
        EXPECT_GT(r->ranks[10].recv_wait, 0.0);
    }
}

TEST(MsgStore, SenderTierSplitsWithRecordsPending) {
    // A 32-rank chain on 4 nodes: the interior sends to r + 1, then to
    // r - 1, then receives both. The +1 send group-splits off the members
    // whose partner is on the next node; the in-place group posts its +1
    // record and then group-splits again on the -1 hop tier, so that
    // pending record is partitioned between the new classes.
    const int ranks = 32;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("chain", 2.0e6));
        if (r + 1 < ranks) p.send_rel(1, 4.0e4, /*tag=*/6);
        if (r >= 1) p.send_rel(-1, 4.0e4, /*tag=*/6);
        if (r + 1 < ranks) p.recv_rel(1, /*tag=*/6);
        if (r >= 1) p.recv_rel(-1, /*tag=*/6);
        p.allreduce(8);
    }
    const Runs runs = run_everywhere(progs, 4, "tier split with pending records");
    for (const as::RunResult* r : {&runs.quiet, &runs.noisy}) {
        EXPECT_EQ(r->collapse_split_placement, 2);
        EXPECT_LT(r->collapse_classes, ranks);
        EXPECT_GT(r->peak_msg_records, 0);
    }
}

TEST(MsgStore, SenderQuiescenceSplitsWithRecordsPending) {
    // Ranks 2..13 first send tag 1 to r + 2 (consumed only at the end), then
    // wait on a tag-2 pipeline from r - 2. Only the members fed by ranks
    // 0 and 1 can match, so the merged class group-splits at quiescence
    // while its tag-1 record is still pending, and again at every later
    // stage of the pipeline.
    const int ranks = 16;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("stage", 1.0e6));
        if (r + 2 < ranks) p.send_rel(2, 2.0e4, /*tag=*/1);
        if (r >= 2) p.recv_rel(-2, /*tag=*/2);
        if (r + 2 < ranks) p.send_rel(2, 2.0e4, /*tag=*/2);
        if (r >= 2) p.recv_rel(-2, /*tag=*/1);
        p.allreduce(8);
    }
    const Runs runs = run_everywhere(progs, 1, "quiescence split with pending records");
    for (const as::RunResult* r : {&runs.quiet, &runs.noisy}) {
        EXPECT_GE(r->collapse_split_p2p, 1);
        EXPECT_EQ(r->collapse_split_placement, 0);
        EXPECT_EQ(r->ranks[7].msgs_received, 2);
    }
}

TEST(MsgStore, MergedReceiveDeadlockTextIsIdentical) {
    // Ranks 0..7 wait as one merged class on tag 3 from r + 8, but ranks
    // 8..15 send tag 4 and go to the allreduce: the records are in the
    // store, none matches. The diagnosis is one rank at a time, and its
    // text must not depend on the engine, on collapse or on the schedule.
    const int ranks = 16;
    std::vector<as::Program> progs(ranks);
    for (int r = 0; r < ranks; ++r) {
        auto& p = progs[static_cast<std::size_t>(r)];
        p.compute(phase("pre", 1.0e6));
        if (r < 8) {
            p.recv_rel(8, /*tag=*/3);
        } else {
            p.send_rel(-8, 1.0e3, /*tag=*/4);
        }
        p.allreduce(8);
    }
    const auto bundle = as::ProgramBundle::from(progs);
    for (const bool noisy : {false, true}) {
        SCOPED_TRACE(noisy ? "default knobs" : "os_noise = 0");
        const as::Engine eng(aa::fulhame(), block(2, ranks), 0.8, knobs_for(noisy));
        const as::RefEngine ref(aa::fulhame(), block(2, ranks), 0.8, knobs_for(noisy));
        const std::string want = deadlock_text([&] { return ref.run(progs); });
        EXPECT_NE(want, "<no deadlock>");
        EXPECT_NE(want.find("recv(src=8, tag=3)"), std::string::npos) << want;
        EXPECT_EQ(deadlock_text([&] { return eng.run(bundle); }), want);
        as::RunOptions off;
        off.collapse = false;
        EXPECT_EQ(deadlock_text([&] { return eng.run(bundle, off); }), want);
        for (const std::uint64_t seed : kSeeds) {
            as::RunOptions opts;
            opts.perturb_seed = seed;
            EXPECT_EQ(deadlock_text([&] { return eng.run(bundle, opts); }), want);
        }
    }
}

TEST(MsgStore, HaloPeakRecordsIndependentOfIterations) {
    // The store holds only in-flight sends, one record per class per
    // (offset, tag): a 16^3 Cartesian halo + allreduce stays within
    // neighbours x classes however many rounds it runs, while collapse off
    // holds one record per in-flight rank pair. The peak is not flat from
    // the first round: allreduce waiters resume in arrival order, so the
    // class order settles over the first ~20 rounds (382 records after 10,
    // 386 from 20 on). A record leaked per round would keep it growing.
    const int ranks = 4096;
    const auto dims = am::dims_create(ranks, 3);
    const auto neighbors = am::cart_neighbors(dims, /*periodic=*/false);
    const as::Engine eng(aa::fulhame(), block(ranks / 64, ranks), 0.8, knobs_for(false));
    const auto halo = [&](int iters) {
        am::ProgramSet ps(ranks);
        for (int it = 0; it < iters; ++it) {
            ps.halo_exchange(neighbors, 8.0 * 16.0 * 16.0);
            ps.compute(phase("spmv", 2.0e5));
            ps.allreduce(8);
        }
        return ps.take_bundle();
    };
    const as::RunResult ten = eng.run(halo(10));
    const as::RunResult fifty = eng.run(halo(50));
    const as::RunResult hundred = eng.run(halo(100));
    EXPECT_EQ(fifty.peak_msg_records, hundred.peak_msg_records);
    EXPECT_EQ(ten.collapse_classes, hundred.collapse_classes);
    EXPECT_GT(ten.peak_msg_records, 0);
    EXPECT_LE(ten.peak_msg_records, hundred.peak_msg_records);
    EXPECT_LE(hundred.peak_msg_records, 6 * hundred.collapse_classes);

    as::RunOptions off;
    off.collapse = false;
    EXPECT_GT(eng.run(halo(10), off).peak_msg_records, ranks);
}

} // namespace
