// Tests of the discrete-event engine: MPI semantics (matching, blocking,
// collectives), time accounting, determinism, deadlock detection.

#include "arch/system.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>

namespace as = armstice::sim;
namespace aa = armstice::arch;

namespace {

/// Engine on N Fulhame ranks (1 node) with OS noise off for exact arithmetic.
as::Engine make_engine(int ranks, int nodes = 1) {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto placement = as::Placement::block(aa::fulhame().node, nodes, ranks, 1);
    return as::Engine(aa::fulhame(), std::move(placement), 0.8, knobs);
}

aa::ComputePhase work(double flops) {
    return {.label = "w", .flops = flops, .vector_fraction = 0.0};
}

} // namespace

TEST(Engine, ComputeTimeMatchesCostModel) {
    const auto engine = make_engine(1);
    std::vector<as::Program> progs(1);
    progs[0].compute(work(8.8e9));  // 1 second at 4 flops/cycle * 2.2 GHz
    const auto res = engine.run(progs);
    EXPECT_NEAR(res.makespan, 1.0, 1e-9);
    EXPECT_NEAR(res.ranks[0].compute, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(res.total_flops, 8.8e9);
}

TEST(Engine, GflopsIsFlopsOverMakespan) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].compute(work(8.8e9));
    progs[1].compute(work(8.8e9));
    const auto res = engine.run(progs);
    EXPECT_NEAR(res.gflops(), 2.0 * 8.8, 1e-6);
}

TEST(Engine, SendRecvDeliversAndTimesWait) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].compute(work(8.8e9)).send(1, 1e3);
    progs[1].recv(0);
    const auto res = engine.run(progs);
    // Rank 1 must wait ~1 s for rank 0's message.
    EXPECT_GT(res.ranks[1].recv_wait, 0.9);
    EXPECT_EQ(res.ranks[1].msgs_received, 1);
    EXPECT_EQ(res.ranks[0].msgs_sent, 1);
    EXPECT_GT(res.ranks[1].finish, 1.0);
}

TEST(Engine, EagerSendDoesNotBlockSender) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].send(1, 1e3);                     // no matching recv for a while
    progs[1].compute(work(8.8e9)).recv(0);
    const auto res = engine.run(progs);
    EXPECT_LT(res.ranks[0].finish, 0.01);  // sender finished immediately
    EXPECT_NEAR(res.ranks[1].finish, 1.0, 0.01);  // message already arrived
}

TEST(Engine, TagMatchingIsSelective) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].send(1, 8, /*tag=*/7).send(1, 8, /*tag=*/9);
    progs[1].recv(0, /*tag=*/9).recv(0, /*tag=*/7);  // reverse order
    EXPECT_NO_THROW(engine.run(progs));
}

TEST(Engine, AnySourceMatchesFirstArrival) {
    const auto engine = make_engine(3);
    std::vector<as::Program> progs(3);
    progs[0].compute(work(8.8e9)).send(2, 8);
    progs[1].send(2, 8);
    progs[2].recv(as::kAnySource).recv(as::kAnySource);
    const auto res = engine.run(progs);
    EXPECT_EQ(res.ranks[2].msgs_received, 2);
}

TEST(Engine, FifoPerSourceOrdering) {
    // Two same-tag messages from one source must be consumed in order; the
    // receiver computes between receives, so arrival times differ.
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].send(1, 8).compute(work(8.8e9)).send(1, 8);
    progs[1].recv(0).recv(0);
    const auto res = engine.run(progs);
    EXPECT_GT(res.ranks[1].finish, 1.0);  // second message gated by compute
}

TEST(Engine, AllreduceSynchronisesAtMaxArrival) {
    const auto engine = make_engine(3);
    std::vector<as::Program> progs(3);
    progs[0].compute(work(8.8e9)).allreduce(8);
    progs[1].compute(work(4.4e9)).allreduce(8);
    progs[2].allreduce(8);
    const auto res = engine.run(progs);
    for (const auto& r : res.ranks) EXPECT_GT(r.finish, 1.0);
    // The idle rank waited ~1 s inside the collective.
    EXPECT_GT(res.ranks[2].collective_wait, 0.99);
    // All finish at the same instant.
    EXPECT_NEAR(res.ranks[0].finish, res.ranks[2].finish, 1e-9);
}

TEST(Engine, BarrierAndAlltoallSynchronise) {
    const auto engine = make_engine(4);
    std::vector<as::Program> progs(4);
    for (int r = 0; r < 4; ++r) {
        progs[static_cast<std::size_t>(r)]
            .compute(work(1e9 * (r + 1)))
            .barrier()
            .alltoall(1e3);
    }
    const auto res = engine.run(progs);
    for (int r = 1; r < 4; ++r) {
        EXPECT_NEAR(res.ranks[0].finish, res.ranks[static_cast<std::size_t>(r)].finish,
                    1e-9);
    }
}

TEST(Engine, MismatchedCollectivesThrow) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].allreduce(8);
    progs[1].allreduce(64);  // different payload at the same ordinal
    EXPECT_THROW((void)engine.run(progs), armstice::util::Error);
}

TEST(Engine, BarrierVsAllreduceMismatchThrows) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].allreduce(8);
    progs[1].barrier();
    EXPECT_THROW((void)engine.run(progs), armstice::util::Error);
}

TEST(Engine, DeadlockDetected) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].recv(1);  // nobody ever sends
    progs[1].recv(0);
    EXPECT_THROW((void)engine.run(progs), armstice::util::DeadlockError);
}

TEST(Engine, PartialCollectiveDeadlockDetected) {
    const auto engine = make_engine(3);
    std::vector<as::Program> progs(3);
    progs[0].allreduce(8);
    progs[1].allreduce(8);
    // rank 2 never joins.
    EXPECT_THROW((void)engine.run(progs), armstice::util::DeadlockError);
}

TEST(Engine, DeterministicAcrossRuns) {
    aa::ModelKnobs knobs;  // noise ON — must still be deterministic
    auto placement = as::Placement::block(aa::a64fx().node, 2, 96, 1);
    const as::Engine engine(aa::a64fx(), std::move(placement), 0.6, knobs);
    std::vector<as::Program> progs(96);
    for (int r = 0; r < 96; ++r) {
        progs[static_cast<std::size_t>(r)].compute(work(1e9)).allreduce(8).compute(
            work(2e9));
    }
    const auto r1 = engine.run(progs);
    const auto r2 = engine.run(progs);
    EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
    EXPECT_DOUBLE_EQ(r1.ranks[37].finish, r2.ranks[37].finish);
}

TEST(Engine, MarkLabelsAggregatePhaseTime) {
    const auto engine = make_engine(1);
    std::vector<as::Program> progs(1);
    progs[0].mark("phase-a").compute(work(8.8e9)).mark("phase-b").compute(work(8.8e9));
    const auto res = engine.run(progs);
    EXPECT_NEAR(res.phase_compute.at("phase-a"), 1.0, 1e-9);
    EXPECT_NEAR(res.phase_compute.at("phase-b"), 1.0, 1e-9);
}

TEST(Engine, MakespanIsMaxFinish) {
    const auto engine = make_engine(3);
    std::vector<as::Program> progs(3);
    progs[0].compute(work(1e9));
    progs[1].compute(work(5e9));
    progs[2].compute(work(3e9));
    const auto res = engine.run(progs);
    EXPECT_DOUBLE_EQ(res.makespan, res.ranks[1].finish);
}

TEST(Engine, ProgramCountMismatchThrows) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(1);
    EXPECT_THROW((void)engine.run(progs), armstice::util::Error);
}

TEST(Engine, OsNoiseStretchesButBoundedly) {
    auto placement = as::Placement::block(aa::fulhame().node, 1, 32, 1);
    aa::ModelKnobs noisy;  // default 0.012
    aa::ModelKnobs quiet;
    quiet.os_noise = 0.0;
    const as::Engine e_noisy(aa::fulhame(), placement, 0.8, noisy);
    const as::Engine e_quiet(aa::fulhame(), std::move(placement), 0.8, quiet);
    std::vector<as::Program> progs(32);
    for (auto& p : progs) p.compute(work(1e9)).allreduce(8);
    const double tn = e_noisy.run(progs).makespan;
    const double tq = e_quiet.run(progs).makespan;
    EXPECT_GT(tn, tq);
    EXPECT_LT(tn, tq * 1.2);  // noise is a percent-level effect
}

TEST(Engine, CrossNodeMessagesSlowerThanShm) {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto p2 = as::Placement::block(aa::fulhame().node, 2, 2, 1);  // ranks on 2 nodes
    const as::Engine cross(aa::fulhame(), std::move(p2), 0.8, knobs);
    auto p1 = as::Placement::block(aa::fulhame().node, 1, 2, 1);
    const as::Engine local(aa::fulhame(), std::move(p1), 0.8, knobs);
    std::vector<as::Program> progs(2);
    progs[0].send(1, 1e6);
    progs[1].recv(0);
    EXPECT_GT(cross.run(progs).makespan, local.run(progs).makespan);
}

TEST(Engine, CollectiveLayoutUsesTrueOccupancy) {
    // Regression: 48 ranks block-placed on 5 nodes (10,10,10,10,8) were
    // priced via ceil(48/5) = 10 ranks/node on 5 nodes = 50 ranks. The layout
    // must carry the true total so alltoall runs 47 rounds, not 49.
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto placement = as::Placement::block(aa::fulhame().node, 5, 48, 1);
    const as::Engine engine(aa::fulhame(), std::move(placement), 0.8, knobs);
    std::vector<as::Program> progs(48);
    const double bytes = 2e3;
    for (auto& p : progs) p.alltoall(bytes);
    const auto res = engine.run(progs);

    const armstice::net::CollectiveModel coll(engine.network());
    // Occupancies are (10,10,10,10,8): the layout carries min occupancy 8,
    // whose ranks cross the fabric for 40 of the 47 rounds.
    EXPECT_DOUBLE_EQ(res.makespan, coll.alltoall({5, 10, 48, 8}, bytes));
    EXPECT_LT(res.makespan, coll.alltoall({5, 10, 50}, bytes));
}

TEST(Engine, EmptyNodesDoNotAddCollectiveStages) {
    // 4 ranks block-placed onto 5 nodes leave the fifth node empty; the
    // collective layout must see 4 occupied nodes, making the run identical
    // to an honest 4-node job (same fat-tree class on Fulhame at this size).
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto sparse = as::Placement::block(aa::fulhame().node, 5, 4, 1);
    auto dense = as::Placement::block(aa::fulhame().node, 4, 4, 1);
    const as::Engine e_sparse(aa::fulhame(), std::move(sparse), 0.8, knobs);
    const as::Engine e_dense(aa::fulhame(), std::move(dense), 0.8, knobs);
    std::vector<as::Program> progs(4);
    for (auto& p : progs) p.allreduce(64).alltoall(1e3);
    EXPECT_DOUBLE_EQ(e_sparse.run(progs).makespan, e_dense.run(progs).makespan);
}

TEST(Engine, ConcurrentRunsAreBitIdentical) {
    // SweepRunner calls Engine::run from pool threads; the same engine run
    // concurrently from 8 threads must produce bit-identical results (noise
    // ON — the samples are pure functions of (rank, op), not shared state).
    aa::ModelKnobs knobs;  // default noise
    auto placement = as::Placement::block(aa::a64fx().node, 2, 96, 1);
    const as::Engine engine(aa::a64fx(), std::move(placement), 0.6, knobs);
    std::vector<as::Program> progs(96);
    for (int r = 0; r < 96; ++r) {
        progs[static_cast<std::size_t>(r)]
            .compute(work(1e9 * (1 + r % 3)))
            .allreduce(8)
            .send((r + 1) % 96, 1e3)
            .recv((r + 95) % 96)
            .alltoall(256);
    }
    const auto baseline = engine.run(progs);

    constexpr int kThreads = 8;
    std::vector<as::RunResult> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&engine, &progs, &results, t] {
            results[static_cast<std::size_t>(t)] = engine.run(progs);
        });
    }
    for (auto& t : threads) t.join();

    for (const auto& res : results) {
        ASSERT_EQ(res.ranks.size(), baseline.ranks.size());
        EXPECT_DOUBLE_EQ(res.makespan, baseline.makespan);
        EXPECT_DOUBLE_EQ(res.total_flops, baseline.total_flops);
        for (std::size_t r = 0; r < res.ranks.size(); ++r) {
            EXPECT_DOUBLE_EQ(res.ranks[r].finish, baseline.ranks[r].finish);
            EXPECT_DOUBLE_EQ(res.ranks[r].compute, baseline.ranks[r].compute);
            EXPECT_DOUBLE_EQ(res.ranks[r].recv_wait, baseline.ranks[r].recv_wait);
            EXPECT_DOUBLE_EQ(res.ranks[r].collective_wait,
                             baseline.ranks[r].collective_wait);
        }
        EXPECT_EQ(res.phase_compute, baseline.phase_compute);
    }
}

TEST(Engine, RecvWaitZeroWhenMessageEarly) {
    const auto engine = make_engine(2);
    std::vector<as::Program> progs(2);
    progs[0].send(1, 8);
    progs[1].compute(work(8.8e9)).recv(0);
    const auto res = engine.run(progs);
    // Exactly +0.0 by bit pattern: an early message adds +0 to the wait.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.ranks[1].recv_wait), 0U);
}
