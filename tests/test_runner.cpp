// Tests of the parallel sweep subsystem: util::ThreadPool and
// core::SweepRunner (deterministic ordering, memo cache, stats, jobs knob)
// plus the bench-facing --jobs extraction in util::jobs_from_args.

#include "core/runner.hpp"
#include "kern/par.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/str.hpp"
#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace ac = armstice::core;
namespace au = armstice::util;

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ExecutesEverySubmittedTask) {
    au::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrain) {
    au::ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 8);  // nothing still running after wait_idle
}

TEST(ThreadPool, DestructorFinishesQueuedWork) {
    std::atomic<int> count{0};
    {
        au::ThreadPool pool(1);
        for (int i = 0; i < 20; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
        }
    }  // destructor joins after draining
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, RunsTasksOnMultipleThreads) {
    au::ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::atomic<int> rendezvous{0};
    for (int i = 0; i < 4; ++i) {
        pool.submit([&] {
            rendezvous.fetch_add(1);
            // Hold until all four tasks run at once — forces distinct threads.
            while (rendezvous.load() < 4) std::this_thread::yield();
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
    }
    pool.wait_idle();
    EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPool, ClampsSizeToAtLeastOne) {
    au::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait_idle();
    EXPECT_TRUE(ran.load());
}

// ---- SweepPoint / SweepRunner ----------------------------------------------

namespace {

ac::SweepPoint pt(const std::string& config, int nodes = 1) {
    return ac::sweep_point("test-app", "A64FX", nodes, 4 * nodes, 12, config);
}

} // namespace

TEST(SweepRunner, KeyEncodesEveryField) {
    const auto a = ac::sweep_point("app", "sys", 2, 8, 12, "cfg");
    EXPECT_NE(a.key(), ac::sweep_point("app2", "sys", 2, 8, 12, "cfg").key());
    EXPECT_NE(a.key(), ac::sweep_point("app", "sys2", 2, 8, 12, "cfg").key());
    EXPECT_NE(a.key(), ac::sweep_point("app", "sys", 3, 8, 12, "cfg").key());
    EXPECT_NE(a.key(), ac::sweep_point("app", "sys", 2, 9, 12, "cfg").key());
    EXPECT_NE(a.key(), ac::sweep_point("app", "sys", 2, 8, 13, "cfg").key());
    EXPECT_NE(a.key(), ac::sweep_point("app", "sys", 2, 8, 12, "cfg2").key());
    EXPECT_EQ(a.key(), ac::sweep_point("app", "sys", 2, 8, 12, "cfg").key());
}

TEST(SweepRunner, ResultsLandByIndexRegardlessOfCompletionOrder) {
    ac::reset_sweep_cache();
    std::vector<ac::SweepPoint> points;
    points.reserve(16);
    for (int i = 0; i < 16; ++i) points.push_back(pt(au::format("p%d", i)));
    const ac::SweepRunner runner(8);
    const auto out = runner.run<int>(
        points, [](const ac::SweepPoint& p, std::size_t i) {
            // Early indices sleep longest so completion order inverts index
            // order; results must still land by index.
            std::this_thread::sleep_for(std::chrono::milliseconds(16 - static_cast<long>(i)));
            return static_cast<int>(i) * 10 + static_cast<int>(p.config.size());
        });
    ASSERT_EQ(out.size(), 16u);
    for (int i = 0; i < 16; ++i) {
        const int cfg_len = static_cast<int>(points[static_cast<std::size_t>(i)].config.size());
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10 + cfg_len);
    }
}

TEST(SweepRunner, ParallelMatchesSerial) {
    ac::reset_sweep_cache();
    std::vector<ac::SweepPoint> points;
    for (int n : {1, 2, 4, 8}) points.push_back(pt("scale", n));
    const auto eval = [](const ac::SweepPoint& p, std::size_t) {
        return 1.0 / p.nodes;
    };
    const auto serial = ac::SweepRunner(1).run<double>(points, eval);
    ac::reset_sweep_cache();
    const auto parallel = ac::SweepRunner(8).run<double>(points, eval);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
    }
}

TEST(SweepRunner, DuplicatePointsEvaluateOnce) {
    ac::reset_sweep_cache();
    std::atomic<int> evals{0};
    std::vector<ac::SweepPoint> points(10, pt("dup"));
    const auto out = ac::SweepRunner(4).run<int>(
        points, [&evals](const ac::SweepPoint&, std::size_t) {
            return evals.fetch_add(1) + 42;
        });
    EXPECT_EQ(evals.load(), 1);
    for (const int v : out) EXPECT_EQ(v, 42);
    const auto stats = ac::sweep_stats();
    EXPECT_EQ(stats.points, 10);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 9);
}

TEST(SweepRunner, CacheSpansRunnerInstances) {
    ac::reset_sweep_cache();
    std::atomic<int> evals{0};
    const std::vector<ac::SweepPoint> points{pt("memo-a"), pt("memo-b")};
    const auto eval = [&evals](const ac::SweepPoint&, std::size_t i) {
        evals.fetch_add(1);
        return static_cast<long>(i) + 7;
    };
    const auto first = ac::SweepRunner(2).run<long>(points, eval);
    const auto second = ac::SweepRunner(1).run<long>(points, eval);  // all hits
    EXPECT_EQ(evals.load(), 2);
    EXPECT_EQ(first, second);
    const auto stats = ac::sweep_stats();
    EXPECT_EQ(stats.points, 4);
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SweepRunner, CacheIsResultTypeAware) {
    // Identical points with different result types must not alias.
    ac::reset_sweep_cache();
    const std::vector<ac::SweepPoint> points{pt("typed")};
    const auto ints = ac::SweepRunner(1).run<int>(
        points, [](const ac::SweepPoint&, std::size_t) { return 3; });
    const auto doubles = ac::SweepRunner(1).run<double>(
        points, [](const ac::SweepPoint&, std::size_t) { return 2.5; });
    EXPECT_EQ(ints[0], 3);
    EXPECT_DOUBLE_EQ(doubles[0], 2.5);
    EXPECT_EQ(ac::sweep_stats().misses, 2);  // second run was not a hit
}

TEST(SweepRunner, ExceptionsPropagateAfterBatch) {
    ac::reset_sweep_cache();
    const std::vector<ac::SweepPoint> points{pt("ok"), pt("boom"), pt("ok2")};
    EXPECT_THROW(
        (void)ac::SweepRunner(2).run<int>(
            points, [](const ac::SweepPoint& p, std::size_t) {
                if (p.config == "boom") throw au::Error("sweep point failed");
                return 1;
            }),
        au::Error);
    // A failed point must not poison the cache with a phantom result.
    std::atomic<int> evals{0};
    const auto out = ac::SweepRunner(1).run<int>(
        {pt("boom")}, [&evals](const ac::SweepPoint&, std::size_t) {
            evals.fetch_add(1);
            return 5;
        });
    EXPECT_EQ(evals.load(), 1);
    EXPECT_EQ(out[0], 5);
}

TEST(SweepRunner, EmptyBatchIsANoop) {
    ac::reset_sweep_cache();
    const auto out = ac::SweepRunner(4).run<int>(
        {}, [](const ac::SweepPoint&, std::size_t) { return 0; });
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(ac::sweep_stats().points, 0);
}

TEST(SweepRunner, JobsDefaultAndOverride) {
    EXPECT_GE(ac::SweepRunner().jobs(), 1);
    EXPECT_EQ(ac::SweepRunner(6).jobs(), 6);
    EXPECT_EQ(ac::SweepRunner(-3).jobs(), 1);  // clamped
    const int saved = ac::default_jobs();
    ac::set_default_jobs(5);
    EXPECT_EQ(ac::default_jobs(), 5);
    EXPECT_EQ(ac::SweepRunner().jobs(), 5);
    ac::set_default_jobs(saved);
}

TEST(SweepRunner, FooterReportsPoolPointsAndHitRate) {
    ac::reset_sweep_cache();
    std::vector<ac::SweepPoint> points(4, pt("footer"));
    (void)ac::SweepRunner(2).run<int>(
        points, [](const ac::SweepPoint&, std::size_t) { return 0; });
    const std::string footer = ac::sweep_footer();
    EXPECT_NE(footer.find("[sweep]"), std::string::npos);
    EXPECT_NE(footer.find("pool=2"), std::string::npos);
    EXPECT_NE(footer.find("4 points"), std::string::npos);
    EXPECT_NE(footer.find("hit rate"), std::string::npos);
}

TEST(SweepRunner, NestedBatchesCountWallTimeOnce) {
    // An evaluation that runs its own batch (compute_scorecard's entries run
    // artefact batches) must not add the inner batch's time on top of the
    // outer batch's: the batch wall time can never exceed the caller's.
    for (const int jobs : {1, 2}) {
        ac::reset_sweep_cache();
        const std::vector<ac::SweepPoint> outer{pt("outer-a"), pt("outer-b")};
        const auto t0 = std::chrono::steady_clock::now();
        (void)ac::SweepRunner(jobs).run<int>(
            outer, [](const ac::SweepPoint& p, std::size_t) {
                const std::vector<ac::SweepPoint> inner{pt(p.config + "-x"),
                                                        pt(p.config + "-y")};
                const auto got = ac::SweepRunner(1).run<int>(
                    inner, [](const ac::SweepPoint&, std::size_t) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(20));
                        return 1;
                    });
                return got[0] + got[1];
            });
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        const auto stats = ac::sweep_stats();
        EXPECT_EQ(stats.points, 6) << "jobs " << jobs;  // counts stay per batch
        EXPECT_EQ(stats.misses, 6) << "jobs " << jobs;
        EXPECT_GT(stats.batch_wall_s, 0.0) << "jobs " << jobs;
        EXPECT_LE(stats.batch_wall_s, wall) << "jobs " << jobs;
    }
}

// ---- RunHooks (per-point streaming + cancellation) --------------------------

namespace {

/// Thread-safe recorder for on_result deliveries.
struct Deliveries {
    std::mutex mu;
    std::vector<std::pair<std::size_t, int>> seen;  // (index, value)

    ac::RunHooks hooks() {
        ac::RunHooks h;
        h.on_result = [this](std::size_t i, const std::any& v) {
            std::lock_guard<std::mutex> lock(mu);
            seen.emplace_back(i, std::any_cast<int>(v));
        };
        return h;
    }
};

} // namespace

TEST(RunHooks, OnResultFiresExactlyOncePerPointWithTheFinalValue) {
    ac::reset_sweep_cache();
    std::vector<ac::SweepPoint> points;
    for (int i = 0; i < 6; ++i) points.push_back(pt("hook" + std::to_string(i)));
    Deliveries rec;
    const auto out = ac::SweepRunner(4).run<int>(
        points,
        [](const ac::SweepPoint&, std::size_t i) { return static_cast<int>(i) * 3; },
        rec.hooks());
    ASSERT_EQ(rec.seen.size(), points.size());
    std::set<std::size_t> indices;
    for (const auto& [i, v] : rec.seen) {
        indices.insert(i);
        EXPECT_EQ(v, out[i]) << "hook value diverges from returned result";
    }
    EXPECT_EQ(indices.size(), points.size()) << "some index delivered twice/never";
}

TEST(RunHooks, MemoHitsAndInBatchDuplicatesAreDelivered) {
    ac::reset_sweep_cache();
    // First run primes the memo with "a"; the hooked run then mixes a memo
    // hit, a fresh point, and an in-batch duplicate of the fresh point.
    (void)ac::SweepRunner(1).run<int>(
        {pt("a")}, [](const ac::SweepPoint&, std::size_t) { return 10; });
    Deliveries rec;
    const auto out = ac::SweepRunner(1).run<int>(
        {pt("a"), pt("b"), pt("b")},
        [](const ac::SweepPoint&, std::size_t) { return 20; }, rec.hooks());
    EXPECT_EQ(out, (std::vector<int>{10, 20, 20}));
    ASSERT_EQ(rec.seen.size(), 3u);
    // The memo hit is delivered first — before anything evaluates.
    EXPECT_EQ(rec.seen[0], (std::pair<std::size_t, int>{0, 10}));
    std::set<std::size_t> indices;
    for (const auto& [i, v] : rec.seen) indices.insert(i);
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2}));
}

TEST(RunHooks, CancellationSkipsUnstartedPointsAndThrows) {
    ac::reset_sweep_cache();
    // Serial run, cancel flag raised by the first evaluation: point 0
    // finishes (it already started), the rest are skipped, and the batch
    // reports the cancellation as a typed error.
    std::atomic<bool> cancel{false};
    std::atomic<int> evals{0};
    ac::RunHooks hooks;
    hooks.cancelled = [&cancel] { return cancel.load(); };
    EXPECT_THROW(
        (void)ac::SweepRunner(1).run<int>(
            {pt("c0"), pt("c1"), pt("c2")},
            [&](const ac::SweepPoint&, std::size_t i) {
                evals.fetch_add(1);
                cancel.store(true);
                return static_cast<int>(i);
            },
            hooks),
        au::CancelledError);
    EXPECT_EQ(evals.load(), 1) << "cancellation did not stop the batch";

    // The completed point was promoted to the memo cache before the throw:
    // a retry evaluates only the two skipped points.
    std::atomic<int> retry_evals{0};
    const auto out = ac::SweepRunner(1).run<int>(
        {pt("c0"), pt("c1"), pt("c2")},
        [&](const ac::SweepPoint&, std::size_t i) {
            retry_evals.fetch_add(1);
            return static_cast<int>(i);
        });
    EXPECT_EQ(retry_evals.load(), 2);
    EXPECT_EQ(out[0], 0) << "cached result from the cancelled batch";
}

TEST(RunHooks, EvaluationErrorOutranksCancellation) {
    ac::reset_sweep_cache();
    // A batch that both throws and cancels must surface the evaluation
    // error — cancellation is bookkeeping, the error is the news.
    ac::RunHooks hooks;
    std::atomic<bool> cancel{false};
    hooks.cancelled = [&cancel] { return cancel.load(); };
    try {
        (void)ac::SweepRunner(1).run<int>(
            {pt("e0"), pt("e1")},
            [&](const ac::SweepPoint&, std::size_t) -> int {
                cancel.store(true);
                throw au::Error("evaluation exploded");
            },
            hooks);
        FAIL() << "batch did not throw";
    } catch (const au::CancelledError&) {
        FAIL() << "cancellation outranked the evaluation error";
    } catch (const au::Error& e) {
        EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
    }
}

TEST(RunHooks, TwoArgRunStillWorksWithoutHooks) {
    ac::reset_sweep_cache();
    const auto out = ac::SweepRunner(2).run<int>(
        {pt("nohooks")}, [](const ac::SweepPoint&, std::size_t) { return 9; });
    EXPECT_EQ(out[0], 9);
}

// ---- jobs_from_args ---------------------------------------------------------

namespace {

/// Mutable argv for jobs_from_args (which rewrites it in place).
struct Argv {
    explicit Argv(std::initializer_list<const char*> args) {
        for (const char* a : args) storage.emplace_back(a);
        for (auto& s : storage) ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(storage.size());
    }
    std::vector<std::string> storage;
    std::vector<char*> ptrs;
    int argc = 0;
};

} // namespace

TEST(JobsFromArgs, SpaceAndEqualsSyntaxBothConsume) {
    Argv a{"bench", "--jobs", "8", "--other"};
    EXPECT_EQ(au::jobs_from_args(a.argc, a.ptrs.data(), 1), 8);
    EXPECT_EQ(a.argc, 2);
    EXPECT_STREQ(a.ptrs[0], "bench");
    EXPECT_STREQ(a.ptrs[1], "--other");
    EXPECT_EQ(a.ptrs[2], nullptr);

    Argv b{"bench", "--jobs=3"};
    EXPECT_EQ(au::jobs_from_args(b.argc, b.ptrs.data(), 1), 3);
    EXPECT_EQ(b.argc, 1);
}

TEST(JobsFromArgs, FallbackWhenAbsent) {
    unsetenv("ARMSTICE_JOBS");
    Argv a{"bench", "--benchmark_filter=x"};
    EXPECT_EQ(au::jobs_from_args(a.argc, a.ptrs.data(), 7), 7);
    EXPECT_EQ(a.argc, 2);  // untouched
}

TEST(JobsFromArgs, EnvironmentBeatsFallback) {
    setenv("ARMSTICE_JOBS", "4", 1);
    Argv a{"bench"};
    EXPECT_EQ(au::jobs_from_args(a.argc, a.ptrs.data(), 1), 4);
    unsetenv("ARMSTICE_JOBS");
}

TEST(JobsFromArgs, FlagBeatsEnvironment) {
    setenv("ARMSTICE_JOBS", "4", 1);
    Argv a{"bench", "--jobs", "2"};
    EXPECT_EQ(au::jobs_from_args(a.argc, a.ptrs.data(), 1), 2);
    unsetenv("ARMSTICE_JOBS");
}

TEST(JobsFromArgs, RejectsBadValues) {
    {
        Argv a{"bench", "--jobs"};
        EXPECT_THROW((void)au::jobs_from_args(a.argc, a.ptrs.data(), 1), au::Error);
    }
    {
        Argv a{"bench", "--jobs", "0"};
        EXPECT_THROW((void)au::jobs_from_args(a.argc, a.ptrs.data(), 1), au::Error);
    }
    {
        Argv a{"bench", "--jobs=nope"};
        EXPECT_THROW((void)au::jobs_from_args(a.argc, a.ptrs.data(), 1), au::Error);
    }
}

TEST(JobsFromEnvironment, EveryReaderRejectsBadValues) {
    // One parser behind ARMSTICE_JOBS and --jobs: each reader must throw on
    // the same inputs. Only thread *counts* are read here; no pool starts.
    ac::set_default_jobs(0);
    armstice::kern::par::set_jobs(0);
    for (const std::string& bad : std::vector<std::string>{
             "2abc", "0", "-1", "4294967298", "99999999999999999999",
             std::to_string(au::kMaxJobs + 1)}) {
        setenv("ARMSTICE_JOBS", bad.c_str(), 1);
        EXPECT_THROW((void)au::env_jobs(), au::Error) << bad;
        EXPECT_THROW((void)ac::default_jobs(), au::Error) << bad;
        EXPECT_THROW((void)armstice::kern::par::jobs(), au::Error) << bad;
        Argv env_only{"bench"};
        EXPECT_THROW((void)au::jobs_from_args(env_only.argc, env_only.ptrs.data(), 1),
                     au::Error)
            << bad;
        const std::string flag = "--jobs=" + bad;
        Argv flagged{"bench", flag.c_str()};
        EXPECT_THROW((void)au::jobs_from_args(flagged.argc, flagged.ptrs.data(), 1),
                     au::Error)
            << bad;
    }
    // An empty variable is unset, not an error.
    setenv("ARMSTICE_JOBS", "", 1);
    EXPECT_EQ(au::env_jobs(), 0);
    EXPECT_EQ(ac::default_jobs(), 1);
    Argv empty_flag{"bench", "--jobs="};
    EXPECT_THROW((void)au::jobs_from_args(empty_flag.argc, empty_flag.ptrs.data(), 1),
                 au::Error);
    // The bound itself is accepted.
    const std::string top = std::to_string(au::kMaxJobs);
    setenv("ARMSTICE_JOBS", top.c_str(), 1);
    EXPECT_EQ(au::env_jobs(), au::kMaxJobs);
    EXPECT_EQ(ac::default_jobs(), au::kMaxJobs);
    EXPECT_EQ(armstice::kern::par::jobs(), au::kMaxJobs);
    unsetenv("ARMSTICE_JOBS");
}
