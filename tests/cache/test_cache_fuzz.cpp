// Round-trip fuzz tests for the persistent cache: randomised SweepPoints
// and app results (seeded util::Rng, fully reproducible) must survive
// serialise -> disk -> deserialise bit-for-bit, and a warm-cache rerun of a
// sweep must be byte-identical to the cold run at --jobs 1 and --jobs 8.
// Also hammers the atomic temp-file-then-rename path with concurrent
// writers (run under -DARMSTICE_SANITIZE=address,undefined in CI).

#include "core/app_codecs.hpp"
#include "core/cache.hpp"
#include "core/runner.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/str.hpp"
#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace ac = armstice::core;
namespace au = armstice::util;
namespace fs = std::filesystem;

namespace {

std::string random_string(au::Rng& rng, std::size_t max_len, bool binary) {
    const std::size_t len = rng.next_below(max_len + 1);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
        // Binary strings cover all 256 byte values (NUL, newline, '|', ...);
        // text strings stay printable like real app/system names.
        s.push_back(binary ? static_cast<char>(rng.next_below(256))
                           : static_cast<char>('!' + rng.next_below(94)));
    }
    return s;
}

ac::SweepPoint random_point(au::Rng& rng) {
    ac::SweepPoint p;
    p.app = random_string(rng, 12, false);
    p.system = random_string(rng, 12, false);
    p.nodes = static_cast<int>(rng.next_below(4096)) - 1;  // incl. 0 and -1
    p.ranks = static_cast<int>(rng.next_below(1 << 20));
    p.threads = static_cast<int>(rng.next_below(256));
    p.config = random_string(rng, 64, true);  // configs may embed anything
    return p;
}

double random_double(au::Rng& rng) {
    // Mix plain uniforms with exact-bit-pattern values (denormals, inf, nan
    // never appear in real results, but bit-exactness must not depend on
    // "nice" values).
    if (rng.next_below(4) == 0) return rng.uniform(-1e30, 1e30);
    return rng.next_double() * 1e-5;
}

bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_stats(const armstice::sim::RankStats& a, const armstice::sim::RankStats& b) {
    return bit_equal(a.finish, b.finish) && bit_equal(a.compute, b.compute) &&
           bit_equal(a.recv_wait, b.recv_wait) &&
           bit_equal(a.collective_wait, b.collective_wait) &&
           bit_equal(a.injected_bytes, b.injected_bytes) &&
           a.msgs_sent == b.msgs_sent && a.msgs_received == b.msgs_received;
}

/// The RunResult layout written rank by rank from a plain per-rank array:
/// the reference the run-expanding encoder must match byte for byte.
std::string encode_per_rank(const armstice::sim::RunResult& r,
                            const std::vector<armstice::sim::RankStats>& ranks) {
    au::ByteWriter w;
    w.f64(r.makespan);
    w.f64(r.total_flops);
    w.u32(static_cast<std::uint32_t>(ranks.size()));
    for (const auto& rs : ranks) {
        w.f64(rs.finish);
        w.f64(rs.compute);
        w.f64(rs.recv_wait);
        w.f64(rs.collective_wait);
        w.f64(rs.injected_bytes);
        w.i32(rs.msgs_sent);
        w.i32(rs.msgs_received);
    }
    w.u32(static_cast<std::uint32_t>(r.phase_compute.size()));
    for (const auto& [label, seconds] : r.phase_compute) {
        w.str(label);
        w.f64(seconds);
    }
    return w.data();
}

armstice::sim::RankStats random_rank_stats(au::Rng& rng) {
    armstice::sim::RankStats rs;
    rs.finish = random_double(rng);
    rs.compute = random_double(rng);
    rs.recv_wait = random_double(rng);
    rs.collective_wait = random_double(rng);
    rs.injected_bytes = random_double(rng);
    rs.msgs_sent = static_cast<int>(rng.next_below(1 << 16));
    rs.msgs_received = static_cast<int>(rng.next_below(1 << 16));
    return rs;
}

armstice::apps::AppResult random_app_result(au::Rng& rng) {
    armstice::apps::AppResult v;
    v.feasible = rng.next_below(2) == 1;
    v.note = random_string(rng, 40, true);
    v.seconds = random_double(rng);
    v.gflops = random_double(rng);
    v.run.makespan = random_double(rng);
    v.run.total_flops = random_double(rng);
    // Appends of 1-4 ranks, a third of them repeating the stats before, so
    // the table holds runs longer than one rank, built both ways.
    const std::size_t appends = rng.next_below(12);
    armstice::sim::RankStats rs = random_rank_stats(rng);
    for (std::size_t i = 0; i < appends; ++i) {
        if (rng.next_below(3) != 0) rs = random_rank_stats(rng);
        v.run.ranks.append(rs, 1 + static_cast<int>(rng.next_below(4)));
    }
    const std::size_t nphases = rng.next_below(6);
    for (std::size_t i = 0; i < nphases; ++i) {
        v.run.phase_compute["phase-" + random_string(rng, 10, false)] =
            random_double(rng);
    }
    return v;
}

void expect_app_results_equal(const armstice::apps::AppResult& a,
                              const armstice::apps::AppResult& b) {
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.note, b.note);
    EXPECT_TRUE(bit_equal(a.seconds, b.seconds));
    EXPECT_TRUE(bit_equal(a.gflops, b.gflops));
    EXPECT_TRUE(bit_equal(a.run.makespan, b.run.makespan));
    EXPECT_TRUE(bit_equal(a.run.total_flops, b.run.total_flops));
    ASSERT_EQ(a.run.ranks.size(), b.run.ranks.size());
    // Tables are canonical, so a decoded table holds the encoded runs.
    ASSERT_EQ(a.run.ranks.runs(), b.run.ranks.runs());
    for (std::size_t k = 0; k < a.run.ranks.runs(); ++k) {
        const auto x = a.run.ranks.run(k);
        const auto y = b.run.ranks.run(k);
        EXPECT_EQ(x.first, y.first);
        EXPECT_EQ(x.length, y.length);
        EXPECT_TRUE(same_stats(x.stats, y.stats)) << "run " << k;
    }
    EXPECT_EQ(a.run.phase_compute.size(), b.run.phase_compute.size());
    for (const auto& [label, seconds] : a.run.phase_compute) {
        const auto it = b.run.phase_compute.find(label);
        ASSERT_NE(it, b.run.phase_compute.end()) << label;
        EXPECT_TRUE(bit_equal(seconds, it->second));
    }
}

class CacheFuzz : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("armstice-fuzz-" +
                std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir_);
        ac::reset_sweep_cache();
    }
    void TearDown() override {
        ac::set_cache_dir("");
        ac::reset_sweep_cache();
        fs::remove_all(dir_);
    }
    [[nodiscard]] std::string dir() const { return dir_.string(); }

    fs::path dir_;
};

} // namespace

TEST_F(CacheFuzz, SweepPointCodecRoundTrips) {
    au::Rng rng(0xfeedbeef);
    for (int iter = 0; iter < 500; ++iter) {
        const ac::SweepPoint p = random_point(rng);
        au::ByteWriter w;
        ac::ResultTraits<ac::SweepPoint>::encode(w, p);
        au::ByteReader r(w.data());
        const ac::SweepPoint q = ac::ResultTraits<ac::SweepPoint>::decode(r);
        ASSERT_TRUE(r.ok() && r.at_end()) << "iter " << iter;
        ASSERT_TRUE(p == q) << "iter " << iter;
    }
}

TEST_F(CacheFuzz, AppResultCodecRoundTrips) {
    au::Rng rng(0xc0ffee);
    for (int iter = 0; iter < 200; ++iter) {
        const auto v = random_app_result(rng);
        au::ByteWriter w;
        ac::ResultTraits<armstice::apps::AppResult>::encode(w, v);
        au::ByteReader r(w.data());
        const auto q = ac::ResultTraits<armstice::apps::AppResult>::decode(r);
        ASSERT_TRUE(r.ok() && r.at_end()) << "iter " << iter;
        expect_app_results_equal(v, q);
    }
}

TEST_F(CacheFuzz, RunTableEncodesLikePerRankArray) {
    au::Rng rng(0x5eed7ab1e);
    for (int iter = 0; iter < 200; ++iter) {
        const auto v = random_app_result(rng);
        const std::vector<armstice::sim::RankStats> per_rank(v.run.ranks.begin(),
                                                             v.run.ranks.end());
        au::ByteWriter w;
        ac::codec_detail::encode_run_result(w, v.run);
        ASSERT_EQ(w.data(), encode_per_rank(v.run, per_rank)) << "iter " << iter;
    }
}

TEST_F(CacheFuzz, DecodeMergesEqualNeighbours) {
    // Ranks 0-2 equal, 3 differs, 4-5 equal to rank 3 bar -0.0 vs 0.0, 6
    // repeats rank 5.
    armstice::sim::RunResult r;
    armstice::sim::RankStats a;
    a.finish = 1.5;
    a.msgs_sent = 2;
    armstice::sim::RankStats b = a;
    b.compute = -0.0;
    armstice::sim::RankStats c = a;
    c.compute = 0.0;
    const std::vector<armstice::sim::RankStats> per_rank = {a, a, a, b, c, c, c};
    const std::string blob = encode_per_rank(r, per_rank);
    au::ByteReader rd(blob);
    const auto q = ac::codec_detail::decode_run_result(rd);
    ASSERT_TRUE(rd.ok() && rd.at_end());
    ASSERT_EQ(q.ranks.size(), 7u);
    ASSERT_EQ(q.ranks.runs(), 3u);
    const int first[] = {0, 3, 4};
    const int length[] = {3, 1, 3};
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(q.ranks.run(k).first, first[k]) << "run " << k;
        EXPECT_EQ(q.ranks.run(k).length, length[k]) << "run " << k;
        EXPECT_TRUE(same_stats(q.ranks.run(k).stats, per_rank[static_cast<std::size_t>(first[k])]))
            << "run " << k;
    }
    au::ByteWriter w;
    ac::codec_detail::encode_run_result(w, q);
    EXPECT_EQ(w.data(), blob);
}

TEST_F(CacheFuzz, StoreRoundTripsArbitraryPayloadsThroughDisk) {
    ac::CacheStore store(dir().c_str(), 3);
    ASSERT_TRUE(au::ensure_dir(dir()));
    au::Rng rng(0xd15c);
    for (int iter = 0; iter < 100; ++iter) {
        const std::string key = "fuzz|" + random_string(rng, 80, true);
        const std::string payload = random_string(rng, 2000, true);
        ASSERT_TRUE(store.store(key, payload)) << "iter " << iter;
        const auto got = store.load(key);
        ASSERT_TRUE(got.has_value()) << "iter " << iter;
        ASSERT_EQ(*got, payload) << "iter " << iter;
    }
}

TEST_F(CacheFuzz, DecoderSurvivesRandomMutations) {
    // Take a valid encoded AppResult and flip/truncate it at random: decode
    // must never crash, and the typed wrapper must flag every mutation that
    // leaves the stream inconsistent. (Accepting a mutation that decodes
    // cleanly is fine — the file checksum catches those before decode.)
    au::Rng rng(0xabad1dea);
    au::ByteWriter w;
    ac::ResultTraits<armstice::apps::AppResult>::encode(w, random_app_result(rng));
    const std::string valid = w.data();
    for (int iter = 0; iter < 500; ++iter) {
        std::string mutated = valid;
        if (rng.next_below(2) == 0 && !mutated.empty()) {
            mutated.resize(rng.next_below(mutated.size()));  // truncate
        }
        const std::size_t flips = 1 + rng.next_below(8);
        for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
            mutated[rng.next_below(mutated.size())] ^=
                static_cast<char>(1 + rng.next_below(255));
        }
        au::ByteReader r(mutated);
        (void)ac::ResultTraits<armstice::apps::AppResult>::decode(r);  // no crash
    }
}

TEST_F(CacheFuzz, WarmRerunIsBitIdenticalToColdAtJobs1And8) {
    ac::set_cache_dir(dir());
    std::vector<ac::SweepPoint> pts;
    for (int i = 0; i < 24; ++i) {
        pts.push_back(ac::sweep_point("warmcold", "A64FX", 1 + i % 4, 4, 12,
                                      au::format("p%d", i)));
    }
    // Evaluation produces "awkward" doubles so equality is a real bit test.
    const auto eval = [](const ac::SweepPoint& p, std::size_t i) {
        double v = 1.0 / (3.0 + static_cast<double>(i)) * p.nodes;
        for (int k = 0; k < 5; ++k) v = v * 1.0000001 + 1e-13;
        return v;
    };
    const auto cold = ac::SweepRunner(1).run<double>(pts, eval);

    for (const int jobs : {1, 8}) {
        ac::reset_sweep_cache();  // memo gone; only the disk knows
        const auto warm = ac::SweepRunner(jobs).run<double>(pts, eval);
        ASSERT_EQ(warm.size(), cold.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < warm.size(); ++i) {
            EXPECT_TRUE(bit_equal(warm[i], cold[i]))
                << "jobs " << jobs << " point " << i;
        }
        const auto stats = ac::sweep_stats();
        EXPECT_EQ(stats.disk_hits, 24) << "jobs " << jobs;
        EXPECT_EQ(stats.misses, 0) << "jobs " << jobs;
    }
}

TEST_F(CacheFuzz, ConcurrentWritersNeverTearEntries) {
    // Many threads flush overlapping key sets into one directory while
    // readers poll: every successful load must return one of the exact
    // payloads ever written for that key (atomic rename => no torn reads).
    ASSERT_TRUE(au::ensure_dir(dir()));
    ac::CacheStore store(dir().c_str(), 1);
    constexpr int kKeys = 8;
    const auto payload_for = [](int key, int gen) {
        std::string p = au::format("k%d:g%d:", key, gen);
        p += std::string(512 + static_cast<std::size_t>(gen) * 7, static_cast<char>('a' + key));
        return p;
    };
    au::ThreadPool pool(8);
    std::atomic<int> bad{0};
    for (int t = 0; t < 8; ++t) {
        pool.submit([&, t] {
            au::Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int iter = 0; iter < 50; ++iter) {
                const int key = static_cast<int>(rng.next_below(kKeys));
                const int gen = static_cast<int>(rng.next_below(4));
                if (rng.next_below(2) == 0) {
                    if (!store.store("key" + std::to_string(key), payload_for(key, gen))) {
                        bad.fetch_add(1);
                    }
                } else {
                    const auto got = store.load("key" + std::to_string(key));
                    if (!got) continue;  // not written yet: fine
                    bool matches_some_generation = false;
                    for (int g = 0; g < 4; ++g) {
                        if (*got == payload_for(key, g)) matches_some_generation = true;
                    }
                    if (!matches_some_generation) bad.fetch_add(1);
                }
            }
        });
    }
    pool.wait_idle();
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(store.stats().rejected, 0);  // a torn file would be rejected
    // No temp debris left behind by the atomic writes.
    int stray = 0;
    for (const auto& e : fs::directory_iterator(dir())) {
        if (e.path().extension() != ".armc") ++stray;
    }
    EXPECT_EQ(stray, 0);
}
