// Tests of the extension components: arbitrary-size FFT (Bluestein), the
// power/energy model, and the execution-trace exporter.

#include "apps/nekbone/nekbone.hpp"
#include "arch/power.hpp"
#include "kern/fft/fft.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ak = armstice::kern;
namespace aa = armstice::arch;
namespace as = armstice::sim;

// ---- Bluestein FFT -----------------------------------------------------------

class FftAnySize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAnySize, MatchesNaiveDft) {
    armstice::util::Rng rng(GetParam());
    std::vector<ak::cplx> data(GetParam());
    for (auto& x : data) x = ak::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto expect = ak::dft_naive(data);
    ak::fft_any(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_LT(std::abs(data[i] - expect[i]),
                  1e-8 * static_cast<double>(GetParam()))
            << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftAnySize,
                         ::testing::Values(2u, 3u, 5u, 6u, 7u, 12u, 17u, 45u, 90u,
                                           100u, 128u));

TEST(FftAny, RoundTripArbitrarySize) {
    armstice::util::Rng rng(8);
    std::vector<ak::cplx> data(90);  // CASTEP TiN grid dimension
    for (auto& x : data) x = ak::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto orig = data;
    ak::fft_any(data);
    ak::ifft_any(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_LT(std::abs(data[i] - orig[i]), 1e-10);
    }
}

TEST(FftAny, Pow2PathIdenticalToFft) {
    armstice::util::Rng rng(9);
    std::vector<ak::cplx> a(64), b(64);
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = b[i] = ak::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    ak::fft(a);
    ak::fft_any(b);
    for (std::size_t i = 0; i < 64; ++i) EXPECT_LT(std::abs(a[i] - b[i]), 1e-12);
}

// ---- power model -----------------------------------------------------------

TEST(Power, SpecsExistForAllSystems) {
    for (const auto& sys : aa::system_catalog()) {
        const auto p = aa::power_spec(sys);
        EXPECT_GT(p.idle_w, 0.0) << sys.name;
        EXPECT_GT(p.peak_w(), p.idle_w) << sys.name;
    }
}

TEST(Power, A64fxLowestPeakPower) {
    const double a64 = aa::power_spec(aa::a64fx()).peak_w();
    for (const auto& sys : aa::system_catalog()) {
        if (sys.name == "A64FX") continue;
        EXPECT_LT(a64, aa::power_spec(sys).peak_w()) << sys.name;
    }
}

TEST(Power, EnergyDecomposesIdlePlusDynamic) {
    const aa::PowerSpec p{100.0, 200.0, 10.0};
    // Fully busy for 2 s.
    EXPECT_DOUBLE_EQ(aa::node_energy_j(p, 2.0, 2.0), (110.0 + 200.0) * 2.0);
    // Half busy.
    EXPECT_DOUBLE_EQ(aa::node_energy_j(p, 1.0, 2.0), 110.0 * 2.0 + 200.0);
    EXPECT_THROW((void)aa::node_energy_j(p, 3.0, 2.0), armstice::util::Error);
}

TEST(Power, NekboneEfficiencyOrderingFavoursA64fx) {
    // Green500-style extension: the A64FX must deliver the best GFLOPs/W on
    // Nekbone by a wide margin (it is ~1.4x faster AND ~2x lower power).
    auto gfw = [](const aa::SystemSpec& sys) {
        const auto out = armstice::apps::run_nekbone(
            sys, armstice::apps::nekbone_node_config(sys, 1, false));
        return aa::gflops_per_watt(sys, out.run.total_flops, out.run.mean_compute(),
                                   out.seconds, 1);
    };
    const double a64 = gfw(aa::a64fx());
    EXPECT_GT(a64, 2.0 * gfw(aa::ngio()));
    EXPECT_GT(a64, 2.0 * gfw(aa::archer()));
    EXPECT_GT(a64, 1.5 * gfw(aa::fulhame()));
}

// ---- trace export ------------------------------------------------------------

TEST(Trace, RecordsComputeAndCollectiveSpans) {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto placement = as::Placement::block(aa::fulhame().node, 1, 4, 1);
    const as::Engine engine(aa::fulhame(), std::move(placement), 0.8, knobs);
    std::vector<as::Program> progs(4);
    for (int r = 0; r < 4; ++r) {
        aa::ComputePhase p;
        p.label = "work";
        p.flops = 1e9 * (r + 1);
        p.vector_fraction = 0.0;
        progs[static_cast<std::size_t>(r)].compute(p).allreduce(8);
    }
    as::Trace trace;
    const auto res = engine.run(progs, {}, &trace);
    EXPECT_EQ(trace.size(), 8u);  // 4 compute + 4 collective spans
    // Compute span totals match the engine's accounting.
    double compute = 0;
    for (const auto& r : res.ranks) compute += r.compute;
    EXPECT_NEAR(trace.total_seconds(as::SpanKind::compute), compute, 1e-12);
    // Rank 0 (least work) waited longest in the collective.
    double wait0 = 0, wait3 = 0;
    for (const auto& s : trace.spans()) {
        if (s.kind != as::SpanKind::collective) continue;
        if (s.rank == 0) wait0 = s.end - s.begin;
        if (s.rank == 3) wait3 = s.end - s.begin;
    }
    EXPECT_GT(wait0, wait3);
}

TEST(Trace, RecordsRecvWaitAndSend) {
    aa::ModelKnobs knobs;
    knobs.os_noise = 0.0;
    auto placement = as::Placement::block(aa::fulhame().node, 1, 2, 1);
    const as::Engine engine(aa::fulhame(), std::move(placement), 0.8, knobs);
    std::vector<as::Program> progs(2);
    aa::ComputePhase p;
    p.label = "w";
    p.flops = 8.8e9;
    p.vector_fraction = 0.0;
    progs[0].compute(p).send(1, 1e6);
    progs[1].recv(0);
    as::Trace trace;
    (void)engine.run(progs, {}, &trace);
    EXPECT_GT(trace.total_seconds(as::SpanKind::recv_wait), 0.9);
    EXPECT_GT(trace.total_seconds(as::SpanKind::send), 0.0);
}

TEST(Trace, ChromeJsonWellFormed) {
    as::Trace trace;
    trace.add({0, as::SpanKind::compute, "phase \"x\"", 0.0, 1.0});
    trace.add({1, as::SpanKind::collective, "", 0.5, 2.0});
    const std::string json = trace.to_chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);  // escaped quote
    EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
    // Balanced braces as a cheap well-formedness proxy.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, RejectsBackwardsSpan) {
    as::Trace trace;
    EXPECT_THROW(trace.add({0, as::SpanKind::compute, "", 2.0, 1.0}),
                 armstice::util::Error);
}
