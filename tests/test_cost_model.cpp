// Property tests of the roofline/ECM cost model (DESIGN.md §4.2): the
// qualitative behaviours every experiment relies on must hold for arbitrary
// phases and contexts.

#include "arch/cost_model.hpp"
#include "arch/system.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace aa = armstice::arch;

namespace {

aa::ComputePhase stream_phase(double flops = 1e9, double bytes = 1e8) {
    aa::ComputePhase p;
    p.label = std::string("t");
    p.flops = flops;
    p.main_bytes = bytes;
    return p;
}

aa::ExecContext ctx_on(const aa::SystemSpec& sys, int streams = 1, int threads = 1) {
    aa::ExecContext ctx;
    ctx.cpu = &sys.node.cpu;
    ctx.streams_on_domain = streams;
    ctx.threads = threads;
    return ctx;
}

} // namespace

TEST(CostModel, TimeIsPositiveAndFinite) {
    const aa::CostModel m;
    const double t = m.phase_time(stream_phase(), ctx_on(aa::a64fx()));
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
}

TEST(CostModel, MonotonicInFlops) {
    const aa::CostModel m;
    const auto ctx = ctx_on(aa::archer());
    double prev = 0.0;
    for (double f : {1e8, 1e9, 1e10, 1e11}) {
        const double t = m.phase_time(stream_phase(f, 1.0), ctx);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CostModel, MonotonicInBytes) {
    const aa::CostModel m;
    const auto ctx = ctx_on(aa::archer());
    double prev = 0.0;
    for (double b : {1e8, 1e9, 1e10, 1e11}) {
        const double t = m.phase_time(stream_phase(1.0, b), ctx);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CostModel, ContentionSlowsSharedDomain) {
    const aa::CostModel m;
    const auto p = stream_phase(1.0, 1e9);  // memory-bound
    const double alone = m.phase_time(p, ctx_on(aa::ngio(), 1));
    const double crowded = m.phase_time(p, ctx_on(aa::ngio(), 24));
    EXPECT_GT(crowded, alone);
    // Contended slowdown bounded by the stream count.
    EXPECT_LE(crowded, 24.0 * alone * 1.01);
}

TEST(CostModel, ContentionKnobDisablesSharing) {
    aa::ModelKnobs knobs;
    knobs.contention = false;
    knobs.core_bw_cap = false;
    const aa::CostModel m(knobs);
    const auto p = stream_phase(1.0, 1e9);
    EXPECT_DOUBLE_EQ(m.phase_time(p, ctx_on(aa::ngio(), 1)),
                     m.phase_time(p, ctx_on(aa::ngio(), 24)));
}

TEST(CostModel, SingleStreamCappedByCoreBandwidth) {
    // One A64FX core must not see the whole 210 GB/s CMG (Table V anchor).
    const aa::CostModel m;
    const auto p = stream_phase(1.0, 55e9);
    const double t = m.phase_time(p, ctx_on(aa::a64fx(), 1));
    EXPECT_GE(t, 0.99);  // ~1 s at the 55 GB/s single-core cap
}

TEST(CostModel, GatherSlowerThanStreamPerByte) {
    const aa::CostModel m;
    auto p = stream_phase(1.0, 1e9);
    const double t_stream = m.phase_time(p, ctx_on(aa::a64fx(), 1));
    p.pattern = aa::MemPattern::gather;
    const double t_gather = m.phase_time(p, ctx_on(aa::a64fx(), 1));
    EXPECT_GT(t_gather, t_stream);
}

TEST(CostModel, DependentSlowestPattern) {
    const aa::CostModel m;
    auto p = stream_phase(1.0, 1e8);
    p.pattern = aa::MemPattern::gather;
    const double t_gather = m.phase_time(p, ctx_on(aa::fulhame(), 1));
    p.pattern = aa::MemPattern::dependent;
    const double t_dep = m.phase_time(p, ctx_on(aa::fulhame(), 1));
    EXPECT_GT(t_dep, t_gather);
}

TEST(CostModel, VectorisationSpeedsUpComputeBound) {
    const aa::CostModel m;
    auto p = stream_phase(1e11, 1.0);
    auto ctx = ctx_on(aa::a64fx(), 1);
    ctx.vec_quality = 0.9;
    p.vector_fraction = 1.0;
    const double t_vec = m.phase_time(p, ctx);
    p.vector_fraction = 0.0;
    const double t_scalar = m.phase_time(p, ctx);
    EXPECT_GT(t_scalar, 4.0 * t_vec);  // 8 SVE lanes x 0.9 quality
}

TEST(CostModel, NarrowVectorsGainLess) {
    // The same vectorisable phase gains more on SVE-512 than on NEON-128.
    const aa::CostModel m;
    auto p = stream_phase(1e11, 1.0);
    auto scalar = p;
    scalar.vector_fraction = 0.0;
    auto sve = ctx_on(aa::a64fx(), 1);
    auto neon = ctx_on(aa::fulhame(), 1);
    sve.vec_quality = neon.vec_quality = 0.8;
    const double gain_sve =
        m.phase_time(scalar, sve) / m.phase_time(p, sve);
    const double gain_neon =
        m.phase_time(scalar, neon) / m.phase_time(p, neon);
    EXPECT_GT(gain_sve, gain_neon);
}

TEST(CostModel, AmdahlBoundsThreadSpeedup) {
    const aa::CostModel m;
    auto p = stream_phase(1e10, 1.0);
    p.parallel_fraction = 0.9;
    auto ctx1 = ctx_on(aa::a64fx(), 1, 1);
    auto ctx12 = ctx_on(aa::a64fx(), 12, 12);
    const double s = m.phase_time(p, ctx1) / m.phase_time(p, ctx12);
    EXPECT_GT(s, 1.0);
    EXPECT_LT(s, 1.0 / (0.1 + 0.9 / 12.0) + 0.01);  // Amdahl limit
}

TEST(CostModel, AmdahlKnobDisablesSerialFraction) {
    aa::ModelKnobs knobs;
    knobs.amdahl = false;
    const aa::CostModel m(knobs);
    auto p = stream_phase(1e10, 1.0);
    p.parallel_fraction = 0.5;  // ignored when knob off
    const double t1 = m.phase_time(p, ctx_on(aa::a64fx(), 1, 1));
    const double t12 = m.phase_time(p, ctx_on(aa::a64fx(), 12, 12));
    EXPECT_NEAR(t1 / t12, 12.0, 0.01);
}

TEST(CostModel, CacheResidentWorkingSetUsesLlcBandwidth) {
    const aa::CostModel m;
    auto p = stream_phase(1.0, 1e9);
    auto ctx = ctx_on(aa::fulhame(), 32);  // heavy contention: 122/32 GB/s
    p.working_set = 64e3;                  // 64 KB — fits the 32 MiB LLC
    const double t_cached = m.phase_time(p, ctx);
    p.working_set = 1e9;  // spills
    const double t_mem = m.phase_time(p, ctx);
    EXPECT_LT(t_cached, t_mem);
}

TEST(CostModel, EfficiencyScalesTimeInversely) {
    const aa::CostModel m;
    auto p = stream_phase(1e9, 1e8);
    const auto ctx = ctx_on(aa::cirrus(), 4);
    p.efficiency = 1.0;
    const double t1 = m.phase_time(p, ctx);
    p.efficiency = 0.5;
    EXPECT_NEAR(m.phase_time(p, ctx), 2.0 * t1, 1e-9);
}

TEST(CostModel, OverheadIsAdditiveAndUnscaled) {
    const aa::CostModel m;
    auto p = stream_phase(1e6, 1e5);
    p.efficiency = 0.5;
    const double base = m.phase_time(p, ctx_on(aa::ngio()));
    p.overhead_s = 1.0;
    EXPECT_NEAR(m.phase_time(p, ctx_on(aa::ngio())), base + 1.0, 1e-12);
}

TEST(CostModel, ExplainTermsComposeToTotal) {
    const aa::CostModel m;
    auto p = stream_phase(1e9, 1e9);
    p.cache_bytes = 1e8;
    p.latency_ops = 1e5;
    p.overhead_s = 0.01;
    p.efficiency = 0.8;
    const auto b = m.explain(p, ctx_on(aa::a64fx(), 4));
    EXPECT_NEAR(b.total,
                (std::max(b.t_flops, b.t_mem) + b.t_cache + b.t_latency) / 0.8 +
                    b.t_overhead,
                1e-12);
}

TEST(CostModel, InvalidInputsThrow) {
    const aa::CostModel m;
    auto p = stream_phase();
    aa::ExecContext ctx;  // null cpu
    EXPECT_THROW((void)m.phase_time(p, ctx), armstice::util::Error);
    ctx = ctx_on(aa::a64fx());
    ctx.threads = 0;
    EXPECT_THROW((void)m.phase_time(p, ctx), armstice::util::Error);
    ctx = ctx_on(aa::a64fx());
    p.efficiency = 0.0;
    EXPECT_THROW((void)m.phase_time(p, ctx), armstice::util::Error);
    p.efficiency = 2.0;
    EXPECT_THROW((void)m.phase_time(p, ctx), armstice::util::Error);
}

TEST(CostModel, ScaledPhaseScalesWork) {
    const auto p = stream_phase(2e9, 4e8).scaled(0.5);
    EXPECT_DOUBLE_EQ(p.flops, 1e9);
    EXPECT_DOUBLE_EQ(p.main_bytes, 2e8);
}

// Bandwidth-sharing sweep: per-stream time never decreases with more
// streams, and aggregate throughput never decreases either.
class ContentionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContentionSweep, PerStreamAndAggregateMonotonic) {
    const aa::CostModel m;
    const auto p = stream_phase(1.0, 1e9);
    const int s = GetParam();
    const double t_s = m.phase_time(p, ctx_on(aa::ngio(), s));
    const double t_s1 = m.phase_time(p, ctx_on(aa::ngio(), s + 1));
    EXPECT_LE(t_s, t_s1 * 1.0000001);
    // Aggregate: s streams of 1e9 bytes each vs s+1 streams.
    EXPECT_GE((s + 1) / t_s1, s / t_s * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Streams, ContentionSweep,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 24, 32, 48));
