// Conformance tests of the ECM multi-level memory model (arch/ecm.hpp,
// DESIGN.md §12): per-level transfer legs are well-formed, composition never
// beats its slowest leg (roofline bound), pricing is monotone in working-set
// size, degenerate configurations reproduce the flat v3 model bit-exactly,
// and the model-version stamp is pinned at the v4 bump.

#include "arch/cost_model.hpp"
#include "arch/ecm.hpp"
#include "arch/system.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace aa = armstice::arch;
namespace au = armstice::util;

namespace {

aa::ComputePhase phase_of(double bytes, double working_set = 0.0,
                          aa::MemPattern pattern = aa::MemPattern::stream) {
    aa::ComputePhase p;
    p.label = "ecm-test";
    p.flops = 1.0;  // memory-bound by construction
    p.main_bytes = bytes;
    p.working_set = working_set;
    p.pattern = pattern;
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

// The v4 bump is load-bearing: it invalidates every persistent sweep-cache
// entry priced by the flat v3 model. Anyone changing the model must bump
// this again — and regenerate the engine/figure goldens, as this suite's
// siblings check.
TEST(EcmModel, ModelVersionPinnedAtFour) {
    EXPECT_EQ(aa::kModelVersion, 4u);
}

TEST(EcmModel, EveryCatalogSystemCarriesAHierarchy) {
    for (const auto& sys : aa::system_catalog()) {
        const aa::Processor& cpu = sys.node.cpu;
        ASSERT_GE(cpu.levels.size(), 2u) << sys.name;
        ASSERT_LE(cpu.levels.size(), static_cast<std::size_t>(aa::kMaxMemLevels))
            << sys.name;
        // Last level is main memory: capacity equals the domain, bandwidth
        // comes from the contention/cap machinery, not the table.
        EXPECT_EQ(cpu.levels.back().bw_per_core, 0.0) << sys.name;
        for (std::size_t k = 0; k + 1 < cpu.levels.size(); ++k) {
            EXPECT_GT(cpu.levels[k].bw_per_core, 0.0) << sys.name;
            EXPECT_LE(cpu.levels[k].capacity_bytes, cpu.levels[k + 1].capacity_bytes)
                << sys.name;
        }
    }
}

TEST(EcmModel, LegsNonNegativeAndBoundedByComposition) {
    for (const auto& sys : aa::system_catalog()) {
        const aa::Processor& cpu = sys.node.cpu;
        const int n = static_cast<int>(cpu.levels.size());
        for (int residence = 0; residence < n; ++residence) {
            const auto b = aa::EcmModel::decompose(cpu, 1e8, residence, 10.0 * au::GB_per_s);
            double sum = 0.0, worst = 0.0;
            for (int k = 0; k < aa::kMaxMemLevels; ++k) {
                EXPECT_GE(b.t_leg[static_cast<std::size_t>(k)], 0.0) << sys.name;
                sum += b.t_leg[static_cast<std::size_t>(k)];
                worst = std::max(worst, b.t_leg[static_cast<std::size_t>(k)]);
            }
            EXPECT_EQ(b.t_leg[0], 0.0) << sys.name;  // L1 traffic is in-core
            // Composition lies between full overlap (slowest leg) and full
            // serialization (sum of legs) — the roofline bound and its dual.
            EXPECT_GE(b.t_data, worst - 1e-18) << sys.name;
            EXPECT_LE(b.t_data, sum + 1e-18) << sys.name;
        }
    }
}

TEST(EcmModel, RooflineBoundNeverExceeded) {
    // The effective per-stream bandwidth the cost model grants can never
    // exceed the bandwidth of any leg the data actually crosses.
    const aa::CostModel m;
    for (const auto& sys : aa::system_catalog()) {
        for (double ws : {0.0, 16.0 * au::KiB, 200.0 * au::KiB, 4.0 * au::MiB, 1.0 * au::GiB}) {
            for (int streams : {1, 4, 12}) {
                const auto p = phase_of(1e9, ws);
                const auto out = m.explain(p, ctx_on(sys, streams));
                ASSERT_GT(out.ecm.n_levels, 0) << sys.name;
                double worst = 0.0;
                for (double t : out.ecm.t_leg) worst = std::max(worst, t);
                EXPECT_GE(out.t_mem, worst - 1e-18) << sys.name << " ws=" << ws;
                EXPECT_TRUE(std::isfinite(out.total)) << sys.name;
            }
        }
    }
}

TEST(EcmModel, TimeMonotoneInWorkingSetSize) {
    // Growing the working set can only push residence deeper into the
    // hierarchy, adding transfer legs — time never decreases.
    const aa::CostModel m;
    for (const auto& sys : aa::system_catalog()) {
        double prev = 0.0;
        for (double ws = 1.0 * au::KiB; ws <= 64.0 * au::GiB; ws *= 2.0) {
            const double t = m.phase_time(phase_of(1e9, ws), ctx_on(sys));
            EXPECT_GE(t, prev) << sys.name << " ws=" << ws;
            prev = t;
        }
        // And the streaming default (working_set = 0) is the deepest case.
        EXPECT_EQ(m.phase_time(phase_of(1e9, 0.0), ctx_on(sys)), prev) << sys.name;
    }
}

TEST(EcmModel, ResidenceLevelFollowsCapacities) {
    const aa::Processor& cpu = aa::a64fx().node.cpu;  // 64 KiB L1 / 8 MiB L2 / HBM
    EXPECT_EQ(aa::EcmModel::residence_level(cpu, 16.0 * au::KiB, 1.0), 0);
    EXPECT_EQ(aa::EcmModel::residence_level(cpu, 1.0 * au::MiB, 1.0), 1);
    EXPECT_EQ(aa::EcmModel::residence_level(cpu, 1.0 * au::GiB, 1.0), 2);
    EXPECT_EQ(aa::EcmModel::residence_level(cpu, 0.0, 1.0), 2);  // streaming
    // The L2 is shared by the CMG's ranks: 1 MiB per rank at 12 ranks spills.
    EXPECT_EQ(aa::EcmModel::residence_level(cpu, 1.0 * au::MiB, 12.0), 2);
}

TEST(EcmModel, DeconvolvedCapRecomposesToMeasuredRate) {
    // The A64FX per-core caps are end-to-end measurements; deconvolution
    // followed by serial leg composition must land back on them exactly.
    const aa::Processor& cpu = aa::a64fx().node.cpu;
    for (double cap : {55.0 * au::GB_per_s, 8.07 * au::GB_per_s,
                       au::cache_line / cpu.domain.latency_s}) {
        const double raw = aa::EcmModel::deconvolve_cap(cpu, cap);
        ASSERT_GT(raw, cap);  // removing the serialized L2 leg can only raise it
        double inv = 1.0 / raw;
        for (std::size_t k = 1; k + 1 < cpu.levels.size(); ++k) {
            inv += 1.0 / cpu.levels[k].bw_per_core;
        }
        EXPECT_NEAR(1.0 / inv, cap, cap * 1e-12);
    }
    // Overlapping hierarchies (all the x86 systems) need no deconvolution.
    const aa::Processor& ngio = aa::ngio().node.cpu;
    EXPECT_EQ(aa::EcmModel::deconvolve_cap(ngio, ngio.core_stream_bw),
              ngio.core_stream_bw);
}

TEST(EcmModel, SingleLevelHierarchyReproducesFlatModelBitExactly) {
    // Degenerate config: a processor whose level table collapses to a single
    // (memory-only) entry must price every phase exactly like the flat v3
    // model — the ECM path is only entered with >= 2 levels.
    aa::SystemSpec sys = aa::a64fx();
    sys.node.cpu.levels = {aa::MemLevel{"HBM2", 8.0 * au::GiB, 0.0, true}};
    const aa::CostModel ecm_on;  // default knobs: ecm = true
    aa::ModelKnobs off;
    off.ecm = false;
    const aa::CostModel ecm_off(off);
    for (double ws : {0.0, 100.0 * au::KiB, 1.0 * au::GiB}) {
        for (int streams : {1, 12}) {
            for (auto pat : {aa::MemPattern::stream, aa::MemPattern::gather,
                             aa::MemPattern::dependent}) {
                const auto p = phase_of(3.14e8, ws, pat);
                const auto a = ecm_on.explain(p, ctx_on(sys, streams));
                const auto b = ecm_off.explain(p, ctx_on(sys, streams));
                EXPECT_EQ(a.total, b.total);
                EXPECT_EQ(a.t_mem, b.t_mem);
                EXPECT_EQ(a.bw_per_stream, b.bw_per_stream);
                EXPECT_EQ(a.ecm.n_levels, 0);  // flat fallback taken
            }
        }
    }
}

TEST(EcmModel, OverlappingHierarchyMatchesFlatWhenCoreCapBinds) {
    // On the fully-overlapping x86/TX2 hierarchies the composed time is the
    // slowest leg. With the default knobs the per-core cap is below every
    // cache leg's bandwidth, so the memory leg is always slowest and the
    // streaming price is bit-identical to v3 — the reason the paper-anchor
    // reproduction tests did not move on ARCHER/Cirrus/NGIO/Fulhame.
    const aa::CostModel ecm_on;
    aa::ModelKnobs off;
    off.ecm = false;
    const aa::CostModel ecm_off(off);
    for (const auto* sys : {&aa::archer(), &aa::cirrus(), &aa::ngio(), &aa::fulhame()}) {
        for (int streams : {1, 8, 24}) {
            for (auto pat : {aa::MemPattern::stream, aa::MemPattern::gather}) {
                const auto p = phase_of(1e9, 0.0, pat);
                const auto a = ecm_on.explain(p, ctx_on(*sys, streams));
                const auto b = ecm_off.explain(p, ctx_on(*sys, streams));
                EXPECT_EQ(a.total, b.total) << sys->name;
                EXPECT_EQ(a.t_mem, b.t_mem) << sys->name;
            }
        }
    }
}

TEST(EcmModel, SerializedA64fxHierarchyIsSlowerUnderContention) {
    // The tentpole's behavioural change: at full-CMG occupancy the A64FX
    // domain share picks up a serialized L2 leg, so the ECM price exceeds
    // the flat one — this is the drift the A64FX residuals were
    // recalibrated for.
    const aa::CostModel ecm_on;
    aa::ModelKnobs off;
    off.ecm = false;
    const aa::CostModel ecm_off(off);
    const auto p = phase_of(1e9);
    const auto a = ecm_on.explain(p, ctx_on(aa::a64fx(), /*streams=*/12));
    const auto b = ecm_off.explain(p, ctx_on(aa::a64fx(), /*streams=*/12));
    EXPECT_GT(a.t_mem, b.t_mem);
    EXPECT_LT(a.t_mem, 1.5 * b.t_mem);  // the L2 leg is a correction, not a cliff
    // ...while the uncontended single-core price matches the measured cap on
    // both paths (cap deconvolution, DeconvolvedCapRecomposesToMeasuredRate).
    const auto a1 = ecm_on.explain(p, ctx_on(aa::a64fx(), 1));
    const auto b1 = ecm_off.explain(p, ctx_on(aa::a64fx(), 1));
    EXPECT_NEAR(a1.t_mem, b1.t_mem, b1.t_mem * 1e-12);
}

TEST(EcmModel, ZeroWorkingSetKeepsStreamingPricingBitExactly) {
    // working_set = 0 must price exactly like "assume streaming from
    // memory" — i.e. like cache_model = false. A default that silently
    // granted cache residence is the bug class this pins down.
    aa::ModelKnobs no_cache;
    no_cache.cache_model = false;
    const aa::CostModel with_cache;
    const aa::CostModel without_cache(no_cache);
    for (const auto& sys : aa::system_catalog()) {
        for (int streams : {1, 12}) {
            const auto p = phase_of(1e9, 0.0);
            const auto a = with_cache.explain(p, ctx_on(sys, streams));
            const auto b = without_cache.explain(p, ctx_on(sys, streams));
            EXPECT_EQ(a.total, b.total) << sys.name;
            EXPECT_EQ(a.t_mem, b.t_mem) << sys.name;
        }
    }
}
