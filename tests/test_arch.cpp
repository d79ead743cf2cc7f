// Tests of the architecture models: the Table I catalog, Table II toolchain
// encoding, and processor/node derived quantities.

#include "arch/system.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace aa = armstice::arch;

class CatalogTest : public ::testing::TestWithParam<std::size_t> {
protected:
    const aa::SystemSpec& sys() const { return aa::system_catalog()[GetParam()]; }
};

TEST_P(CatalogTest, NodeSpecValidates) { EXPECT_NO_THROW(sys().node.validate()); }

TEST_P(CatalogTest, MemoryPerCoreMatchesTableI) {
    // Table I "Memory per core": 0.66 / 2.66 / 7.11 / 4 / 4 GB.
    const double per_core = sys().node.mem_capacity() / sys().node.cores() / 1e9;
    const std::map<std::string, double> expect = {
        {"A64FX", 0.66}, {"ARCHER", 2.66}, {"Cirrus", 7.11},
        {"EPCC NGIO", 4.0}, {"Fulhame", 4.0}};
    EXPECT_NEAR(per_core, expect.at(sys().name), 0.08);
}

TEST_P(CatalogTest, DerivedPeakNearTablePeak) {
    // The physically derived peak matches Table I except on Cascade Lake,
    // where the paper appears to de-rate for AVX-512 frequency.
    const double derived = sys().node.peak_gflops();
    if (sys().name == "EPCC NGIO") {
        EXPECT_GT(derived, sys().table_peak_gflops);
    } else {
        EXPECT_NEAR(derived, sys().table_peak_gflops,
                    0.01 * sys().table_peak_gflops);
    }
}

TEST_P(CatalogTest, BandwidthHierarchySane) {
    const auto& cpu = sys().node.cpu;
    EXPECT_LT(cpu.core_gather_bw, cpu.core_stream_bw);
    EXPECT_LE(cpu.core_stream_bw, cpu.domain.bandwidth);
    EXPECT_GT(cpu.llc.capacity_bytes, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, CatalogTest, ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(Catalog, TableICoreCounts) {
    EXPECT_EQ(aa::a64fx().node.cores(), 48);
    EXPECT_EQ(aa::archer().node.cores(), 24);
    EXPECT_EQ(aa::cirrus().node.cores(), 36);
    EXPECT_EQ(aa::ngio().node.cores(), 48);
    EXPECT_EQ(aa::fulhame().node.cores(), 64);
}

TEST(Catalog, TableIVectorWidths) {
    EXPECT_EQ(aa::a64fx().node.cpu.isa.width_bits, 512);
    EXPECT_EQ(aa::archer().node.cpu.isa.width_bits, 256);
    EXPECT_EQ(aa::cirrus().node.cpu.isa.width_bits, 256);
    EXPECT_EQ(aa::ngio().node.cpu.isa.width_bits, 512);
    EXPECT_EQ(aa::fulhame().node.cpu.isa.width_bits, 128);
}

TEST(Catalog, A64fxHasFourCmgsWithHbm) {
    const auto& cpu = aa::a64fx().node.cpu;
    EXPECT_EQ(cpu.core_groups, 4);
    EXPECT_EQ(cpu.cores_per_group, 12);
    EXPECT_NEAR(cpu.mem_capacity() / 1e9, 34.36, 0.1);  // 32 GiB
    EXPECT_GT(cpu.mem_bandwidth(), 800e9);              // HBM2
}

TEST(Catalog, InterconnectsMatchPaper) {
    EXPECT_EQ(aa::a64fx().net, aa::NetKind::tofud);
    EXPECT_EQ(aa::archer().net, aa::NetKind::aries);
    EXPECT_EQ(aa::cirrus().net, aa::NetKind::fdr_ib);
    EXPECT_EQ(aa::ngio().net, aa::NetKind::omnipath);
    EXPECT_EQ(aa::fulhame().net, aa::NetKind::edr_ib);
}

TEST(Catalog, LookupByNameAndUnknownThrows) {
    EXPECT_EQ(aa::system_by_name("A64FX").name, "A64FX");
    EXPECT_EQ(aa::system_by_name("Fulhame").node.cores(), 64);
    EXPECT_THROW(aa::system_by_name("Fugaku"), armstice::util::Error);
}

TEST(Catalog, MemoryBandwidthOrderingMatchesPaperNarrative) {
    // HBM >> TX2 8-channel > Cascade Lake 6-channel > Broadwell > IvyBridge.
    EXPECT_GT(aa::a64fx().node.mem_bandwidth(), aa::fulhame().node.mem_bandwidth());
    EXPECT_GT(aa::fulhame().node.mem_bandwidth(), aa::ngio().node.mem_bandwidth());
    EXPECT_GT(aa::ngio().node.mem_bandwidth(), aa::cirrus().node.mem_bandwidth());
    EXPECT_GT(aa::cirrus().node.mem_bandwidth(), aa::archer().node.mem_bandwidth());
}

TEST(VectorIsa, LaneCountsAndNames) {
    EXPECT_EQ(aa::a64fx().node.cpu.isa.dp_lanes(), 8);
    EXPECT_EQ(aa::fulhame().node.cpu.isa.dp_lanes(), 2);
    EXPECT_EQ(aa::a64fx().node.cpu.isa.name(), "SVE512");
    EXPECT_EQ(aa::ngio().node.cpu.isa.name(), "AVX-512");
}

TEST(NodeSpec, ValidateRejectsBadSpecs) {
    aa::NodeSpec bad = aa::a64fx().node;
    bad.cpu.freq_hz = 0;
    EXPECT_THROW(bad.validate(), armstice::util::Error);
    bad = aa::a64fx().node;
    bad.cpu.domain.bandwidth = 0;
    EXPECT_THROW(bad.validate(), armstice::util::Error);
    bad = aa::a64fx().node;
    bad.sockets = 0;
    EXPECT_THROW(bad.validate(), armstice::util::Error);
}

// ---- Table II toolchains ---------------------------------------------------

TEST(Toolchain, HpcgEntriesMatchTableII) {
    const auto a64 = aa::toolchain_for("A64FX", "hpcg");
    EXPECT_EQ(a64.vendor, aa::CompilerVendor::fujitsu);
    EXPECT_EQ(a64.compiler, "Fujitsu 1.2.24");
    EXPECT_NE(a64.flags.find("-Kfast"), std::string::npos);
    EXPECT_TRUE(a64.fastmath);

    const auto ful = aa::toolchain_for("Fulhame", "hpcg");
    EXPECT_EQ(ful.vendor, aa::CompilerVendor::gnu);
    EXPECT_NE(ful.flags.find("-ffast-math"), std::string::npos);
}

TEST(Toolchain, MinikabUsesFujitsu125OnA64fx) {
    EXPECT_EQ(aa::toolchain_for("A64FX", "minikab").compiler, "Fujitsu 1.2.25");
    EXPECT_EQ(aa::toolchain_for("Fulhame", "minikab").vendor,
              aa::CompilerVendor::armclang);
}

TEST(Toolchain, CastepCarriesLibraries) {
    const auto tc = aa::toolchain_for("A64FX", "castep");
    ASSERT_EQ(tc.libraries.size(), 3u);
    EXPECT_EQ(tc.libraries[1], "Fujitsu SSL2");
    EXPECT_EQ(tc.libraries[2], "FFTW 3.3.3");
    EXPECT_FALSE(tc.fastmath);  // CASTEP A64FX row is plain -O3
}

TEST(Toolchain, OpensbliA64fxFallsBackToSystemDefault) {
    // Table II has no OpenSBLI/A64FX row; the fallback must still be the
    // Fujitsu toolchain.
    const auto tc = aa::toolchain_for("A64FX", "opensbli");
    EXPECT_EQ(tc.vendor, aa::CompilerVendor::fujitsu);
}

TEST(Toolchain, UnknownSystemThrows) {
    EXPECT_THROW(aa::toolchain_for("Summit", "hpcg"), armstice::util::Error);
}

// The app is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which ASLR changes on every run, so the test
// names ctest discovers would differ from build to build.
class ToolchainCoverage
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::string>> {};

TEST_P(ToolchainCoverage, EverySystemAppPairResolves) {
    const auto& sys = aa::system_catalog()[std::get<0>(GetParam())];
    const auto tc = aa::toolchain_for(sys.name, std::get<1>(GetParam()));
    EXPECT_FALSE(tc.compiler.empty());
    EXPECT_GT(tc.vec_quality, 0.0);
    EXPECT_LE(tc.vec_quality, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ToolchainCoverage,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::ValuesIn(std::vector<std::string>(
                           std::begin(aa::kToolchainApps),
                           std::end(aa::kToolchainApps)))));
