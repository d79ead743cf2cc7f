// GEMM/ZGEMM conformance (DESIGN.md §12): the cache-blocked GEMM and the
// row-partitioned ZGEMM must be bit-identical to their serial naive
// references — EXPECT_EQ on every output double — at jobs 1 and jobs 8, on
// shapes that do not divide the GEMM tile, and at the n = 0 / n = 1
// degenerate edges. Cache blocking is a pure loop-order transformation
// here; any reassociation it introduced would fail these as a bit
// mismatch, not a tolerance miss.

#include "kern/dense/blas.hpp"
#include "kern/par.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <vector>

namespace ak = armstice::kern;
namespace par = armstice::kern::par;

namespace {

class BlockedConformance : public ::testing::TestWithParam<int> {
protected:
    void TearDown() override { par::set_jobs(0); }

    static std::vector<double> random_vector(std::size_t n, unsigned long seed) {
        armstice::util::Rng rng(seed);
        std::vector<double> v(n);
        for (auto& x : v) x = rng.uniform(-1.0, 1.0);
        return v;
    }

    static std::vector<ak::cplx> random_cvector(std::size_t n, unsigned long seed) {
        armstice::util::Rng rng(seed);
        std::vector<ak::cplx> v(n);
        for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        return v;
    }
};

} // namespace

// Shapes straddle the gemm tile (kBlock = 64) and include non-divisible
// remainders and degenerate edges.
INSTANTIATE_TEST_SUITE_P(Jobs, BlockedConformance, ::testing::Values(1, 8));

TEST_P(BlockedConformance, GemmMatchesNaiveBitExactly) {
    par::set_jobs(GetParam());
    for (const auto [m, k, n] : {std::array{0, 7, 5}, std::array{1, 1, 1},
                                 std::array{5, 0, 3}, std::array{63, 64, 65},
                                 std::array{130, 67, 93}}) {
        const auto a = random_vector(static_cast<std::size_t>(m) * k, 11);
        const auto b = random_vector(static_cast<std::size_t>(k) * n, 13);
        std::vector<double> c(static_cast<std::size_t>(m) * n, -7.0);
        std::vector<double> ref(c.size(), 3.0);
        ak::gemm(a, b, c, m, k, n);
        ak::gemm_naive(a, b, ref, m, k, n);
        ASSERT_EQ(c.size(), ref.size());
        for (std::size_t i = 0; i < c.size(); ++i) {
            EXPECT_EQ(c[i], ref[i]) << "m=" << m << " k=" << k << " n=" << n;
        }
    }
}

TEST_P(BlockedConformance, ZgemmMatchesNaiveBitExactly) {
    par::set_jobs(GetParam());
    for (const auto [m, k, n] : {std::array{0, 3, 2}, std::array{1, 1, 1},
                                 std::array{2, 0, 2}, std::array{47, 48, 49},
                                 std::array{100, 53, 71}}) {
        const auto a = random_cvector(static_cast<std::size_t>(m) * k, 17);
        const auto b = random_cvector(static_cast<std::size_t>(k) * n, 19);
        std::vector<ak::cplx> c(static_cast<std::size_t>(m) * n);
        std::vector<ak::cplx> ref(c.size());
        ak::zgemm(a, b, c, m, k, n);
        ak::zgemm_naive(a, b, ref, m, k, n);
        for (std::size_t i = 0; i < c.size(); ++i) {
            EXPECT_EQ(c[i].real(), ref[i].real()) << "m=" << m;
            EXPECT_EQ(c[i].imag(), ref[i].imag()) << "m=" << m;
        }
    }
}
