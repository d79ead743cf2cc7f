// Deep tests of the sparse kernels: CSR construction, SpMV, SymGS, CG,
// multigrid — correctness and exact-count properties.

#include "kern/dense/blas.hpp"
#include "kern/sparse/cg.hpp"
#include "kern/sparse/multigrid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

namespace ak = armstice::kern;

TEST(Csr, TripletsSortedAndDuplicatesSummed) {
    ak::CsrMatrix a(2, 2, {{1, 0, 3.0}, {0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 4.0}});
    EXPECT_EQ(a.nnz(), 3);
    std::vector<double> x{1.0, 1.0}, y(2);
    a.spmv(x, y);
    EXPECT_DOUBLE_EQ(y[0], 3.0);  // 1+2 summed on the diagonal
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Csr, OutOfRangeTripletThrows) {
    EXPECT_THROW(ak::CsrMatrix(2, 2, {{2, 0, 1.0}}), armstice::util::Error);
    EXPECT_THROW(ak::CsrMatrix(2, 2, {{0, -1, 1.0}}), armstice::util::Error);
}

TEST(Csr, SpmvSizeChecks) {
    const auto a = ak::poisson7(4, 4, 4);
    std::vector<double> bad(3), y(static_cast<std::size_t>(a.rows()));
    EXPECT_THROW(a.spmv(bad, y), armstice::util::Error);
}

namespace {

/// One SpMV input, named by its ctest suffix: random_spd(n) matrices plus
/// the degenerate shapes (no rows, no columns, rows with no entries).
struct SpmvShape {
    std::string name;
    ak::CsrMatrix a;
};

void PrintTo(const SpmvShape& s, std::ostream* os) { *os << s.name; }

SpmvShape spd(long n) {
    return {std::to_string(n), ak::random_spd(n, 3, 17u + static_cast<unsigned long>(n))};
}

} // namespace

class SpmvVsDense : public ::testing::TestWithParam<SpmvShape> {};

TEST_P(SpmvVsDense, MatchesDenseReference) {
    const auto& a = GetParam().a;
    const long rows = a.rows(), cols = a.cols();
    armstice::util::Rng rng(5);
    std::vector<double> x(static_cast<std::size_t>(cols));
    for (auto& v : x) v = rng.uniform(-1, 1);

    // Densify and multiply with gemv.
    std::vector<double> dense(static_cast<std::size_t>(rows * cols), 0.0);
    for (long i = 0; i < rows; ++i) {
        for (long k = a.row_ptr()[static_cast<std::size_t>(i)];
             k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
            dense[static_cast<std::size_t>(i * cols) +
                  static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])] =
                a.vals()[static_cast<std::size_t>(k)];
        }
    }
    std::vector<double> y_sparse(static_cast<std::size_t>(rows), -1.0),
        y_dense(static_cast<std::size_t>(rows));
    a.spmv(x, y_sparse);
    ak::gemv(dense, static_cast<int>(rows), static_cast<int>(cols), x, y_dense);
    for (std::size_t i = 0; i < y_sparse.size(); ++i) {
        EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpmvVsDense,
    ::testing::Values(spd(5), spd(17), spd(64), spd(200),
                      SpmvShape{"0x0", ak::CsrMatrix(0, 0, {})},
                      SpmvShape{"3x0", ak::CsrMatrix(3, 0, {})},
                      SpmvShape{"4x5_empty_rows",
                                ak::CsrMatrix(4, 5, {{0, 4, 2.5}, {3, 0, -1.0}})}));

TEST(Csr, SpmvCountsAreExact) {
    const auto a = ak::poisson27(6, 6, 6);
    ak::OpCounts c;
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0), y(x.size());
    a.spmv(x, y, &c);
    EXPECT_DOUBLE_EQ(c.flops, 2.0 * static_cast<double>(a.nnz()));
    EXPECT_DOUBLE_EQ(c.bytes_written, 8.0 * static_cast<double>(a.rows()));
}

TEST(Csr, DiagonalExtraction) {
    const auto a = ak::poisson27(4, 4, 4);
    const auto d = a.diagonal();
    for (double v : d) EXPECT_DOUBLE_EQ(v, 26.0);
}

class SymGsSmoother : public ::testing::TestWithParam<int> {};

TEST_P(SymGsSmoother, ReducesResidualMonotonically) {
    const int n = GetParam();
    const auto a = ak::poisson7(n, n, n);
    const std::size_t rows = static_cast<std::size_t>(a.rows());
    std::vector<double> b(rows, 1.0), x(rows, 0.0), ax(rows);

    auto residual = [&] {
        a.spmv(x, ax);
        double sum = 0;
        for (std::size_t i = 0; i < rows; ++i) sum += (b[i] - ax[i]) * (b[i] - ax[i]);
        return std::sqrt(sum);
    };

    double prev = residual();
    for (int sweep = 0; sweep < 4; ++sweep) {
        a.symgs(b, x);
        const double cur = residual();
        EXPECT_LT(cur, prev);
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(Grids, SymGsSmoother, ::testing::Values(4, 6, 8, 10));

TEST(SymGs, ZeroDiagonalThrows) {
    ak::CsrMatrix a(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
    std::vector<double> r(2, 1.0), x(2, 0.0);
    EXPECT_THROW(a.symgs(r, x), armstice::util::Error);
}

TEST(Poisson, NnzMatchesClosedForm) {
    // nnz of the 27-point operator = prod(3n-2) — the formula the HPCG
    // skeleton uses; cross-checked against the real matrix builder.
    for (int n : {2, 3, 4, 5, 8}) {
        const auto a = ak::poisson27(n, n, n);
        const double expect = std::pow(3.0 * n - 2.0, 3);
        EXPECT_DOUBLE_EQ(static_cast<double>(a.nnz()), expect) << n;
    }
}

TEST(Poisson, Poisson7SevenPointInterior) {
    const auto a = ak::poisson7(5, 5, 5);
    // interior row has 7 entries: nnz = sum over rows of (1 + faces present).
    EXPECT_EQ(a.rows(), 125);
    // 1D: 3n-2 = 13 per line; 7-pt nnz = 3*n^3 - 2*... use direct count:
    // each dim contributes (n-1) interior links *2 directed + n diagonal.
    const long links = 3L * 5 * 5 * (5 - 1) * 2;
    EXPECT_EQ(a.nnz(), 125 + links);
}

class CgConvergence : public ::testing::TestWithParam<long> {};

TEST_P(CgConvergence, SolvesRandomSpdToTolerance) {
    const long n = GetParam();
    const auto a = ak::random_spd(n, 4, 99);
    // Manufactured solution.
    armstice::util::Rng rng(3);
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    std::vector<double> b(static_cast<std::size_t>(n));
    a.spmv(x_true, b);

    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const auto res = ak::cg_solve(a, b, x, {.max_iters = 2000, .rel_tol = 1e-10});
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgConvergence, ::testing::Values(10L, 50L, 300L));

TEST(Cg, IdentityConvergesInOneIteration) {
    std::vector<ak::Triplet> trip;
    for (long i = 0; i < 20; ++i) trip.push_back({i, i, 1.0});
    const ak::CsrMatrix eye(20, 20, std::move(trip));
    std::vector<double> b(20, 3.0), x(20, 0.0);
    const auto res = ak::cg_solve(eye, b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 1);
    EXPECT_DOUBLE_EQ(x[7], 3.0);
}

TEST(Cg, ZeroRhsReturnsZero) {
    const auto a = ak::poisson7(3, 3, 3);
    std::vector<double> b(static_cast<std::size_t>(a.rows()), 0.0), x(b.size(), 5.0);
    const auto res = ak::cg_solve(a, b, x);
    EXPECT_TRUE(res.converged);
    for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, ResidualHistoryDecreasesOverall) {
    const auto a = ak::poisson27(8, 8, 8);
    std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0), x(b.size(), 0.0);
    const auto res = ak::cg_solve(a, b, x, {.max_iters = 100, .rel_tol = 1e-12});
    ASSERT_GE(res.residuals.size(), 2u);
    EXPECT_LT(res.residuals.back(), res.residuals.front());
}

TEST(Cg, NonSquareRejected) {
    ak::CsrMatrix a(2, 3, {{0, 0, 1.0}});
    std::vector<double> b(2), x(2);
    EXPECT_THROW((void)ak::cg_solve(a, b, x), armstice::util::Error);
}

TEST(Cg, IterationCountFormulasTrackInstrumented) {
    // Counts per iteration from the instrumented solver must be close to the
    // analytic cg_iter_flops/bytes used by the minikab skeleton.
    const auto a = ak::random_spd(500, 5, 12);
    std::vector<double> b(500, 1.0), x(500, 0.0);
    const auto res = ak::cg_solve(a, b, x, {.max_iters = 50, .rel_tol = 0.0});
    ASSERT_EQ(res.iterations, 50);
    const double per_iter_flops = res.counts.flops / 50.0;
    EXPECT_NEAR(per_iter_flops, ak::cg_iter_flops(a), 0.1 * ak::cg_iter_flops(a));
    const double per_iter_bytes = res.counts.bytes() / 50.0;
    EXPECT_NEAR(per_iter_bytes, ak::cg_iter_bytes(a), 0.25 * ak::cg_iter_bytes(a));
}

TEST(Multigrid, LevelSizesHalve) {
    const ak::Multigrid mg(16, 16, 16, 3);
    EXPECT_EQ(mg.levels(), 3);
    EXPECT_EQ(mg.rows(0), 16L * 16 * 16);
    EXPECT_EQ(mg.rows(1), 8L * 8 * 8);
    EXPECT_EQ(mg.rows(2), 4L * 4 * 4);
}

TEST(Multigrid, IndivisibleGridRejected) {
    EXPECT_THROW(ak::Multigrid(10, 10, 10, 3), armstice::util::Error);  // 5/2
    EXPECT_THROW(ak::Multigrid(2, 2, 2, 3), armstice::util::Error);     // too deep
}

class VcyclePreconditioner : public ::testing::TestWithParam<int> {};

TEST_P(VcyclePreconditioner, ContractsTheError) {
    const int n = GetParam();
    const ak::Multigrid mg(n, n, n, 2);
    const auto& a = mg.matrix(0);
    const std::size_t rows = static_cast<std::size_t>(a.rows());
    std::vector<double> b(rows, 1.0), x(rows, 0.0), ax(rows), r(rows);

    // One V-cycle applied to the residual equation must shrink ||b - Ax||.
    auto rnorm = [&] {
        a.spmv(x, ax);
        double s = 0;
        for (std::size_t i = 0; i < rows; ++i) s += (b[i] - ax[i]) * (b[i] - ax[i]);
        return std::sqrt(s);
    };
    // HPCG-style injection transfer operators give modest but monotone
    // contraction; three cycles must shrink the residual substantially.
    const double r0 = rnorm();
    double prev = r0;
    std::vector<double> z(rows);
    for (int cycle = 0; cycle < 3; ++cycle) {
        a.spmv(x, ax);
        for (std::size_t i = 0; i < rows; ++i) r[i] = b[i] - ax[i];
        mg.vcycle(r, z);
        for (std::size_t i = 0; i < rows; ++i) x[i] += z[i];
        const double cur = rnorm();
        EXPECT_LT(cur, prev);
        prev = cur;
    }
    EXPECT_LT(prev, 0.4 * r0);
}

INSTANTIATE_TEST_SUITE_P(Grids, VcyclePreconditioner, ::testing::Values(8, 12, 16));

TEST(RandomSpd, IsSymmetric) {
    const auto a = ak::random_spd(50, 4, 7);
    // Verify A = A^T via random vectors: x'Ay == y'Ax.
    armstice::util::Rng rng(1);
    std::vector<double> x(50), y(50), ax(50), ay(50);
    for (auto& v : x) v = rng.uniform(-1, 1);
    for (auto& v : y) v = rng.uniform(-1, 1);
    a.spmv(x, ax);
    a.spmv(y, ay);
    EXPECT_NEAR(ak::dot(y, ax), ak::dot(x, ay), 1e-9);
}
