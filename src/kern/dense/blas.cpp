#include "kern/dense/blas.hpp"

#include "kern/par.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <cmath>

namespace armstice::kern {
namespace {
/// Block edge for the cache-blocked GEMM: 64x64 doubles = 32 KiB per tile,
/// three tiles fit comfortably in a 256 KiB L2.
constexpr int kBlock = 64;
} // namespace

void axpy(double a, std::span<const double> x, std::span<double> y, OpCounts* counts) {
    ARMSTICE_CHECK(x.size() == y.size(), "axpy size mismatch");
    par::parallel_for(static_cast<long>(x.size()), [&](par::Range r) {
        for (long i = r.begin; i < r.end; ++i) {
            y[static_cast<std::size_t>(i)] += a * x[static_cast<std::size_t>(i)];
        }
    });
    if (counts) {
        counts->flops += 2.0 * static_cast<double>(x.size());
        counts->bytes_read += 16.0 * static_cast<double>(x.size());
        counts->bytes_written += 8.0 * static_cast<double>(x.size());
    }
}

void waxpby(double a, std::span<const double> x, double b, std::span<const double> y,
            std::span<double> w, OpCounts* counts) {
    ARMSTICE_CHECK(x.size() == y.size() && x.size() == w.size(), "waxpby size mismatch");
    par::parallel_for(static_cast<long>(x.size()), [&](par::Range r) {
        for (long i = r.begin; i < r.end; ++i) {
            const auto u = static_cast<std::size_t>(i);
            w[u] = a * x[u] + b * y[u];
        }
    });
    if (counts) {
        counts->flops += 3.0 * static_cast<double>(x.size());
        counts->bytes_read += 16.0 * static_cast<double>(x.size());
        counts->bytes_written += 8.0 * static_cast<double>(x.size());
    }
}

double dot(std::span<const double> x, std::span<const double> y, OpCounts* counts) {
    ARMSTICE_CHECK(x.size() == y.size(), "dot size mismatch");
    const double sum = par::reduce_sum(static_cast<long>(x.size()), [&](par::Range r) {
        double s = 0.0;
        for (long i = r.begin; i < r.end; ++i) {
            s += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        }
        return s;
    });
    if (counts) {
        counts->flops += 2.0 * static_cast<double>(x.size());
        counts->bytes_read += 16.0 * static_cast<double>(x.size());
    }
    return sum;
}

double norm2(std::span<const double> x, OpCounts* counts) {
    return std::sqrt(dot(x, x, counts));
}

void gemv(std::span<const double> a, int m, int n, std::span<const double> x,
          std::span<double> y, OpCounts* counts) {
    ARMSTICE_CHECK(a.size() == static_cast<std::size_t>(m) * n, "gemv A size mismatch");
    ARMSTICE_CHECK(x.size() == static_cast<std::size_t>(n), "gemv x size mismatch");
    ARMSTICE_CHECK(y.size() == static_cast<std::size_t>(m), "gemv y size mismatch");
    // Row-parallel; each y[i] is one serially accumulated row dot product.
    // data() pointer arithmetic: &a[...] would bind into an empty A at n == 0.
    par::parallel_for(
        m,
        [&](par::Range rows) {
            for (long i = rows.begin; i < rows.end; ++i) {
                double sum = 0.0;
                const double* row = a.data() + static_cast<std::size_t>(i) * n;
                for (int j = 0; j < n; ++j) sum += row[j] * x[static_cast<std::size_t>(j)];
                y[static_cast<std::size_t>(i)] = sum;
            }
        },
        /*align=*/1, /*grain=*/64);
    if (counts) {
        counts->flops += 2.0 * m * n;
        counts->bytes_read += 8.0 * (static_cast<double>(m) * n + n);
        counts->bytes_written += 8.0 * m;
    }
}

void gemm(std::span<const double> a, std::span<const double> b, std::span<double> c,
          int m, int k, int n, double beta, OpCounts* counts) {
    ARMSTICE_CHECK(a.size() == static_cast<std::size_t>(m) * k, "gemm A size mismatch");
    ARMSTICE_CHECK(b.size() == static_cast<std::size_t>(k) * n, "gemm B size mismatch");
    ARMSTICE_CHECK(c.size() == static_cast<std::size_t>(m) * n, "gemm C size mismatch");
    if (beta == 0.0) std::fill(c.begin(), c.end(), 0.0);

    // Parallel over kBlock-aligned row stripes: each C row belongs to one
    // task and sees the same p0/j0 update order as the serial blocking.
    par::parallel_for(
        m,
        [&](par::Range rows) {
            for (long i0 = rows.begin; i0 < rows.end; i0 += kBlock) {
                const long i1 = std::min<long>(rows.end, i0 + kBlock);
                for (int p0 = 0; p0 < k; p0 += kBlock) {
                    const int p1 = std::min(k, p0 + kBlock);
                    for (int j0 = 0; j0 < n; j0 += kBlock) {
                        const int j1 = std::min(n, j0 + kBlock);
                        for (long i = i0; i < i1; ++i) {
                            double* crow = &c[static_cast<std::size_t>(i) * n];
                            const double* arow = &a[static_cast<std::size_t>(i) * k];
                            for (int p = p0; p < p1; ++p) {
                                const double aip = arow[p];
                                const double* brow = &b[static_cast<std::size_t>(p) * n];
                                for (int j = j0; j < j1; ++j) crow[j] += aip * brow[j];
                            }
                        }
                    }
                }
            }
        },
        /*align=*/kBlock, /*grain=*/kBlock);
    if (counts) {
        counts->flops += gemm_flops(m, k, n);
        counts->bytes_read += 8.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n);
        counts->bytes_written += 8.0 * static_cast<double>(m) * n;
    }
}

void zgemm(std::span<const cplx> a, std::span<const cplx> b, std::span<cplx> c,
           int m, int k, int n, OpCounts* counts) {
    ARMSTICE_CHECK(a.size() == static_cast<std::size_t>(m) * k, "zgemm A size mismatch");
    ARMSTICE_CHECK(b.size() == static_cast<std::size_t>(k) * n, "zgemm B size mismatch");
    ARMSTICE_CHECK(c.size() == static_cast<std::size_t>(m) * n, "zgemm C size mismatch");
    std::fill(c.begin(), c.end(), cplx{0.0, 0.0});
    // Row-parallel: each C row belongs to one task and receives its k
    // updates in ascending-p order, so the result is bit-identical to
    // zgemm_naive() at any jobs. Pointer arithmetic via data() for the
    // degenerate (k or n == 0) shapes, as in zgemm_naive().
    par::parallel_for(
        m,
        [&](par::Range rows) {
            for (long i = rows.begin; i < rows.end; ++i) {
                cplx* crow = c.data() + static_cast<std::size_t>(i) * n;
                const cplx* arow = a.data() + static_cast<std::size_t>(i) * k;
                for (int p = 0; p < k; ++p) {
                    const cplx aip = arow[p];
                    const cplx* brow = b.data() + static_cast<std::size_t>(p) * n;
                    for (int j = 0; j < n; ++j) crow[j] += aip * brow[j];
                }
            }
        },
        /*align=*/1, /*grain=*/8);
    if (counts) {
        counts->flops += zgemm_flops(m, k, n);
        counts->bytes_read +=
            16.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n);
        counts->bytes_written += 16.0 * static_cast<double>(m) * n;
    }
}

void zgemm_naive(std::span<const cplx> a, std::span<const cplx> b,
                 std::span<cplx> c, int m, int k, int n) {
    ARMSTICE_CHECK(c.size() == static_cast<std::size_t>(m) * n, "zgemm_naive C size");
    std::fill(c.begin(), c.end(), cplx{0.0, 0.0});
    // Pointer arithmetic via data(): &span[i] on a degenerate (k or n == 0)
    // operand would bind a reference into an empty span.
    for (int i = 0; i < m; ++i) {
        cplx* crow = c.data() + static_cast<std::size_t>(i) * n;
        const cplx* arow = a.data() + static_cast<std::size_t>(i) * k;
        for (int p = 0; p < k; ++p) {
            const cplx aip = arow[p];
            const cplx* brow = b.data() + static_cast<std::size_t>(p) * n;
            for (int j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
    }
}

void gemm_naive(std::span<const double> a, std::span<const double> b,
                std::span<double> c, int m, int k, int n) {
    ARMSTICE_CHECK(c.size() == static_cast<std::size_t>(m) * n, "gemm_naive C size");
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            double sum = 0.0;
            for (int p = 0; p < k; ++p) {
                sum += a[static_cast<std::size_t>(i) * k + p] *
                       b[static_cast<std::size_t>(p) * n + j];
            }
            c[static_cast<std::size_t>(i) * n + j] = sum;
        }
    }
}

} // namespace armstice::kern
