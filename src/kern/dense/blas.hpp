#pragma once
// blas-lite: the dense kernels the workloads are built from. Real,
// cache-blocked implementations with exact operation counting — these stand
// in for MKL/SSL2/ArmPL in the reference applications (DESIGN.md §2).

#include "kern/counters.hpp"

#include <complex>
#include <span>
#include <vector>

namespace armstice::kern {

using cplx = std::complex<double>;

/// y += a*x  (2n flops).
void axpy(double a, std::span<const double> x, std::span<double> y,
          OpCounts* counts = nullptr);

/// w = a*x + b*y (HPCG's WAXPBY; 3n flops).
void waxpby(double a, std::span<const double> x, double b, std::span<const double> y,
            std::span<double> w, OpCounts* counts = nullptr);

/// dot(x, y) (2n flops). Summed by kern::par's fixed-block pairwise scheme,
/// so the result is bit-identical at every par::jobs() value (and equal to
/// the plain serial loop whenever n <= par::kReduceBlock).
double dot(std::span<const double> x, std::span<const double> y,
           OpCounts* counts = nullptr);

/// ||x||_2 (same deterministic summation as dot).
double norm2(std::span<const double> x, OpCounts* counts = nullptr);

/// y = A*x for row-major A (m x n).
void gemv(std::span<const double> a, int m, int n, std::span<const double> x,
          std::span<double> y, OpCounts* counts = nullptr);

/// C = A*B for row-major matrices (m x k)(k x n), cache-blocked.
/// `beta` selects accumulate (1) or overwrite (0).
void gemm(std::span<const double> a, std::span<const double> b, std::span<double> c,
          int m, int k, int n, double beta = 0.0, OpCounts* counts = nullptr);

/// Complex GEMM (CASTEP's subspace operations are ZGEMMs);
/// bit-identical to zgemm_naive() at every par::jobs() value.
void zgemm(std::span<const cplx> a, std::span<const cplx> b, std::span<cplx> c,
           int m, int k, int n, OpCounts* counts = nullptr);

/// Reference (naive triple loop) GEMM used by tests to validate gemm().
void gemm_naive(std::span<const double> a, std::span<const double> b,
                std::span<double> c, int m, int k, int n);

/// Reference (serial) complex GEMM used by tests to validate zgemm()'s
/// row partitioning.
void zgemm_naive(std::span<const cplx> a, std::span<const cplx> b,
                 std::span<cplx> c, int m, int k, int n);

/// Analytic counts (used by skeletons and verified against instrumented runs).
inline double gemm_flops(long m, long k, long n) { return 2.0 * m * k * n; }
inline double zgemm_flops(long m, long k, long n) { return 8.0 * m * k * n; }

} // namespace armstice::kern
