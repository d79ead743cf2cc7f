#include "kern/nek/spectral.hpp"

#include "kern/par.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace armstice::kern {
namespace {

/// Legendre P_N(x) and its derivative via the three-term recurrence.
void legendre(int n, double x, double& p, double& dp) {
    double p0 = 1.0, p1 = x;
    if (n == 0) {
        p = 1.0;
        dp = 0.0;
        return;
    }
    for (int k = 2; k <= n; ++k) {
        const double pk = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
        p0 = p1;
        p1 = pk;
    }
    p = p1;
    // P'_N(x) = N (x P_N - P_{N-1}) / (x^2 - 1), valid for |x| != 1.
    dp = (std::abs(x) < 1.0) ? n * (x * p1 - p0) / (x * x - 1.0) : 0.0;
}

} // namespace

void gll_points(int n, std::vector<double>& x, std::vector<double>& w) {
    ARMSTICE_CHECK(n >= 2, "GLL needs >=2 points");
    const int big_n = n - 1;  // polynomial order
    x.assign(static_cast<std::size_t>(n), 0.0);
    w.assign(static_cast<std::size_t>(n), 0.0);
    x[0] = -1.0;
    x[static_cast<std::size_t>(n - 1)] = 1.0;

    // Interior points: roots of P'_N. Newton from Chebyshev-Lobatto guesses.
    for (int j = 1; j < n - 1; ++j) {
        double xi = -std::cos(std::numbers::pi * j / big_n);
        for (int it = 0; it < 100; ++it) {
            double p, dp;
            legendre(big_n, xi, p, dp);
            // f = P'_N, f' = P''_N = (2x P'_N - N(N+1) P_N) / (1 - x^2).
            const double f = dp;
            const double fp = (2.0 * xi * dp - big_n * (big_n + 1.0) * p) /
                              (1.0 - xi * xi);
            const double step = f / fp;
            xi -= step;
            if (std::abs(step) < 1e-15) break;
        }
        x[static_cast<std::size_t>(j)] = xi;
    }
    std::sort(x.begin(), x.end());

    for (int j = 0; j < n; ++j) {
        double p, dp;
        legendre(big_n, x[static_cast<std::size_t>(j)], p, dp);
        w[static_cast<std::size_t>(j)] = 2.0 / (big_n * (big_n + 1.0) * p * p);
    }
}

std::vector<double> gll_deriv_matrix(int n) {
    std::vector<double> x, w;
    gll_points(n, x, w);
    const int big_n = n - 1;
    std::vector<double> d(static_cast<std::size_t>(n) * n, 0.0);
    std::vector<double> pn(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        double p, dp;
        legendre(big_n, x[static_cast<std::size_t>(i)], p, dp);
        pn[static_cast<std::size_t>(i)] = p;
    }
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j) continue;
            d[static_cast<std::size_t>(i) * n + j] =
                pn[static_cast<std::size_t>(i)] /
                (pn[static_cast<std::size_t>(j)] *
                 (x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)]));
        }
    }
    d[0] = -big_n * (big_n + 1.0) / 4.0;
    d[static_cast<std::size_t>(n) * n - 1] = big_n * (big_n + 1.0) / 4.0;
    return d;
}

NekMesh::NekMesh(int nelems, int nx1) : nelems_(nelems), nx1_(nx1) {
    ARMSTICE_CHECK(nelems >= 1, "NekMesh needs >=1 element");
    ARMSTICE_CHECK(nx1 >= 2, "NekMesh needs >=2 points per direction");
    dmat_ = gll_deriv_matrix(nx1);
    std::vector<double> x, w;
    gll_points(nx1, x, w);
    // Diagonal geometric factor: quadrature weight product (unit-cube
    // elements); stored once per point, reused by all elements.
    geom_.resize(static_cast<std::size_t>(nx1) * nx1 * nx1);
    for (int k = 0; k < nx1; ++k) {
        for (int j = 0; j < nx1; ++j) {
            for (int i = 0; i < nx1; ++i) {
                geom_[(static_cast<std::size_t>(k) * nx1 + j) * nx1 +
                      static_cast<std::size_t>(i)] =
                    w[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(j)] *
                    w[static_cast<std::size_t>(k)];
            }
        }
    }
}

void NekMesh::dssum(std::span<double> u, OpCounts* counts) const {
    const int n = nx1_;
    const std::size_t epts = static_cast<std::size_t>(n) * n * n;
    for (int e = 0; e + 1 < nelems_; ++e) {
        double* left = &u[static_cast<std::size_t>(e) * epts];
        double* right = &u[(static_cast<std::size_t>(e) + 1) * epts];
        for (int k = 0; k < n; ++k) {
            for (int j = 0; j < n; ++j) {
                const std::size_t lo =
                    (static_cast<std::size_t>(k) * n + j) * n + static_cast<std::size_t>(n - 1);
                const std::size_t ro = (static_cast<std::size_t>(k) * n + j) * n;
                const double s = left[lo] + right[ro];
                left[lo] = s;
                right[ro] = s;
            }
        }
    }
    if (counts) {
        counts->flops += static_cast<double>(nelems_ - 1) * n * n;
        counts->bytes_read += 16.0 * static_cast<double>(nelems_ - 1) * n * n;
        counts->bytes_written += 16.0 * static_cast<double>(nelems_ - 1) * n * n;
    }
}

void NekMesh::mask(std::span<double> u) const {
    const int n = nx1_;
    for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
            u[(static_cast<std::size_t>(k) * n + j) * n] = 0.0;  // x=0 face of elem 0
        }
    }
}

void NekMesh::ax(std::span<const double> u, std::span<double> w, OpCounts* counts) const {
    const int n = nx1_;
    const std::size_t epts = static_cast<std::size_t>(n) * n * n;
    ARMSTICE_CHECK(u.size() == static_cast<std::size_t>(local_dofs()), "ax u size");
    ARMSTICE_CHECK(w.size() == u.size(), "ax w size");

    const double* d = dmat_.data();

    // Element-parallel: every element writes only its own w block, with
    // per-task gradient scratch. dssum (the inter-element face coupling)
    // runs serially afterwards.
    par::parallel_for(
        nelems_,
        [&](par::Range elems) {
            std::vector<double> ur(epts), us(epts), ut(epts);
            for (long e = elems.begin; e < elems.end; ++e) {
                const double* ue = &u[static_cast<std::size_t>(e) * epts];
                double* we = &w[static_cast<std::size_t>(e) * epts];
                auto at = [n](int i, int j, int k) {
                    return (static_cast<std::size_t>(k) * n + j) * n +
                           static_cast<std::size_t>(i);
                };

                // local_grad3: ur = D u (x), us = u D^T (y), ut = (z).
                for (int k = 0; k < n; ++k) {
                    for (int j = 0; j < n; ++j) {
                        for (int i = 0; i < n; ++i) {
                            double sr = 0, ss = 0, st = 0;
                            for (int l = 0; l < n; ++l) {
                                sr += d[static_cast<std::size_t>(i) * n + l] * ue[at(l, j, k)];
                                ss += d[static_cast<std::size_t>(j) * n + l] * ue[at(i, l, k)];
                                st += d[static_cast<std::size_t>(k) * n + l] * ue[at(i, j, l)];
                            }
                            ur[at(i, j, k)] = sr;
                            us[at(i, j, k)] = ss;
                            ut[at(i, j, k)] = st;
                        }
                    }
                }

                // Geometric factors (diagonal metric: g2=g3=g5=0, g1=g4=g6=geom).
                // Nekbone applies the full 6-term symmetric metric; we keep the
                // 15-flop structure with the off-diagonal terms explicitly zero.
                for (std::size_t p = 0; p < epts; ++p) {
                    const double g1 = geom_[p], g4 = geom_[p], g6 = geom_[p];
                    const double g2 = 0.0, g3 = 0.0, g5 = 0.0;
                    const double a = g1 * ur[p] + g2 * us[p] + g3 * ut[p];
                    const double b = g2 * ur[p] + g4 * us[p] + g5 * ut[p];
                    const double c = g3 * ur[p] + g5 * us[p] + g6 * ut[p];
                    ur[p] = a;
                    us[p] = b;
                    ut[p] = c;
                }

                // local_grad3^T: w = D^T ur + us D + ...
                for (int k = 0; k < n; ++k) {
                    for (int j = 0; j < n; ++j) {
                        for (int i = 0; i < n; ++i) {
                            double sum = 0;
                            for (int l = 0; l < n; ++l) {
                                sum += d[static_cast<std::size_t>(l) * n + i] * ur[at(l, j, k)];
                                sum += d[static_cast<std::size_t>(l) * n + j] * us[at(i, l, k)];
                                sum += d[static_cast<std::size_t>(l) * n + k] * ut[at(i, j, l)];
                            }
                            we[at(i, j, k)] = sum;
                        }
                    }
                }
            }
        },
        /*align=*/1, /*grain=*/2);

    if (counts) {
        counts->flops += ax_flops(nelems_, n) -
                         static_cast<double>(nelems_ - 1) * n * n;  // dssum adds below
        const double epts_d = static_cast<double>(epts);
        counts->bytes_read += nelems_ * (8.0 * epts_d * 8.0);   // u, D rows, temps
        counts->bytes_written += nelems_ * (8.0 * epts_d * 4.0);
    }

    dssum(w, counts);
    mask(w);
}

double NekMesh::ax_flops(int nelems, int nx1) {
    const double n4 = static_cast<double>(nx1) * nx1 * nx1 * nx1;
    const double n3 = static_cast<double>(nx1) * nx1 * nx1;
    // grad: 3 directions x 2 flops x n^4; metric: 15 n^3; grad^T: 6 n^4;
    // dssum: (E-1) n^2.
    return nelems * (12.0 * n4 + 15.0 * n3) +
           static_cast<double>(nelems - 1) * nx1 * nx1;
}

CgResult NekMesh::cg(std::span<const double> f, std::span<double> u, int iters) const {
    const std::size_t n = static_cast<std::size_t>(local_dofs());
    ARMSTICE_CHECK(f.size() == n && u.size() == n, "nek cg size mismatch");
    ARMSTICE_CHECK(iters >= 1, "nek cg needs >=1 iteration");

    // Multiplicity weights: shared face dofs count 1/2 (Nekbone's vmult).
    std::vector<double> vmult(n, 1.0);
    {
        const int nn = nx1_;
        const std::size_t epts = static_cast<std::size_t>(nn) * nn * nn;
        for (int e = 0; e + 1 < nelems_; ++e) {
            for (int k = 0; k < nn; ++k) {
                for (int j = 0; j < nn; ++j) {
                    vmult[static_cast<std::size_t>(e) * epts +
                          (static_cast<std::size_t>(k) * nn + j) * nn + (nn - 1)] = 0.5;
                    vmult[(static_cast<std::size_t>(e) + 1) * epts +
                          (static_cast<std::size_t>(k) * nn + j) * nn] = 0.5;
                }
            }
        }
    }
    // Multiplicity-weighted dot via the fixed-block pairwise reduction, so
    // the CG residual history is bit-identical at every thread count.
    auto wdot = [&](std::span<const double> a, std::span<const double> b) {
        return par::reduce_sum(static_cast<long>(n), [&](par::Range r) {
            double s = 0;
            for (long i = r.begin; i < r.end; ++i) {
                const auto k = static_cast<std::size_t>(i);
                s += a[k] * b[k] * vmult[k];
            }
            return s;
        });
    };

    CgResult res;
    std::vector<double> r(f.begin(), f.end()), p(n), apv(n);
    std::fill(u.begin(), u.end(), 0.0);
    mask(r);
    std::copy(r.begin(), r.end(), p.begin());
    double rr = wdot(r, r);
    const double r0 = std::sqrt(rr);
    res.counts.flops += 3.0 * static_cast<double>(n);

    for (int it = 0; it < iters && rr > 0.0; ++it) {
        ax(p, apv, &res.counts);
        const double pap = wdot(p, apv);
        ARMSTICE_CHECK(pap > 0.0, "nek cg: operator not SPD");
        const double alpha = rr / pap;
        par::parallel_for(static_cast<long>(n), [&](par::Range rng) {
            for (long i = rng.begin; i < rng.end; ++i) {
                const auto ii = static_cast<std::size_t>(i);
                u[ii] += alpha * p[ii];
                r[ii] -= alpha * apv[ii];
            }
        });
        const double rr_new = wdot(r, r);
        const double beta = rr_new / rr;
        rr = rr_new;
        par::parallel_for(static_cast<long>(n), [&](par::Range rng) {
            for (long i = rng.begin; i < rng.end; ++i) {
                const auto ii = static_cast<std::size_t>(i);
                p[ii] = r[ii] + beta * p[ii];
            }
        });
        res.counts.flops += 13.0 * static_cast<double>(n);
        res.iterations = it + 1;
        res.residuals.push_back(r0 > 0 ? std::sqrt(rr) / r0 : 0.0);
    }
    res.final_residual = res.residuals.empty() ? 0.0 : res.residuals.back();
    res.converged = res.final_residual < 1e-6;
    return res;
}

} // namespace armstice::kern
