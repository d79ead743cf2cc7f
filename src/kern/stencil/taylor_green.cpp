#include "kern/stencil/taylor_green.hpp"

#include "kern/par.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace armstice::kern {
namespace {
constexpr double kPi = std::numbers::pi;
} // namespace

TaylorGreen::TaylorGreen(int n, double mach, double viscosity)
    : n_(n), h_(2.0 * kPi / n), nu_(viscosity) {
    ARMSTICE_CHECK(n >= 8, "TaylorGreen grid too small (need >=8 for the stencil)");
    ARMSTICE_CHECK(mach > 0.0 && mach < 0.5, "TaylorGreen expects subsonic Mach");
    ARMSTICE_CHECK(viscosity >= 0.0, "negative viscosity");
    const std::size_t nn = static_cast<std::size_t>(n) * n * n;
    u_.assign(static_cast<std::size_t>(kVars) * nn, 0.0);

    // Base state: rho0 = 1, p0 = 1/gamma so the sound speed c = 1; the
    // reference velocity is then V0 = mach.
    const double rho0 = 1.0;
    const double p0 = 1.0 / gamma_;
    const double v0 = mach;

    for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
            for (int i = 0; i < n; ++i) {
                const double x = (i + 0.5) * h_;
                const double y = (j + 0.5) * h_;
                const double z = (k + 0.5) * h_;
                const std::size_t p =
                    (static_cast<std::size_t>(k) * n + j) * n + static_cast<std::size_t>(i);
                const double uu = v0 * std::sin(x) * std::cos(y) * std::cos(z);
                const double vv = -v0 * std::cos(x) * std::sin(y) * std::cos(z);
                const double ww = 0.0;
                const double pp =
                    p0 + rho0 * v0 * v0 / 16.0 *
                             (std::cos(2 * x) + std::cos(2 * y)) * (std::cos(2 * z) + 2.0);
                const double rho = rho0;  // low-Mach: density perturbation ~ M^2, folded into p
                u_[0 * nn + p] = rho;
                u_[1 * nn + p] = rho * uu;
                u_[2 * nn + p] = rho * vv;
                u_[3 * nn + p] = rho * ww;
                u_[4 * nn + p] =
                    pp / (gamma_ - 1.0) + 0.5 * rho * (uu * uu + vv * vv + ww * ww);
            }
        }
    }
}

double TaylorGreen::stable_dt() const {
    // CFL for 4th-order central + RK3 with c ~= 1 and |u| << c, combined
    // with the explicit-diffusion limit dt <= h^2/(6 nu) when viscous.
    const double advective = 0.4 * h_ / (1.0 + 2.0 * max_speed());
    if (nu_ <= 0.0) return advective;
    const double viscous = 0.2 * h_ * h_ / (6.0 * nu_);
    return std::min(advective, viscous);
}

void TaylorGreen::rhs(const std::vector<double>& u, std::vector<double>& out,
                      OpCounts* counts) const {
    const int n = n_;
    const std::size_t nn = static_cast<std::size_t>(n) * n * n;
    out.assign(u.size(), 0.0);

    auto wrap = [n](int i) { return (i + n) % n; };
    auto idx = [n](int i, int j, int k) {
        return (static_cast<std::size_t>(k) * n + j) * n + static_cast<std::size_t>(i);
    };

    // Flux vector in one direction at one point.
    struct Flux {
        double f[kVars];
    };
    auto point_flux = [&](std::size_t p, int dir) -> Flux {
        const double rho = u[0 * nn + p];
        const double mx = u[1 * nn + p];
        const double my = u[2 * nn + p];
        const double mz = u[3 * nn + p];
        const double e = u[4 * nn + p];
        const double inv_rho = 1.0 / rho;
        const double vx = mx * inv_rho, vy = my * inv_rho, vz = mz * inv_rho;
        const double pr = (gamma_ - 1.0) * (e - 0.5 * rho * (vx * vx + vy * vy + vz * vz));
        const double vn = dir == 0 ? vx : (dir == 1 ? vy : vz);
        Flux fl;
        fl.f[0] = rho * vn;
        fl.f[1] = mx * vn + (dir == 0 ? pr : 0.0);
        fl.f[2] = my * vn + (dir == 1 ? pr : 0.0);
        fl.f[3] = mz * vn + (dir == 2 ? pr : 0.0);
        fl.f[4] = (e + pr) * vn;
        return fl;
    };

    const double c1 = 8.0 / (12.0 * h_);
    const double c2 = 1.0 / (12.0 * h_);

    // The dir loop stays serial (every point accumulates its three
    // directional contributions in dir order); within a direction the
    // k-planes write disjoint points, so they partition freely.
    for (int dir = 0; dir < 3; ++dir) {
        par::parallel_for(
            n,
            [&](par::Range planes) {
                for (long k = planes.begin; k < planes.end; ++k) {
                    for (int j = 0; j < n; ++j) {
                        for (int i = 0; i < n; ++i) {
                            auto shift = [&](int off) {
                                const int ii = dir == 0 ? wrap(i + off) : i;
                                const int jj = dir == 1 ? wrap(j + off) : j;
                                const int kk =
                                    dir == 2 ? wrap(static_cast<int>(k) + off)
                                             : static_cast<int>(k);
                                return idx(ii, jj, kk);
                            };
                            const Flux fp1 = point_flux(shift(+1), dir);
                            const Flux fm1 = point_flux(shift(-1), dir);
                            const Flux fp2 = point_flux(shift(+2), dir);
                            const Flux fm2 = point_flux(shift(-2), dir);
                            const std::size_t p = idx(i, j, static_cast<int>(k));
                            for (int v = 0; v < kVars; ++v) {
                                out[static_cast<std::size_t>(v) * nn + p] -=
                                    c1 * (fp1.f[v] - fm1.f[v]) - c2 * (fp2.f[v] - fm2.f[v]);
                            }
                        }
                    }
                }
            },
            /*align=*/1, /*grain=*/2);
    }

    // Momentum diffusion (low-Mach Navier-Stokes regularisation): a
    // second-order Laplacian of each momentum component. For the TGV's
    // single-mode initial field, nabla^2 u = -3u, so kinetic energy decays
    // as exp(-6 nu t) at early times — the property tests check this.
    if (nu_ > 0.0) {
        const double inv_h2 = 1.0 / (h_ * h_);
        for (int v = 1; v <= 3; ++v) {
            const double* uv = &u[static_cast<std::size_t>(v) * nn];
            double* ov = &out[static_cast<std::size_t>(v) * nn];
            par::parallel_for(
                n,
                [&](par::Range planes) {
                    for (long kk = planes.begin; kk < planes.end; ++kk) {
                        const int k = static_cast<int>(kk);
                        for (int j = 0; j < n; ++j) {
                            for (int i = 0; i < n; ++i) {
                                const std::size_t p = idx(i, j, k);
                                const double lap =
                                    (uv[idx(wrap(i + 1), j, k)] + uv[idx(wrap(i - 1), j, k)] +
                                     uv[idx(i, wrap(j + 1), k)] + uv[idx(i, wrap(j - 1), k)] +
                                     uv[idx(i, j, wrap(k + 1))] + uv[idx(i, j, wrap(k - 1))] -
                                     6.0 * uv[p]) *
                                    inv_h2;
                                ov[p] += nu_ * lap;
                            }
                        }
                    }
                },
                /*align=*/1, /*grain=*/2);
        }
        if (counts) {
            counts->flops += 3.0 * 10.0 * static_cast<double>(nn);
            counts->bytes_read += 3.0 * 7.0 * 8.0 * static_cast<double>(nn);
            counts->bytes_written += 3.0 * 8.0 * static_cast<double>(nn);
        }
    }

    if (counts) {
        // Per point per direction: 4 flux evaluations (~24 flops each) +
        // 5 derivative combinations (4 flops each) = 116; x3 directions.
        counts->flops += 348.0 * static_cast<double>(nn);
        counts->bytes_read += 3.0 * 4.0 * kVars * 8.0 * static_cast<double>(nn);
        counts->bytes_written += 3.0 * kVars * 8.0 * static_cast<double>(nn);
    }
}

void TaylorGreen::step(double dt, OpCounts* counts) {
    ARMSTICE_CHECK(dt > 0.0, "dt must be positive");
    const std::size_t total = u_.size();
    std::vector<double> k1(total), u1(total), u2(total);

    // SSP-RK3 (Shu-Osher). The stage combinations are element-wise.
    rhs(u_, k1, counts);
    par::parallel_for(static_cast<long>(total), [&](par::Range r) {
        for (long i = r.begin; i < r.end; ++i) {
            const auto u = static_cast<std::size_t>(i);
            u1[u] = u_[u] + dt * k1[u];
        }
    });

    rhs(u1, k1, counts);
    par::parallel_for(static_cast<long>(total), [&](par::Range r) {
        for (long i = r.begin; i < r.end; ++i) {
            const auto u = static_cast<std::size_t>(i);
            u2[u] = 0.75 * u_[u] + 0.25 * (u1[u] + dt * k1[u]);
        }
    });

    rhs(u2, k1, counts);
    par::parallel_for(static_cast<long>(total), [&](par::Range r) {
        for (long i = r.begin; i < r.end; ++i) {
            const auto u = static_cast<std::size_t>(i);
            u_[u] = (1.0 / 3.0) * u_[u] + (2.0 / 3.0) * (u2[u] + dt * k1[u]);
        }
    });

    if (counts) {
        counts->flops += 11.0 * static_cast<double>(total);
        counts->bytes_read += 7.0 * 8.0 * static_cast<double>(total);
        counts->bytes_written += 3.0 * 8.0 * static_cast<double>(total);
    }
}

double TaylorGreen::total_mass() const {
    const std::size_t nn = static_cast<std::size_t>(n_) * n_ * n_;
    const double sum = par::reduce_sum(static_cast<long>(nn), [&](par::Range r) {
        double s = 0.0;
        for (long p = r.begin; p < r.end; ++p) s += u_[static_cast<std::size_t>(p)];
        return s;
    });
    return sum * h_ * h_ * h_;
}

double TaylorGreen::kinetic_energy() const {
    const std::size_t nn = static_cast<std::size_t>(n_) * n_ * n_;
    const double sum = par::reduce_sum(static_cast<long>(nn), [&](par::Range r) {
        double s = 0.0;
        for (long i = r.begin; i < r.end; ++i) {
            const auto p = static_cast<std::size_t>(i);
            const double rho = u_[p];
            const double mx = u_[nn + p], my = u_[2 * nn + p], mz = u_[3 * nn + p];
            s += 0.5 * (mx * mx + my * my + mz * mz) / rho;
        }
        return s;
    });
    return sum * h_ * h_ * h_;
}

double TaylorGreen::max_speed() const {
    const std::size_t nn = static_cast<std::size_t>(n_) * n_ * n_;
    return par::reduce_max(static_cast<long>(nn), [&](par::Range r) {
        double vmax = 0.0;
        for (long i = r.begin; i < r.end; ++i) {
            const auto p = static_cast<std::size_t>(i);
            const double rho = u_[p];
            const double mx = u_[nn + p], my = u_[2 * nn + p], mz = u_[3 * nn + p];
            vmax = std::max(vmax, std::sqrt(mx * mx + my * my + mz * mz) / rho);
        }
        return vmax;
    });
}

double TaylorGreen::step_flops_per_point() {
    // 3 RHS evaluations (348 each) + RK combinations (11 per variable-point
    // -> 55 per point).
    return 3.0 * 348.0 + 11.0 * kVars;
}

double TaylorGreen::step_bytes_per_point() {
    return 3.0 * (4.0 + 1.0) * kVars * 8.0 * 3.0 / 3.0 +  // rhs traffic
           10.0 * kVars * 8.0;                             // RK combinations
}

} // namespace armstice::kern
