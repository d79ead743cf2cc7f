#pragma once
// Compressible Taylor-Green vortex solver — the real numerics behind the
// OpenSBLI reference application: 3D compressible Euler equations on a
// periodic cube of length 2*pi, 4th-order central differences, SSP-RK3 time
// stepping (the OpenSBLI benchmark's discretisation family).

#include "kern/counters.hpp"

#include <vector>

namespace armstice::kern {

class TaylorGreen {
public:
    /// Periodic n^3 grid, reference Mach number (the classic case is 0.1),
    /// optional kinematic viscosity (0 = inviscid Euler; > 0 adds a
    /// second-order momentum-diffusion term, the low-Mach Navier-Stokes
    /// regularisation OpenSBLI's compressible solver carries).
    explicit TaylorGreen(int n, double mach = 0.1, double viscosity = 0.0);

    /// One SSP-RK3 step. dt must satisfy the advective CFL (see stable_dt()).
    void step(double dt, OpCounts* counts = nullptr);

    [[nodiscard]] int n() const { return n_; }
    [[nodiscard]] double stable_dt() const;

    /// Diagnostics (integrals over the domain).
    [[nodiscard]] double total_mass() const;
    [[nodiscard]] double kinetic_energy() const;
    [[nodiscard]] double max_speed() const;

    /// Raw conservative-variable state (kVars * n^3, variable-major) — read
    /// access for diagnostics and the thread-count-invariance tests.
    [[nodiscard]] const std::vector<double>& state() const { return u_; }

    /// Analytic per-point counts for one full RK3 step (3 RHS evaluations),
    /// used by the OpenSBLI skeleton.
    static double step_flops_per_point();
    static double step_bytes_per_point();
    /// Conservative variables per point (rho, rho*u, rho*v, rho*w, E).
    static constexpr int kVars = 5;

private:
    void rhs(const std::vector<double>& u, std::vector<double>& out,
             OpCounts* counts) const;

    int n_;
    double h_;      ///< grid spacing 2*pi/n
    double gamma_ = 1.4;
    double nu_ = 0.0;  ///< kinematic viscosity
    std::vector<double> u_;  ///< kVars * n^3, variable-major
};

} // namespace armstice::kern
