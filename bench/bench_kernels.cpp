// Kernel throughput bench — measures the real kernels behind the reference
// applications through the threaded execution layer (kern::par), serial
// (--jobs 1) vs threaded (kThreadedJobs), at paper-relevant sizes: an
// HPCG-class 27-point operator in CSR and SELL-8-64, the cache-blocked GEMM
// (also checked bit-for-bit against gemm_naive) and ZGEMM, CG on the same
// operator, a 64^3 compressible Taylor-Green RK3 step (OpenSBLI), the
// Nekbone spectral operator at polynomial order 15, and HPCG-vector-length
// BLAS-1. For every scenario the serial and threaded outputs are compared
// bit-for-bit before timing is reported — a nondeterministic kernel fails
// the bench rather than producing a number.
//
// Timing is best-of-7 wall clock (CLOCK_MONOTONIC): the threaded runs use
// multiple cores, so thread CPU time would not show the speedup. The JSON
// written next to the working directory (BENCH_kernels.json) records the
// host's online CPU count — threaded/serial ratios are only meaningful
// relative to it (on a 1-CPU CI container the expected ratio is ~1x, and
// the bit-identity checks are the signal).
//
// Build Release (bench targets force -O2 even under sanitizer/debug
// configs — see bench/CMakeLists.txt) before quoting numbers.

#include "kern/dense/blas.hpp"
#include "kern/nek/spectral.hpp"
#include "kern/par.hpp"
#include "kern/sparse/cg.hpp"
#include "kern/sparse/sell.hpp"
#include "kern/stencil/taylor_green.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace {

namespace ak = armstice::kern;
namespace par = armstice::kern::par;
using armstice::util::format;

constexpr int kThreadedJobs = 8;
int g_reps = 7;  ///< best-of reps; --smoke drops to 2 for the CI gate

double wall_now() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

long peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;  // KiB on Linux
}

struct Scenario {
    std::string kernel;
    std::string size;
    double ops = 0;            ///< flops per kernel invocation (analytic)
    double serial_seconds = 0;
    double threaded_seconds = 0;
    double serial_ops_per_sec = 0;
    double threaded_ops_per_sec = 0;
    double speedup = 0;
    bool bit_identical = false;
    long peak_rss_kb = 0;
};

/// Time `body` best-of-kReps at the given jobs value; `result` receives the
/// output vector of the final rep for the bit-identity comparison.
double time_at_jobs(int jobs, const std::function<void(std::vector<double>&)>& body,
                    std::vector<double>& result) {
    par::set_jobs(jobs);
    double best = 1e300;
    for (int rep = 0; rep < g_reps; ++rep) {
        const double t0 = wall_now();
        body(result);
        const double t1 = wall_now();
        best = std::min(best, t1 - t0);
    }
    par::set_jobs(0);
    return best;
}

Scenario measure(const std::string& kernel, const std::string& size, double ops,
                 const std::function<void(std::vector<double>&)>& body) {
    Scenario s;
    s.kernel = kernel;
    s.size = size;
    s.ops = ops;

    std::vector<double> serial_out, threaded_out;
    s.serial_seconds = time_at_jobs(1, body, serial_out);
    s.threaded_seconds = time_at_jobs(kThreadedJobs, body, threaded_out);
    s.bit_identical = serial_out == threaded_out;  // element-wise ==, bit-exact

    s.serial_ops_per_sec = ops / s.serial_seconds;
    s.threaded_ops_per_sec = ops / s.threaded_seconds;
    s.speedup = s.serial_seconds / s.threaded_seconds;
    s.peak_rss_kb = peak_rss_kb();
    std::printf("  %-12s %-14s %10.3g flops  serial %8.4f s  jobs=%d %8.4f s  "
                "x%.2f  %s\n",
                kernel.c_str(), size.c_str(), ops, s.serial_seconds, kThreadedJobs,
                s.threaded_seconds, s.speedup,
                s.bit_identical ? "bit-identical" : "OUTPUTS DIFFER");
    return s;
}

std::vector<double> random_vector(std::size_t n, unsigned long seed) {
    armstice::util::Rng rng(seed);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
}

void write_json(const std::vector<Scenario>& scenarios, bool all_identical,
                bool gemm_identical) {
    std::string j = "{\n  \"bench\": \"kernels\",\n  \"unit\": \"flops/sec\",\n";
    j += format("  \"threaded_jobs\": %d,\n", kThreadedJobs);
    j += format("  \"host_cpus\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
    j += "  \"note\": \"speedup is wall-clock serial/threaded; it is bounded by "
         "host_cpus, so a 1-CPU container reports ~1x while the bit_identical "
         "flags still verify the deterministic scheme\",\n";
    j += format("  \"gemm_matches_naive\": %s,\n", gemm_identical ? "true" : "false");
    j += format("  \"all_bit_identical\": %s,\n  \"scenarios\": [\n",
                all_identical ? "true" : "false");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto& s = scenarios[i];
        j += format("    {\"kernel\": \"%s\", \"size\": \"%s\", \"flops\": %.0f, "
                    "\"serial_seconds\": %.6f, \"threaded_seconds\": %.6f, "
                    "\"serial_ops_per_sec\": %.0f, \"threaded_ops_per_sec\": %.0f, "
                    "\"speedup\": %.2f, \"bit_identical\": %s, "
                    "\"peak_rss_kb\": %ld}%s\n",
                    s.kernel.c_str(), s.size.c_str(), s.ops, s.serial_seconds,
                    s.threaded_seconds, s.serial_ops_per_sec, s.threaded_ops_per_sec,
                    s.speedup, s.bit_identical ? "true" : "false", s.peak_rss_kb,
                    i + 1 < scenarios.size() ? "," : "");
    }
    j += "  ]\n}\n";
    if (!armstice::util::write_file_atomic("BENCH_kernels.json", j)) {
        std::fprintf(stderr, "bench_kernels: could not write BENCH_kernels.json\n");
    }
}

} // namespace

int main(int argc, char** argv) {
    // --smoke: the CI gate. Shrunken sizes, best-of-2, no JSON rewrite —
    // but every bit-identity assertion (jobs 1 vs 8, blocked GEMM vs
    // gemm_naive) still runs and still fails the process on a mismatch.
    const bool smoke =
        argc > 1 && std::string(argv[1]) == "--smoke";
    if (smoke) g_reps = 2;
    const int grid = smoke ? 32 : 64;       // 27-pt operator / TGV edge
    const int cg_grid = smoke ? 24 : 48;    // CG operator edge
    const int gemm_n = smoke ? 96 : 256;    // dense blocked-vs-naive edge
    const std::size_t vlen = smoke ? 32u * 32u * 32u : 104u * 104u * 104u;

    std::printf("kernel throughput bench%s: serial vs jobs=%d, best of %d "
                "wall-clock reps, %ld online CPUs\n",
                smoke ? " (--smoke)" : "", kThreadedJobs, g_reps,
                sysconf(_SC_NPROCESSORS_ONLN));
    std::vector<Scenario> scenarios;
    bool gemm_identical = true;

    // HPCG-class 27-point operator in CSR and SELL-8-64. 64^3 local grid
    // (the paper's per-process class scaled to fit a CI container; the
    // 104^3 node problem has the same >LLC working set per core at 8 jobs).
    {
        const auto csr = ak::poisson27(grid, grid, grid);
        const auto x = random_vector(static_cast<std::size_t>(csr.rows()), 1);
        const std::string sz = format("%d^3 27pt", grid);
        scenarios.push_back(measure(
            "spmv_csr", sz, csr.spmv_flops(), [&](std::vector<double>& y) {
                y.resize(x.size());
                csr.spmv(x, y);
            }));

        const ak::SellMatrix sell(csr, 8, 64);
        scenarios.push_back(measure(
            "spmv_sell", sz, csr.spmv_flops(), [&](std::vector<double>& y) {
                y.resize(x.size());
                sell.spmv(x, y);
            }));
    }

    // Dense kernels: the cache-blocked GEMM (kBlock = 64; gemm_n does not
    // divide it) against its naive reference, and the row-parallel ZGEMM.
    {
        const int m = gemm_n;
        const auto a = random_vector(static_cast<std::size_t>(m) * m, 6);
        const auto b = random_vector(static_cast<std::size_t>(m) * m, 7);
        const std::string sz = format("%dx%dx%d", m, m, m);
        const auto run_gemm = [&](std::vector<double>& c) {
            c.assign(static_cast<std::size_t>(m) * m, 0.0);
            ak::gemm(a, b, c, m, m, m);
        };
        const auto run_gemm_naive = [&](std::vector<double>& c) {
            c.assign(static_cast<std::size_t>(m) * m, 0.0);
            ak::gemm_naive(a, b, c, m, m, m);
        };
        scenarios.push_back(measure("gemm_blk", sz, ak::gemm_flops(m, m, m), run_gemm));
        scenarios.push_back(
            measure("gemm_naive", sz, ak::gemm_flops(m, m, m), run_gemm_naive));
        // Blocked vs naive bit-for-bit at kThreadedJobs; a mismatch fails
        // the bench.
        {
            par::set_jobs(kThreadedJobs);
            std::vector<double> blocked, naive;
            run_gemm(blocked);
            run_gemm_naive(naive);
            par::set_jobs(0);
            gemm_identical = blocked == naive;
            std::printf("  %-28s blocked vs naive: %s\n", ("gemm " + sz).c_str(),
                        gemm_identical ? "bit-identical" : "OUTPUTS DIFFER");
        }

        const int zm = m / 2;
        std::vector<ak::cplx> za(static_cast<std::size_t>(zm) * zm),
            zb(static_cast<std::size_t>(zm) * zm);
        {
            armstice::util::Rng rng(8);
            for (auto& v : za) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            for (auto& v : zb) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        }
        scenarios.push_back(
            measure("zgemm", format("%dx%dx%d", zm, zm, zm), ak::zgemm_flops(zm, zm, zm),
                    [&](std::vector<double>& out) {
                        std::vector<ak::cplx> zc(static_cast<std::size_t>(zm) * zm);
                        ak::zgemm(za, zb, zc, zm, zm, zm);
                        out.clear();
                        out.reserve(2 * zc.size());
                        for (const auto& v : zc) {
                            out.push_back(v.real());
                            out.push_back(v.imag());
                        }
                    }));
    }

    // CG on the 27-point operator: 25 iterations, Jacobi-preconditioned; the
    // result vector is solution + residual history, so bit-identity covers
    // the dot/norm reductions driving convergence decisions.
    {
        const auto a = ak::poisson27(cg_grid, cg_grid, cg_grid);
        const auto b = random_vector(static_cast<std::size_t>(a.rows()), 2);
        const auto precond = ak::jacobi_preconditioner(a);
        const double ops = 25.0 * ak::cg_iter_flops(a);
        scenarios.push_back(
            measure("cg_27pt", format("%d^3 x25", cg_grid), ops,
                    [&](std::vector<double>& out) {
                std::vector<double> x(b.size(), 0.0);
                auto res = ak::cg_solve(a, b, x, {/*max_iters=*/25, /*rel_tol=*/0.0},
                                        precond);
                out = std::move(x);
                out.insert(out.end(), res.residuals.begin(), res.residuals.end());
            }));
    }

    // OpenSBLI Taylor-Green vortex, one RK3 step from the analytic initial
    // condition (state + diagnostics form the compared output).
    {
        const double n3 = static_cast<double>(grid) * grid * grid;
        const double ops = ak::TaylorGreen::step_flops_per_point() * n3;
        scenarios.push_back(
            measure("tgv_step", format("%d^3", grid), ops, [&](std::vector<double>& out) {
                ak::TaylorGreen tgv(grid);
                tgv.step(1e-3);
                out = tgv.state();
                out.push_back(tgv.kinetic_energy());
                out.push_back(tgv.max_speed());
            }));
    }

    // Nekbone spectral operator, polynomial order 15 (nx1=16), 64 elements.
    {
        const ak::NekMesh mesh(64, 16);
        const auto u = random_vector(static_cast<std::size_t>(mesh.local_dofs()), 3);
        scenarios.push_back(measure("nek_ax", "E=64 N=15", ak::NekMesh::ax_flops(64, 16),
                                    [&](std::vector<double>& w) {
                                        w.resize(u.size());
                                        mesh.ax(u, w);
                                    }));
    }

    // BLAS-1 at the HPCG node-problem vector length (104^3; --smoke 32^3).
    {
        const std::size_t n = vlen;
        const auto x = random_vector(n, 4);
        const auto y = random_vector(n, 5);
        const std::string sz = smoke ? "32^3" : "104^3";
        scenarios.push_back(
            measure("dot", sz, 2.0 * static_cast<double>(n),
                    [&](std::vector<double>& out) { out = {ak::dot(x, y)}; }));
        scenarios.push_back(
            measure("axpy", sz, 2.0 * static_cast<double>(n),
                    [&](std::vector<double>& out) {
                        out = y;
                        ak::axpy(0.5, x, out);
                    }));
    }

    const bool all_identical = std::all_of(
        scenarios.begin(), scenarios.end(), [](const Scenario& s) { return s.bit_identical; });
    if (smoke) {
        // The smoke gate asserts, it does not publish numbers.
        std::printf("smoke: all_bit_identical=%s gemm_matches_naive=%s\n",
                    all_identical ? "true" : "false", gemm_identical ? "true" : "false");
    } else {
        write_json(scenarios, all_identical, gemm_identical);
        std::printf("wrote BENCH_kernels.json (all_bit_identical=%s, "
                    "gemm_matches_naive=%s)\n",
                    all_identical ? "true" : "false", gemm_identical ? "true" : "false");
    }
    return all_identical && gemm_identical ? 0 : 1;
}
