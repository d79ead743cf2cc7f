// perfbench_ops — the operations the repository benchmark (perfbench/run.py)
// times, and the probes of its traced mode.
//
//   perfbench_ops paper --root DIR [--trace-out F]   one cold regeneration
//   perfbench_ops scale [--trace-out F]              halo + SPMD simulations
//   perfbench_ops reference [--trace-out F]          one pass, five solves
//   perfbench_ops serve-warm --socket P              compute the hot key set
//   perfbench_ops serve-load --socket P --seed N --seconds-ms MS
//                            [--trace-out F --scratch DIR] one open-loop window
//   perfbench_ops selftest --dir DIR                 failure accounting check
//
// paper, scale and reference run ONE operation per process, so nothing one
// operation computes (memo entries, interned phases, built programs) can
// serve the next. Each mode prints one JSON object as its last stdout line:
// CLOCK_MONOTONIC timestamps (run.py derives set-up time from them), the
// timed wall time, VmHWM and the raw outputs run.py checks against
// perfbench/expected.json. With --trace-out the operation records spans
// around its calls into the library (name, start, end, parent, request id)
// and writes them to that file when it ends; the timed region then carries
// the tracing cost, so run.py takes end-to-end numbers only from untraced
// operations.

#include "apps/castep/castep.hpp"
#include "apps/cosa/cosa.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/minikab/minikab.hpp"
#include "apps/nekbone/nekbone.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "arch/system.hpp"
#include "core/app_codecs.hpp"
#include "core/cache.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/score.hpp"
#include "kern/dense/blas.hpp"
#include "kern/fft/fft.hpp"
#include "kern/par.hpp"
#include "kern/sparse/csr.hpp"
#include "kern/stencil/taylor_green.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "simmpi/minimpi.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace aa = armstice::arch;
namespace ap = armstice::apps;
namespace ac = armstice::core;
namespace ak = armstice::kern;
namespace am = armstice::simmpi;
namespace as = armstice::sim;
namespace sv = armstice::serve;
namespace au = armstice::util;

using au::format;

/// CLOCK_MONOTONIC seconds — the clock Python's time.monotonic() reads, so
/// run.py can subtract its own spawn timestamp from ours.
double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median_of(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process in KiB (VmHWM), 0 when unavailable.
long peak_rss_kb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
    }
    return 0;
}

// ---- JSON output -----------------------------------------------------------

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += format("\\u%04x", static_cast<unsigned>(c));
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// Doubles print with 17 significant digits, so Python reads back the exact
/// binary value and the output checks can compare bit for bit.
std::string num(double v) {
    if (!std::isfinite(v)) return quote(format("%.17g", v));
    return format("%.17g", v);
}

class Obj {
public:
    Obj& add(const std::string& key, double v) { return raw(key, num(v)); }
    Obj& add(const std::string& key, long long v) { return raw(key, format("%lld", v)); }
    Obj& add(const std::string& key, int v) { return add(key, static_cast<long long>(v)); }
    Obj& add(const std::string& key, long v) { return add(key, static_cast<long long>(v)); }
    Obj& add(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    Obj& add(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
    Obj& add(const std::string& key, const char* v) { return raw(key, quote(v)); }
    Obj& raw(const std::string& key, const std::string& json) {
        body_ += body_.empty() ? "" : ", ";
        body_ += quote(key) + ": " + json;
        return *this;
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

// ---- spans -----------------------------------------------------------------

struct Span {
    std::string name;
    double t0 = 0;
    double t1 = 0;
    int parent = -1;
    long req = -1;  ///< serve request id; -1 outside serve
};

/// In-memory span recorder. Single-threaded: serve connection threads keep
/// their own timestamps and the spans are built after they join.
class Tracer {
public:
    void open(const std::string& name) {
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, now_s(), 0, stack_.size() > 1 ? stack_[stack_.size() - 2] : -1});
    }
    void close() {
        spans_[static_cast<std::size_t>(stack_.back())].t1 = now_s();
        stack_.pop_back();
    }
    int add(Span s) {
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }
    void write(const std::string& path) const {
        std::string out = "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out += format("[%s, %s, %s, %d, %ld]%s\n", quote(s.name).c_str(),
                          num(s.t0).c_str(), num(s.t1).c_str(), s.parent, s.req,
                          i + 1 < spans_.size() ? "," : "");
        }
        out += "]\n";
        if (!au::write_file_atomic(path, out)) {
            throw au::Error("cannot write span file " + path);
        }
    }

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// Run `f` and time it, inside a span named `name` when `tr` is set.
template <class F>
auto timed(Tracer* tr, const std::string& name, F&& f) {
    if (tr) tr->open(name);
    const double t0 = now_s();
    auto r = f();
    const double dt = now_s() - t0;
    if (tr) tr->close();
    return std::make_pair(std::move(r), dt);
}

// ---- command line ----------------------------------------------------------

struct Args {
    std::string mode;
    std::map<std::string, std::string> opts;

    [[nodiscard]] std::string get(const std::string& k, const std::string& dflt = "") const {
        const auto it = opts.find(k);
        return it == opts.end() ? dflt : it->second;
    }
    [[nodiscard]] long num(const std::string& k, long dflt) const {
        const auto it = opts.find(k);
        return it == opts.end() ? dflt : std::stol(it->second);
    }
};

Args parse_args(int argc, char** argv) {
    if (argc < 2) throw au::Error("usage: perfbench_ops <mode> [--key value]...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw au::Error("perfbench_ops: expected --key value, got '" + k + "'");
        }
        a.opts[k.substr(2)] = argv[i + 1];
    }
    return a;
}

void emit(const Obj& o) {
    std::printf("%s\n", o.str().c_str());
    std::fflush(stdout);
}

// ---- paper -----------------------------------------------------------------

/// The artefact functions compute_scorecard() calls, in its order. The
/// traced regeneration calls them one by one so each gets a span, then
/// scores over the warm memo.
struct Artefact {
    const char* name;
    void (*run)();
};
constexpr Artefact kArtefacts[] = {
    {"table3", [] { (void)ac::run_table3(); }}, {"table4", [] { (void)ac::run_table4(); }},
    {"table5", [] { (void)ac::run_table5(); }}, {"fig1", [] { (void)ac::run_fig1(); }},
    {"fig2", [] { (void)ac::run_fig2(); }},     {"table6", [] { (void)ac::run_table6(); }},
    {"fig3", [] { (void)ac::run_fig3(); }},     {"table7", [] { (void)ac::run_table7(); }},
    {"fig4", [] { (void)ac::run_fig4(); }},     {"table9", [] { (void)ac::run_table9(); }},
    {"table10", [] { (void)ac::run_table10(); }},
};

/// One extra paper-size run per application on a full A64FX node (COSA does
/// not fit one A64FX node, so it runs on two — its smallest feasible point).
/// The spans give apps.<app>_ms; the RunResults give the collapse counters.
std::string app_probes(Tracer& tr) {
    const aa::SystemSpec& a64 = aa::a64fx();
    Obj o;
    const auto record = [&](const char* app, const std::function<ap::AppResult()>& run) {
        tr.open(format("apps.%s", app));
        const ap::AppResult r = run();
        tr.close();
        o.raw(app, Obj()
                       .add("classes", r.run.collapse_classes)
                       .add("split_noise", r.run.collapse_split_noise)
                       .str());
    };
    record("hpcg", [&] { return ap::run_hpcg(a64, 1).res; });
    record("minikab", [&] {
        ap::MinikabConfig cfg;
        cfg.nodes = 1;
        cfg.ranks = 4;
        cfg.threads = 12;
        return ap::run_minikab(a64, cfg);
    });
    record("nekbone", [&] { return ap::run_nekbone(a64, ap::nekbone_node_config(a64, 1)); });
    record("cosa", [&] {
        ap::CosaConfig cfg;
        cfg.nodes = 2;
        return ap::run_cosa(a64, cfg);
    });
    record("castep", [&] {
        ap::CastepConfig cfg;
        cfg.nodes = 1;
        cfg.ranks = a64.node.cores();
        return ap::run_castep(a64, cfg).res;
    });
    record("opensbli", [&] {
        ap::OpensbliConfig cfg;
        cfg.nodes = 1;
        return ap::run_opensbli(a64, cfg);
    });
    return o.str();
}

int op_paper(const Args& a) {
    const std::string root = a.get("root", ".");
    const std::string trace_out = a.get("trace-out");
    ac::set_default_jobs(1);
    ak::par::set_jobs(1);
    Tracer tr;

    const double ready = now_s();
    ac::Scorecard card;
    std::string text;
    if (trace_out.empty()) {
        card = ac::compute_scorecard();
        text = ac::render_scorecard(card);
    } else {
        tr.open("bench.regen");
        for (const Artefact& art : kArtefacts) {
            tr.open(format("core.%s", art.name));
            art.run();
            tr.close();
        }
        tr.open("core.score");
        card = ac::compute_scorecard();
        text = ac::render_scorecard(card);
        tr.close();
        tr.close();
    }
    const double done = now_s();
    const long rss_kb = peak_rss_kb();
    const ac::SweepStats st = ac::sweep_stats();

    Obj o;
    o.add("mode", "paper").add("ready", ready).add("op_s", done - ready).add("rss_kb", rss_kb);
    o.add("within_5pct", card.total_within_5pct()).add("points", card.total_points());
    o.add("shapes_ok", card.shapes_ok()).add("shapes_total", card.shapes_total());
    o.add("sweep_points", st.points).add("sweep_evaluated", st.misses);
    o.add("sweep_memo_hits", st.hits);
    if (!trace_out.empty()) o.raw("apps", app_probes(tr));

    // Output check (untimed): every figure's CSV bytes against the files
    // committed at the repository root.
    const std::string fresh[5] = {
        ac::fig1_csv(ac::run_fig1()), ac::fig2_csv(ac::run_fig2()),
        ac::fig3_csv(ac::run_fig3()), ac::fig4_csv(ac::run_fig4()),
        ac::fig5_csv(ac::run_fig5())};
    std::string figs;
    for (int n = 1; n <= 5; ++n) {
        const auto golden = au::read_file(format("%s/fig%d.csv", root.c_str(), n));
        const bool same = golden.has_value() && *golden == fresh[n - 1];
        figs += format("%s%s", n > 1 ? ", " : "", same ? "true" : "false");
    }
    o.raw("figs_equal", "[" + figs + "]");
    if (!trace_out.empty()) tr.write(trace_out);
    emit(o);
    return 0;
}

// ---- scale -----------------------------------------------------------------

aa::ComputePhase phase(const char* label, double flops, double bytes, aa::MemPattern p) {
    aa::ComputePhase ph;
    ph.label = label;
    ph.flops = flops;
    ph.main_bytes = bytes;
    ph.pattern = p;
    ph.efficiency = 0.8;
    return ph;
}

/// 3D-Cartesian halo + allreduce skeleton (the shape of simcheck
/// --halo-collapse-smoke): relative-addressed halos keep the interior merged.
am::ProgramSet halo_skeleton(int ranks, int iters) {
    const auto spmv = phase("halo-spmv", 2.0 * 27.0 * 4096.0, 12.0 * 27.0 * 4096.0,
                            aa::MemPattern::gather);
    const auto dims = am::dims_create(ranks, 3);
    const auto neighbors = am::cart_neighbors(dims, /*periodic=*/false);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < iters; ++it) {
        ps.halo_exchange(neighbors, 8.0 * 16.0 * 16.0);
        ps.compute(spmv);
        ps.allreduce(8);
    }
    return ps;
}

/// Pure-SPMD HPCG-shaped skeleton (the shape of bench_engine's hpcg-spmd
/// rows): one shared program, collectives only.
am::ProgramSet spmd_skeleton(int ranks, int iters) {
    const double rows = 16.0 * 16.0 * 16.0;
    const auto spmv = phase("spmv0", 2.0 * 27.0 * rows, 12.0 * 27.0 * rows,
                            aa::MemPattern::gather);
    const auto symgs = phase("symgs", 4.0 * 27.0 * rows, 24.0 * 27.0 * rows,
                             aa::MemPattern::gather);
    const auto dot = phase("ddot", 2.0 * rows, 16.0 * rows, aa::MemPattern::stream);
    const auto axpy = phase("waxpby", 3.0 * rows, 24.0 * rows, aa::MemPattern::stream);
    am::ProgramSet ps(ranks);
    for (int it = 0; it < iters; ++it) {
        ps.compute(spmv);
        ps.compute(dot);
        ps.allreduce(8);
        for (int l = 0; l < 2; ++l) {
            ps.compute(symgs);
            ps.compute(spmv);
        }
        ps.compute(symgs);
        for (int l = 1; l >= 0; --l) ps.compute(symgs);
        ps.compute(dot);
        ps.allreduce(8);
        ps.compute(axpy);
        ps.compute(dot);
        ps.allreduce(8);
    }
    return ps;
}

struct ScaleShape {
    const char* tag;
    int ranks;
    int iters;
    am::ProgramSet (*build)(int, int);
};
// The halo skeleton ends with 147 classes and its build, bundling and run
// dominate the operation. The SPMD skeleton runs as one class, so its host
// time is O(ranks) set-up whatever its length (README.md); a collapse
// regression would make it take minutes.
constexpr ScaleShape kScaleShapes[] = {
    {"halo", 100000, 10, halo_skeleton},
    {"spmd", 1000000, 200, spmd_skeleton},
};

std::string run_shape(const ScaleShape& s, Tracer* tr) {
    const auto span = [&](const char* layer) { return format("%s.%s", layer, s.tag); };
    auto [ps, build_s] = timed(tr, span("simmpi.build"), [&] { return s.build(s.ranks, s.iters); });
    auto [bundle, bundle_s] = timed(tr, span("simmpi.bundle"), [&] { return ps.take_bundle(); });
    const int nodes = (s.ranks + 63) / 64;
    aa::ModelKnobs noiseless;
    noiseless.os_noise = 0;  // rank-keyed noise would split every class
    auto [eng, ctor_s] = timed(tr, span("sim.engine_ctor"), [&] {
        return std::make_unique<as::Engine>(
            aa::fulhame(), as::Placement::block(aa::fulhame().node, nodes, s.ranks, 1), 0.8,
            noiseless);
    });
    auto [res, run_s] = timed(tr, span("sim.run"), [&] { return eng->run(bundle); });

    long long ops = 0;
    for (int r = 0; r < bundle.ranks(); ++r) {
        ops += static_cast<long long>(bundle.of(r).ops.size());
    }
    Obj phases;
    for (const auto& [label, secs] : res.phase_compute) phases.add(label, secs);
    return Obj()
        .add("ranks", s.ranks)
        .add("build_s", build_s)
        .add("bundle_s", bundle_s)
        .add("engine_ctor_s", ctor_s)
        .add("run_s", run_s)
        .add("ops", ops)
        .add("makespan", res.makespan)
        .add("total_flops", res.total_flops)
        .raw("phase_compute", phases.str())
        .add("classes", res.collapse_classes)
        .add("splits", res.collapse_splits)
        .add("split_p2p", res.collapse_split_p2p)
        .add("split_noise", res.collapse_split_noise)
        .add("split_placement", res.collapse_split_placement)
        .str();
}

int op_scale(const Args& a) {
    const std::string trace_out = a.get("trace-out");
    Tracer tr;
    Tracer* t = trace_out.empty() ? nullptr : &tr;
    const double ready = now_s();
    if (t) t->open("bench.scale");
    std::vector<std::string> shapes;
    for (const ScaleShape& s : kScaleShapes) shapes.push_back(run_shape(s, t));
    if (t) t->close();
    const double done = now_s();
    Obj o;
    o.add("mode", "scale").add("ready", ready).add("op_s", done - ready);
    o.add("rss_kb", peak_rss_kb());
    for (std::size_t i = 0; i < shapes.size(); ++i) o.raw(kScaleShapes[i].tag, shapes[i]);
    if (t) tr.write(trace_out);
    emit(o);
    return 0;
}

// ---- reference -------------------------------------------------------------

// Solver sizes: every solver iterates, and the working sets straddle this
// box's caches (README.md lists each against L2/L3).
constexpr int kHpcgN = 48;
constexpr long kMinikabN = 100000;
constexpr int kMinikabExtra = 8;
constexpr int kMinikabIters = 400;
constexpr int kNekElems = 128;
constexpr int kNekNx1 = 8;
constexpr int kNekIters = 100;
constexpr int kTgGrid = 48;
constexpr int kTgSteps = 6;
constexpr int kCastepGrid = 32;
constexpr int kCastepBands = 64;

std::string counts_json(const ak::OpCounts& c) {
    return Obj().add("flops", c.flops).add("bytes", c.bytes()).str();
}

std::string cg_json(const ak::CgResult& r) {
    return Obj()
        .add("iters", r.iterations)
        .add("converged", r.converged)
        .add("final_residual", r.final_residual)
        .raw("counts", counts_json(r.counts))
        .str();
}

/// Direct calls of the kernels the solves run, on the workload's inputs
/// (traced mode only): median of five calls each, in milliseconds.
std::string kernel_probes(Tracer& tr) {
    const auto median_ms = [&](const char* name, const std::function<void()>& f) {
        std::vector<double> t;
        for (int i = 0; i < 5; ++i) {
            t.push_back(timed(&tr, name, [&] {
                            f();
                            return 0;
                        }).second * 1e3);
        }
        return median_of(t);
    };
    Obj o;
    {
        const auto m = ak::random_spd(kMinikabN, kMinikabExtra, /*seed=*/42);
        std::vector<double> x(static_cast<std::size_t>(m.rows()), 1.0);
        std::vector<double> y(x.size(), 0.0);
        o.add("spmv_ms", median_ms("kern.spmv", [&] { m.spmv(x, y); }));
    }
    {
        const int bands = kCastepBands;
        const int npw = std::max(8, kCastepGrid * kCastepGrid / 4);
        std::vector<ak::cplx> a(static_cast<std::size_t>(bands) * npw, ak::cplx(0.5, -0.25));
        std::vector<ak::cplx> s(static_cast<std::size_t>(bands) * bands);
        o.add("zgemm_ms", median_ms("kern.zgemm", [&] {
                  ak::zgemm(a, a, s, bands, npw, bands);
              }));
    }
    {
        const std::size_t n3 = static_cast<std::size_t>(kCastepGrid) * kCastepGrid * kCastepGrid;
        std::vector<ak::cplx> psi(n3, ak::cplx(1.0, 0.5));
        o.add("fft3d_ms", median_ms("kern.fft3d", [&] { ak::fft3d(psi, kCastepGrid); }));
    }
    {
        ak::TaylorGreen tg(kTgGrid);
        const double dt = tg.stable_dt();
        o.add("tg_step_ms", median_ms("kern.tg_step", [&] { tg.step(dt); }));
    }
    return o.str();
}

int op_reference(const Args& a) {
    const std::string trace_out = a.get("trace-out");
    ak::par::set_jobs(1);
    Tracer tracer;
    Tracer* tr = trace_out.empty() ? nullptr : &tracer;

    const double ready = now_s();
    if (tr) tr->open("bench.reference");
    auto [hpcg, hpcg_s] = timed(tr, "kern.hpcg", [] { return ap::hpcg_reference(kHpcgN, 3, 50); });
    auto [mk, mk_s] = timed(tr, "kern.minikab", [] {
        // Jacobi-preconditioned: with b = 1 plain CG stops after one
        // iteration (random_spd has unit row sums, so b is an eigenvector).
        return ap::minikab_reference(kMinikabN, kMinikabExtra, kMinikabIters,
                                     ap::MinikabSolver::jacobi_pcg);
    });
    auto [nek, nek_s] = timed(tr, "kern.nekbone", [] {
        return ap::nekbone_reference(kNekElems, kNekNx1, kNekIters);
    });
    auto [tgv, tgv_s] = timed(tr, "kern.opensbli",
                              [] { return ap::opensbli_reference(kTgGrid, kTgSteps); });
    auto [cas, cas_s] = timed(tr, "kern.castep",
                              [] { return ap::castep_reference(kCastepGrid, kCastepBands); });
    if (tr) tr->close();
    const double done = now_s();

    Obj o;
    o.add("mode", "reference").add("ready", ready).add("op_s", done - ready);
    o.add("rss_kb", peak_rss_kb());
    o.raw("hpcg", Obj().add("s", hpcg_s).raw("cg", cg_json(hpcg)).str());
    o.raw("minikab", Obj().add("s", mk_s).raw("cg", cg_json(mk)).str());
    o.raw("nekbone", Obj().add("s", nek_s).raw("cg", cg_json(nek)).str());
    o.raw("opensbli", Obj()
                          .add("s", tgv_s)
                          .add("ke_initial", tgv.ke_initial)
                          .add("ke_final", tgv.ke_final)
                          .add("mass_drift", tgv.mass_drift)
                          .raw("counts", counts_json(tgv.counts))
                          .str());
    o.raw("castep", Obj().add("s", cas_s).raw("counts", counts_json(cas)).str());
    if (tr) {
        o.raw("kernels", kernel_probes(*tr));
        tr->write(trace_out);
    }
    emit(o);
    return 0;
}

// ---- serve -----------------------------------------------------------------

/// The hot key set, computed during set-up: 48 small points over three apps,
/// four systems and four node counts.
std::vector<sv::PointSpec> hot_specs() {
    std::vector<sv::PointSpec> out;
    for (const char* sys : {"A64FX", "ARCHER", "Cirrus", "Fulhame"}) {
        for (int nodes = 1; nodes <= 4; ++nodes) {
            out.push_back({"minikab", sys, nodes, 8 * nodes, 1,
                           "rows=200000;nnz=3000000;iters=40"});
            out.push_back({"nekbone", sys, nodes, 8 * nodes, 1, "elems=8;nx1=8;iters=20"});
            // COSA's ranks field is ranks per node.
            out.push_back({"cosa", sys, nodes, 8, 1, "blocks=64;cells=300000;iters=10"});
        }
    }
    return out;
}

/// The i-th never-seen point of a daemon session: the paper's 8-node A64FX
/// configurations, each ~25 ms to compute here. Adding i to one paper-size
/// field (nonzeros, elements per rank, cells) makes the key new within the
/// session and keeps the point within ~30% of paper size (nekbone's 200
/// elements per rank, the smallest, reach ~260 in a 7 s session). Every
/// session starts a fresh daemon and cache, so the points repeat across
/// sessions and seeds; the seed only moves their arrival times.
sv::PointSpec fresh_spec(int i) {
    switch (i % 3) {
    case 0:
        return {"minikab", "A64FX", 8, 192, 1, format("nnz=%ld", 696096138L + i)};
    case 1:
        return {"nekbone", "A64FX", 8, 384, 1, format("elems=%d", 200 + i)};
    default:
        return {"cosa", "A64FX", 8, 48, 1, format("cells=%ld", 3690218L + i)};
    }
}

enum class ReqKind { kHit, kFresh, kCoalesced };

struct Request {
    double due = 0;                     ///< seconds after the window opens
    std::vector<sv::PointSpec> points;
    bool fresh = false;                 ///< carries a never-seen point
};

// Open-loop schedule parameters, mostly assumptions (README.md, serve:
// where the numbers come from).
constexpr double kRate = 200.0;          ///< offered requests per second
constexpr double kFreshShare = 0.04;     ///< share of arrivals that are fresh
constexpr double kDupShare = 0.35;       ///< fresh arrivals requested twice
constexpr double kDupDelay = 0.004;      ///< seconds until the duplicate
constexpr int kHitPoints = 24;           ///< points per hit request
constexpr int kConnections = 4;          ///< = nproc
constexpr double kSpin = 300e-6;         ///< generator spins this long before due

std::vector<Request> make_schedule(std::uint64_t seed, double seconds) {
    au::Rng rng(seed);
    const auto hot = hot_specs();
    std::vector<Request> reqs;
    int fresh_i = 0;
    for (double t = -std::log(1.0 - rng.next_double()) / kRate; t < seconds;
         t += -std::log(1.0 - rng.next_double()) / kRate) {
        Request r;
        r.due = t;
        if (rng.next_double() < kFreshShare) {
            r.fresh = true;
            r.points.push_back(fresh_spec(fresh_i++));
            if (rng.next_double() < kDupShare) {
                Request dup = r;
                dup.due = t + kDupDelay;
                reqs.push_back(r);
                reqs.push_back(dup);
                continue;
            }
        } else {
            for (int k = 0; k < kHitPoints; ++k) {
                r.points.push_back(hot[rng.next_below(hot.size())]);
            }
        }
        reqs.push_back(r);
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request& x, const Request& y) { return x.due < y.due; });
    return reqs;
}

/// What one request produced, as the benchmark sees it.
struct Outcome {
    double sent = 0;  ///< absolute send time
    double done = 0;  ///< absolute time the reply completed
    ReqKind kind = ReqKind::kHit;
    bool failed = false;
    std::string why;  ///< failure reason
    std::vector<std::string> payloads;
};

/// Issue one sweep on `conn` (reconnecting first when it is gone) and
/// classify the reply. Every failure mode the benchmark counts lands here:
/// ERROR frames and lost connections (Client throws), RETRY_LATER, and point
/// errors. Payload bytes are compared later, against serve::batch_eval.
Outcome exchange(std::unique_ptr<sv::Client>& conn, const std::string& socket,
                 const std::vector<sv::PointSpec>& points) {
    Outcome out;
    out.sent = now_s();
    try {
        if (!conn) conn = std::make_unique<sv::Client>(sv::Client::connect_unix_path(socket));
        const sv::Client::SweepReply reply = conn->sweep(points);
        out.done = now_s();
        if (reply.retry) {
            out.failed = true;
            out.why = "RETRY_LATER";
            return out;
        }
        if (reply.points.size() != points.size()) {
            out.failed = true;
            out.why = "short reply";
            return out;
        }
        bool computed = false, coalesced = false;
        for (const auto& p : reply.points) {
            if (!p.ok) {
                out.failed = true;
                out.why = "point error: " + p.payload;
            }
            computed |= p.origin == sv::PointOrigin::kComputed;
            coalesced |= p.origin == sv::PointOrigin::kCoalesced;
            out.payloads.push_back(p.payload);
        }
        out.kind = computed ? ReqKind::kFresh : coalesced ? ReqKind::kCoalesced : ReqKind::kHit;
    } catch (const std::exception& e) {
        out.done = now_s();
        out.failed = true;
        out.why = e.what();
        conn.reset();  // lost or poisoned connection: the next request reconnects
    }
    return out;
}

/// Byte-compare every payload against the batch reference of its point and
/// mark each request with a differing byte failed.
void check_payloads(const std::vector<std::vector<sv::PointSpec>>& req_points,
                   std::vector<Outcome>& outs) {
    std::vector<sv::PointSpec> uniq;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].failed) continue;  // no payload; a rejected spec may not canonicalize
        for (const auto& p : req_points[i]) {
            const std::string k = sv::to_sweep_point(sv::canonicalize(p)).key();
            if (index.emplace(k, uniq.size()).second) uniq.push_back(p);
        }
    }
    const auto ref = sv::batch_eval(uniq, /*jobs=*/kConnections);
    std::vector<std::string> ref_bytes;
    ref_bytes.reserve(ref.size());
    for (const auto& r : ref) ref_bytes.push_back(sv::encode_result(r));
    for (std::size_t i = 0; i < outs.size(); ++i) {
        Outcome& o = outs[i];
        if (o.failed) continue;
        for (std::size_t j = 0; j < o.payloads.size(); ++j) {
            const std::string k =
                sv::to_sweep_point(sv::canonicalize(req_points[i][j])).key();
            if (o.payloads[j] != ref_bytes[index.at(k)]) {
                o.failed = true;
                o.why = "payload differs from serve::batch_eval";
                break;
            }
        }
    }
}

int op_serve_warm(const Args& a) {
    const std::string socket = a.get("socket");
    std::unique_ptr<sv::Client> conn;
    const Outcome o = exchange(conn, socket, hot_specs());
    Obj out;
    out.add("mode", "serve-warm").add("warm_done", now_s()).add("failed", o.failed);
    out.add("why", o.why);
    emit(out);
    return o.failed ? 1 : 0;
}

/// Outside calls on the run's own requests and payloads (traced mode):
/// mean microseconds per call, plus apps.eval_ms on the fresh specs.
std::string serve_probes(Tracer& tr, const std::vector<Request>& reqs,
                         const std::vector<Outcome>& outs, const std::string& scratch) {
    const auto mean_us = [&](const char* name, std::size_t n, const std::function<void(std::size_t)>& f) {
        tr.open(name);
        const double t0 = now_s();
        for (std::size_t i = 0; i < n; ++i) f(i);
        const double dt = now_s() - t0;
        tr.close();
        return n ? dt * 1e6 / static_cast<double>(n) : 0.0;
    };
    std::vector<sv::PointSpec> specs;
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        for (const auto& p : reqs[i].points) specs.push_back(p);
        if (!outs[i].failed) {
            for (const auto& p : outs[i].payloads) payloads.push_back(p);
        }
    }
    Obj o;
    volatile std::size_t sink = 0;
    o.add("canonicalize_us", mean_us("serve.canonicalize", specs.size(), [&](std::size_t i) {
              sink = sink + sv::canonicalize(specs[i]).config.size();
          }));
    std::vector<std::string> frames(reqs.size());
    o.add("frame_encode_us", mean_us("serve.frame_encode", reqs.size(), [&](std::size_t i) {
              sv::Message m;
              m.req_id = static_cast<std::uint32_t>(i + 1);
              m.body = sv::SweepRequest{reqs[i].points};
              frames[i] = sv::encode_message(m);
          }));
    std::vector<std::string> reply_frames;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        sv::Message m;
        m.req_id = 1;
        m.body = sv::PointResult{static_cast<std::uint32_t>(i), sv::PointOrigin::kCached, true,
                                 payloads[i]};
        reply_frames.push_back(sv::encode_message(m));
    }
    o.add("frame_decode_us", mean_us("serve.frame_decode", reply_frames.size(), [&](std::size_t i) {
              sv::Message m;
              if (sv::decode_message(reply_frames[i], m) != sv::DecodeStatus::kOk) {
                  throw au::Error("serve probe: reply frame does not decode");
              }
          }));
    std::vector<ap::AppResult> results;
    for (const auto& p : payloads) results.push_back(sv::decode_result(p));
    double bytes = 0;
    for (const auto& p : payloads) bytes += static_cast<double>(p.size());
    o.add("payload_bytes", payloads.empty() ? 0.0 : bytes / static_cast<double>(payloads.size()));
    o.add("codec_encode_us", mean_us("core.codec.encode", results.size(), [&](std::size_t i) {
              sink = sink + sv::encode_result(results[i]).size();
          }));
    {
        std::filesystem::create_directories(scratch);
        ac::CacheStore store(scratch, aa::kModelVersion);
        const std::size_t n = std::min<std::size_t>(payloads.size(), 400);
        o.add("cache_store_us", mean_us("core.cache.store", n, [&](std::size_t i) {
                  store.store(format("perfbench|%zu", i), payloads[i]);
              }));
    }
    std::vector<double> eval_ms;
    for (const auto& r : reqs) {
        if (!r.fresh || eval_ms.size() >= 6) continue;
        const sv::PointSpec c = sv::canonicalize(r.points.front());
        eval_ms.push_back(timed(&tr, "apps.eval", [&] { return sv::eval_point(c); }).second * 1e3);
    }
    o.add("eval_ms", median_of(eval_ms));
    return o.str();
}

int op_serve_load(const Args& a) {
    const std::string socket = a.get("socket");
    const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
    const double seconds = static_cast<double>(a.num("seconds-ms", 10000)) / 1e3;
    const std::string trace_out = a.get("trace-out");

    // The daemon computed the hot key set during set-up (serve-warm).
    const std::vector<Request> reqs = make_schedule(seed, seconds);
    std::vector<std::unique_ptr<sv::Client>> conns(kConnections);
    for (auto& c : conns) c = std::make_unique<sv::Client>(sv::Client::connect_unix_path(socket));

    // The window: each free connection takes the next request in due order,
    // waits for its due time and sends it. A request that finds every
    // connection busy is late, and its latency (timed from due) shows it.
    const double t0 = now_s() + 0.05;
    std::vector<Outcome> outs(reqs.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = next++; i < reqs.size(); i = next++) {
                // Sleep to just short of the due time, then spin: a sleeping
                // thread wakes tens of microseconds late, and that lateness
                // would be the generator's, not the server's.
                const double due = t0 + reqs[i].due;
                const double wait = due - now_s() - kSpin;
                if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
                while (now_s() < due) std::this_thread::yield();
                outs[i] = exchange(conns[static_cast<std::size_t>(c)], socket, reqs[i].points);
            }
        });
    }
    for (auto& th : threads) th.join();
    const double window_end = now_s();

    sv::StatsResult stats;
    {
        auto c = sv::Client::connect_unix_path(socket);
        stats = c.stats();
    }

    // Output check (untimed): every payload against serve::batch_eval.
    std::vector<std::vector<sv::PointSpec>> req_points;
    for (const auto& r : reqs) req_points.push_back(r.points);
    check_payloads(req_points, outs);

    // Latencies are timed from each request's due time; run.py pools them
    // across the run's daemon sessions before taking percentiles.
    std::vector<double> hit, fresh, coalesced, late;
    std::map<std::string, int> reasons;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Outcome& o = outs[i];
        const double due = t0 + reqs[i].due;
        late.push_back((o.sent - due) * 1e3);
        if (o.failed) {
            ++reasons[o.why.substr(0, 60)];
            continue;
        }
        const double ms = (o.done - due) * 1e3;
        (o.kind == ReqKind::kHit ? hit : o.kind == ReqKind::kFresh ? fresh : coalesced)
            .push_back(ms);
    }
    const auto list = [](const std::vector<double>& v) {
        std::string out;
        for (const double x : v) {
            if (!out.empty()) out += ',';
            out += format("%.9g", x);
        }
        return "[" + out + "]";
    };
    Obj why;
    for (const auto& [k, n] : reasons) why.add(k, n);

    Obj o;
    o.add("mode", "serve-load");
    o.add("window_s", window_end - t0).add("attempted", static_cast<long>(reqs.size()));
    o.raw("fail_reasons", why.str());
    o.raw("hit_ms", list(hit)).raw("fresh_ms", list(fresh));
    o.raw("coalesced_ms", list(coalesced)).raw("late_ms", list(late));
    o.raw("stats", Obj()
                       .add("cache_hits", static_cast<long long>(stats.cache_hits))
                       .add("coalesced", static_cast<long long>(stats.coalesced))
                       .add("computed", static_cast<long long>(stats.computed))
                       .add("retries", static_cast<long long>(stats.retries))
                       .add("errors", static_cast<long long>(stats.point_errors))
                       .str());

    if (!trace_out.empty()) {
        Tracer tr;
        // One root span per request (id = schedule index) with its wait for
        // a free connection and its exchange as children.
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Outcome& out = outs[i];
            const double due = t0 + reqs[i].due;
            const auto req = static_cast<long>(i);
            const int root = tr.add({"bench.request", due, out.done, -1, req});
            tr.add({"bench.queue", due, std::max(due, out.sent), root, req});
            tr.add({"serve.exchange", out.sent, out.done, root, req});
        }
        o.raw("probes", serve_probes(tr, reqs, outs, a.get("scratch", ".")));
        tr.write(trace_out);
    }
    emit(o);
    return 0;
}

// ---- selftest --------------------------------------------------------------

/// Shows that the serve workload's accounting counts each failure mode: a
/// wrong payload byte, a RETRY_LATER refusal, a lost connection, an ERROR
/// frame and a point error — and that a clean exchange passes. Each case
/// runs the same exchange()/check_payloads() code the workload uses, against
/// an in-process server (or a raw listener) built to misbehave that way.
int op_selftest(const Args& a) {
    const std::string dir = a.get("dir", ".");
    std::filesystem::create_directories(dir);
    const sv::PointSpec good{"nekbone", "A64FX", 1, 8, 1, "elems=8;nx1=8;iters=5"};
    const sv::PointSpec other{"minikab", "A64FX", 1, 8, 1, "rows=20000;nnz=300000;iters=5"};
    int bad = 0;

    const auto run_case = [&](const char* name, bool expect_fail, const std::string& sock,
                              const std::vector<sv::PointSpec>& pts) {
        std::unique_ptr<sv::Client> conn;
        std::vector<Outcome> outs{exchange(conn, sock, pts)};
        check_payloads({pts}, outs);
        const bool ok = outs[0].failed == expect_fail;
        std::printf("selftest %-16s %s (failed=%d%s%s)\n", name, ok ? "ok" : "WRONG",
                    outs[0].failed ? 1 : 0, outs[0].why.empty() ? "" : ": ",
                    outs[0].why.substr(0, 80).c_str());
        bad += ok ? 0 : 1;
    };
    const auto server_case = [&](const char* name, bool expect_fail, sv::ServerConfig cfg,
                                 sv::SweepService::Evaluator ev,
                                 const std::vector<sv::PointSpec>& pts) {
        cfg.unix_path = dir + "/" + name + ".sock";
        sv::Server server(cfg, std::move(ev));
        server.start();
        run_case(name, expect_fail, cfg.unix_path, pts);
        server.stop();
    };
    const auto exact = [](const sv::PointSpec& s) {
        return sv::encode_result(sv::eval_point(s));
    };

    server_case("clean", false, {}, exact, {good});
    server_case("wrong-byte", true, {}, [&](const sv::PointSpec& s) {
        std::string p = exact(s);
        p[p.size() / 2] = static_cast<char>(p[p.size() / 2] ^ 0x01);
        return p;
    }, {good});
    {
        sv::ServerConfig cfg;
        cfg.max_inflight = 1;  // two fresh points cannot both be admitted
        server_case("retry-later", true, cfg, exact, {good, other});
    }
    server_case("point-error", true, {}, [](const sv::PointSpec&) -> std::string {
        throw au::Error("injected evaluation failure");
    }, {good});
    server_case("error-frame", true, {}, exact, {{"no-such-app", "A64FX", 1, 1, 1, ""}});
    {
        // Lost connection: a listener that says Hello, reads the request and
        // hangs up without replying.
        const std::string path = dir + "/lost.sock";
        au::Listener lis = au::Listener::listen_unix(path);
        std::thread peer([&] {
            au::Socket s = lis.accept(5000);
            if (!s.valid()) return;
            sv::Message hello;
            hello.body = sv::Hello{sv::kProtocolVersion, aa::kModelVersion, sv::kMaxFrame};
            (void)sv::write_frame(s, hello);
            sv::Message req;
            sv::DecodeStatus st = sv::DecodeStatus::kOk;
            (void)sv::read_frame(s, req, st);
            s.close();
        });
        run_case("lost-connection", true, path, {good});
        peer.join();
    }
    std::printf("selftest %s\n", bad == 0 ? "passed" : "FAILED");
    return bad == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse_args(argc, argv);
        if (a.mode == "paper") return op_paper(a);
        if (a.mode == "scale") return op_scale(a);
        if (a.mode == "reference") return op_reference(a);
        if (a.mode == "serve-warm") return op_serve_warm(a);
        if (a.mode == "serve-load") return op_serve_load(a);
        if (a.mode == "selftest") return op_selftest(a);
        throw au::Error("perfbench_ops: unknown mode '" + a.mode + "'");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_ops: %s\n", e.what());
        return 1;
    }
}
