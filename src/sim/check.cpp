#include "sim/check.hpp"

#include "arch/phase.hpp"
#include "sim/deadlock.hpp"
#include "sim/ref_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/threadpool.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

namespace armstice::sim::check {
namespace {

bool bits_eq(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string double_diff(const std::string& what, double a, double b) {
    return util::format("%s differs: %.17g vs %.17g", what.c_str(), a, b);
}

} // namespace

GeneratedCase generate(std::uint64_t seed, const GenConfig& cfg) {
    util::Rng rng(seed);
    GeneratedCase gc;
    gc.deadlock = cfg.deadlock;
    const int ranks =
        cfg.ranks > 0 ? cfg.ranks : 4 + static_cast<int>(rng.next_below(29));
    gc.ranks = ranks;
    gc.programs.resize(static_cast<std::size_t>(ranks));
    auto& progs = gc.programs;
    const auto prog = [&](int r) -> Program& {
        return progs[static_cast<std::size_t>(r)];
    };
    const int rounds =
        cfg.rounds > 0 ? cfg.rounds : 3 + static_cast<int>(rng.next_below(8));

    const auto compute_round = [&](int round) {
        // Occasionally open a MarkOp region so the mark-overrides-label rule
        // is exercised (it persists for the rest of the program, like a real
        // instrumented region entered and never closed).
        const bool marked = rng.next_below(6) == 0;
        for (int r = 0; r < ranks; ++r) {
            arch::ComputePhase phase;
            phase.label = "fuzz";
            phase.flops = rng.uniform(1e6, 1e9);
            phase.main_bytes = rng.uniform(1e4, 1e8);
            phase.pattern = static_cast<arch::MemPattern>(rng.next_below(3));
            gc.total_flops += phase.flops;
            if (marked) prog(r).mark(round % 2 ? "check-odd" : "check-even");
            prog(r).compute(phase);
        }
    };

    for (int round = 0; round < rounds; ++round) {
        std::uint64_t kind = rng.next_below(8);
        if (kind == 4 && (!cfg.allow_sendrecv || ranks < 2)) kind = 3;
        if (kind == 5 && !cfg.allow_any_source) kind = 3;
        if (kind == 7 && (!cfg.allow_sendrecv || ranks < 2)) kind = 3;
        switch (kind) {
            case 0: {  // world allreduce
                const double bytes = rng.uniform(8, 1e5);
                for (int r = 0; r < ranks; ++r) prog(r).allreduce(bytes);
                break;
            }
            case 1: {  // barrier or alltoall
                if (rng.next_below(2) == 0) {
                    for (int r = 0; r < ranks; ++r) prog(r).barrier();
                } else {
                    const double bytes = rng.uniform(8, 1e4);
                    for (int r = 0; r < ranks; ++r) prog(r).alltoall(bytes);
                }
                break;
            }
            case 2: {  // ring shift: send to successor, receive from predecessor
                const double bytes = rng.uniform(1, 1e6);
                for (int r = 0; r < ranks; ++r) {
                    prog(r).send((r + 1) % ranks, bytes, round);
                }
                for (int r = 0; r < ranks; ++r) {
                    prog(r).recv((r + ranks - 1) % ranks, round);
                }
                break;
            }
            case 4: {  // crossing mixed-tag pairs: both directions consume
                       // their two messages in reverse send order, exercising
                       // the per-source first-tag-match scan and erase path.
                const double b1 = rng.uniform(1, 1e6);
                const double b2 = rng.uniform(1, 1e6);
                const int ta = 4 * round + 100;
                const int tb = ta + 1;
                const int tc = ta + 2;
                const int td = ta + 3;
                for (int r = 0; r + 1 < ranks; r += 2) {
                    const int p = r + 1;
                    prog(r).send(p, b1, ta).send(p, b2, tb);
                    prog(p).send(r, b2, tc).send(r, b1, td);
                    prog(r).recv(p, td).recv(p, tc);
                    prog(p).recv(r, tb).recv(r, ta);
                }
                break;
            }
            case 5: {  // ANY_SOURCE funnel: everyone reports to a root, the
                       // root replies to each reporter.
                const int root = static_cast<int>(rng.next_below(ranks));
                const double bytes = rng.uniform(64, 1e5);
                for (int r = 0; r < ranks; ++r) {
                    if (r != root) prog(r).send(root, bytes, round);
                }
                for (int i = 0; i + 1 < ranks; ++i) {
                    prog(root).recv(kAnySource, round);
                }
                for (int r = 0; r < ranks; ++r) {
                    if (r != root) {
                        prog(root).send(r, 128.0, round + 1000);
                        prog(r).recv(root, round + 1000);
                    }
                }
                break;
            }
            case 6: {  // SPMD compute: every rank runs the identical phase,
                       // so ProgramBundle::from dedups the programs and the
                       // engine's rank-equivalence collapse (DESIGN.md §11)
                       // gets multi-member classes to split — the bundle
                       // differentials in check_case exercise exactly that.
                arch::ComputePhase phase;
                phase.label = "fuzz-spmd";
                phase.flops = rng.uniform(1e6, 1e9);
                phase.main_bytes = rng.uniform(1e4, 1e8);
                phase.pattern = static_cast<arch::MemPattern>(rng.next_below(3));
                for (int r = 0; r < ranks; ++r) {
                    gc.total_flops += phase.flops;
                    prog(r).compute(phase);
                }
                break;
            }
            case 7: {  // relative-addressed halo (DESIGN.md §11.4): a 1D or
                       // 2D grid/torus exchange emitted as send_rel/recv_rel,
                       // the exact form simmpi::halo_exchange produces (sim
                       // cannot link simmpi, so the shape is rebuilt here).
                       // Interior ranks end up structurally identical, so the
                       // bundle differentials below drive the engine's merged
                       // relative-p2p machinery — grouped boundary splits,
                       // blocked partial matches, quiescence resolution —
                       // against RefEngine, collapse-off and the perturbed
                       // schedules.
                const bool periodic = rng.next_below(2) == 0;
                const double bytes = rng.uniform(1, 1e6);
                const int tag = 2000 + round;
                int cols = 1;  // largest divisor <= sqrt(ranks), else 1D
                if (rng.next_below(2) == 0) {
                    for (int d = 2; d * d <= ranks; ++d) {
                        if (ranks % d == 0) cols = d;
                    }
                }
                const int rows = ranks / cols;
                std::vector<std::vector<int>> nbrs(
                    static_cast<std::size_t>(ranks));
                const auto wrap = [&](int v, int extent) {
                    if (v >= 0 && v < extent) return v;
                    return periodic ? (v + extent) % extent : -1;
                };
                for (int r = 0; r < ranks; ++r) {
                    const int x = r % cols;
                    const int y = r / cols;
                    auto& out = nbrs[static_cast<std::size_t>(r)];
                    for (int dir : {-1, +1}) {
                        if (cols > 1) {
                            const int xx = wrap(x + dir, cols);
                            if (xx >= 0 && y * cols + xx != r) {
                                out.push_back(y * cols + xx);
                            }
                        }
                        if (rows > 1) {
                            const int yy = wrap(y + dir, rows);
                            if (yy >= 0 && yy * cols + x != r) {
                                out.push_back(yy * cols + x);
                            }
                        }
                    }
                    // Periodic extents of 2 reach the same neighbour twice.
                    std::sort(out.begin(), out.end());
                    out.erase(std::unique(out.begin(), out.end()), out.end());
                }
                for (int r = 0; r < ranks; ++r) {
                    for (int nb : nbrs[static_cast<std::size_t>(r)]) {
                        prog(r).send_rel(nb - r, bytes, tag);
                    }
                }
                for (int r = 0; r < ranks; ++r) {
                    for (int nb : nbrs[static_cast<std::size_t>(r)]) {
                        prog(r).recv_rel(nb - r, tag);
                    }
                }
                break;
            }
            default:
                compute_round(round);
                break;
        }
    }

    // Planted faults go after the normal rounds, so the fault is the only
    // reason the case can stall. Tags 777/888 are reserved for them.
    switch (cfg.deadlock) {
        case DeadlockKind::none:
            break;
        case DeadlockKind::unmatched_recv: {
            const int victim = static_cast<int>(rng.next_below(ranks));
            const int culprit = (victim + 1) % ranks;
            prog(victim).recv(culprit, 777);
            gc.planted_culprit = culprit;
            gc.note = util::format(
                "rank %d receives (src=%d, tag=777) that is never sent", victim,
                culprit);
            break;
        }
        case DeadlockKind::recv_cycle: {
            ARMSTICE_CHECK(ranks >= 3, "recv_cycle needs >= 3 ranks");
            prog(0).recv(1, 888).send(2, 1024, 888);
            prog(1).recv(2, 888).send(0, 1024, 888);
            prog(2).recv(0, 888).send(1, 1024, 888);
            gc.planted_cycle = {0, 1, 2};
            gc.note = "circular recv dependency 0 -> 1 -> 2 -> 0 (sends follow"
                      " the recvs)";
            break;
        }
        case DeadlockKind::skipped_collective: {
            const int skipper = static_cast<int>(rng.next_below(ranks));
            for (int r = 0; r < ranks; ++r) {
                if (r != skipper) prog(r).allreduce(16);
            }
            gc.planted_culprit = skipper;
            gc.note = util::format("rank %d skips the final allreduce", skipper);
            break;
        }
    }
    return gc;
}

std::string diff_results(const RunResult& a, const RunResult& b) {
    if (!bits_eq(a.makespan, b.makespan)) {
        return double_diff("makespan", a.makespan, b.makespan);
    }
    if (!bits_eq(a.total_flops, b.total_flops)) {
        return double_diff("total_flops", a.total_flops, b.total_flops);
    }
    if (a.ranks.size() != b.ranks.size()) {
        return util::format("rank count differs: %zu vs %zu", a.ranks.size(),
                            b.ranks.size());
    }
    // Walk both tables run by run: each step compares the stats of the two
    // runs covering ranks [r, end) and names rank r, the first of them.
    std::size_t ka = 0, kb = 0;
    for (std::size_t r = 0; r < a.ranks.size();) {
        const RankTable::Run ra = a.ranks.run(ka);
        const RankTable::Run rb = b.ranks.run(kb);
        const std::size_t end_a = static_cast<std::size_t>(ra.first + ra.length);
        const std::size_t end_b = static_cast<std::size_t>(rb.first + rb.length);
        const RankStats& x = ra.stats;
        const RankStats& y = rb.stats;
        const auto field = [&](const char* name, double u, double v,
                               std::string* out) {
            if (bits_eq(u, v)) return false;
            *out = double_diff(util::format("rank %zu %s", r, name), u, v);
            return true;
        };
        std::string d;
        if (field("finish", x.finish, y.finish, &d) ||
            field("compute", x.compute, y.compute, &d) ||
            field("recv_wait", x.recv_wait, y.recv_wait, &d) ||
            field("collective_wait", x.collective_wait, y.collective_wait, &d) ||
            field("injected_bytes", x.injected_bytes, y.injected_bytes, &d)) {
            return d;
        }
        if (x.msgs_sent != y.msgs_sent) {
            return util::format("rank %zu msgs_sent differs: %d vs %d", r,
                                x.msgs_sent, y.msgs_sent);
        }
        if (x.msgs_received != y.msgs_received) {
            return util::format("rank %zu msgs_received differs: %d vs %d", r,
                                x.msgs_received, y.msgs_received);
        }
        r = std::min(end_a, end_b);
        if (r == end_a) ++ka;
        if (r == end_b) ++kb;
    }
    if (a.phase_compute.size() != b.phase_compute.size()) {
        return util::format("phase count differs: %zu vs %zu",
                            a.phase_compute.size(), b.phase_compute.size());
    }
    auto ia = a.phase_compute.begin();
    auto ib = b.phase_compute.begin();
    for (; ia != a.phase_compute.end(); ++ia, ++ib) {
        if (ia->first != ib->first) {
            return util::format("phase key differs: \"%s\" vs \"%s\"",
                                ia->first.c_str(), ib->first.c_str());
        }
        if (!bits_eq(ia->second, ib->second)) {
            return double_diff(util::format("phase \"%s\"", ia->first.c_str()),
                               ia->second, ib->second);
        }
    }
    return "";
}

namespace {

/// Validate a deadlock diagnosis against the fault the generator planted.
void validate_diagnosis(const GeneratedCase& gc, const WaitForGraph& g,
                        std::vector<std::string>* fails) {
    if (gc.deadlock == DeadlockKind::recv_cycle) {
        if (g.cycle != gc.planted_cycle) {
            std::string got = "{";
            for (int r : g.cycle) got += util::format(" %d", r);
            fails->push_back(util::format(
                "diagnosis cycle %s } does not match the planted cycle"
                " { 0 1 2 }", got.c_str()));
        }
        return;
    }
    // unmatched_recv / skipped_collective stalls are acyclic and every
    // blocked rank must point (only) at the planted culprit, flagged
    // finished.
    if (!g.cycle.empty()) {
        fails->push_back(util::format(
            "diagnosis reports a cycle of %zu for an acyclic fault (%s)",
            g.cycle.size(), gc.note.c_str()));
    }
    const int expect_blocked =
        gc.deadlock == DeadlockKind::unmatched_recv ? 1 : gc.ranks - 1;
    if (static_cast<int>(g.blocked.size()) != expect_blocked) {
        fails->push_back(util::format("diagnosis blames %zu blocked ranks,"
                                      " expected %d (%s)",
                                      g.blocked.size(), expect_blocked,
                                      gc.note.c_str()));
        return;
    }
    for (const WaitNode& node : g.blocked) {
        if (node.waits_on != std::vector<int>{gc.planted_culprit} ||
            node.waits_on_finished != std::vector<int>{gc.planted_culprit}) {
            fails->push_back(util::format(
                "rank %d's wait edges do not single out finished rank %d (%s)",
                node.rank, gc.planted_culprit, gc.note.c_str()));
        }
    }
}

} // namespace

std::vector<std::string> check_case(const arch::SystemSpec& sys,
                                    const GeneratedCase& gc, int perturbations) {
    std::vector<std::string> fails;
    const Placement placement = Placement::block(sys.node, 2, gc.ranks, 1);
    const Engine eng(sys, placement, 0.8);
    const RefEngine ref(sys, placement, 0.8);
    const auto perturb_opts = [](int k) {
        RunOptions opts;
        opts.perturb_seed = 0x5eedc0deULL + static_cast<std::uint64_t>(k);
        return opts;
    };

    // The dedup + rank-equivalence-collapse pipeline must be bit-identical
    // to the per-rank vector path on every case; SPMD rounds (generator kind
    // 6) make some bundles genuinely shared so collapsed classes split
    // mid-run under the checker's eyes.
    const ProgramBundle bundle = ProgramBundle::from(gc.programs);

    if (gc.deadlock == DeadlockKind::none) {
        const auto run_one = [&](const char* who,
                                 auto&& fn) -> std::optional<RunResult> {
            try {
                return fn();
            } catch (const std::exception& e) {
                fails.push_back(util::format("%s threw: %s", who, e.what()));
                return std::nullopt;
            }
        };
        const auto base =
            run_one("engine", [&] { return eng.run(gc.programs); });
        if (!base) return fails;
        if (const auto r = run_one("ref", [&] { return ref.run(gc.programs); })) {
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back("engine vs ref: " + d);
            }
        }
        if (const auto r = run_one("bundle", [&] { return eng.run(bundle); })) {
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back("engine vs bundle (collapsed): " + d);
            }
        }
        if (const auto r = run_one("bundle-flat", [&] {
                RunOptions opts;
                opts.collapse = false;
                return eng.run(bundle, opts);
            })) {
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back("engine vs bundle (collapse off): " + d);
            }
        }
        if (const auto r = run_one("bundle-ref", [&] { return ref.run(bundle); })) {
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back("ref vs bundle: " + d);
            }
        }
        for (int k = 1; k <= perturbations; ++k) {
            const auto r = run_one(util::format("perturb %d", k).c_str(), [&] {
                return eng.run(gc.programs, perturb_opts(k));
            });
            if (!r) continue;
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back(util::format("engine vs perturb %d: ", k) + d);
            }
        }
        // Perturbed collapsed runs: splitting order must not leak into the
        // result either. Two seeds keep the suite's runtime in check.
        for (int k = 1; k <= std::min(perturbations, 2); ++k) {
            const auto r =
                run_one(util::format("bundle perturb %d", k).c_str(), [&] {
                    return eng.run(bundle, perturb_opts(k));
                });
            if (!r) continue;
            if (const std::string d = diff_results(*base, *r); !d.empty()) {
                fails.push_back(
                    util::format("engine vs bundle perturb %d: ", k) + d);
            }
        }
        return fails;
    }

    // Deadlock case: every executor must throw sim::DeadlockError, the
    // reports must be byte-identical, and the diagnosis must name the
    // planted fault.
    const auto expect_deadlock =
        [&](const std::string& who, auto&& fn) -> std::optional<WaitForGraph> {
        try {
            (void)fn();
            fails.push_back(who + ": deadlock not detected");
        } catch (const DeadlockError& e) {
            return e.graph();
        } catch (const std::exception& e) {
            fails.push_back(
                util::format("%s: wrong error: %s", who.c_str(), e.what()));
        }
        return std::nullopt;
    };
    const auto base =
        expect_deadlock("engine", [&] { return eng.run(gc.programs); });
    if (!base) return fails;
    validate_diagnosis(gc, *base, &fails);
    if (const auto g =
            expect_deadlock("bundle", [&] { return eng.run(bundle); })) {
        if (g->render() != base->render()) {
            fails.push_back("bundle diagnosis differs from engine:\n--- engine\n" +
                            base->render() + "\n--- bundle\n" + g->render());
        }
    }
    if (const auto g =
            expect_deadlock("ref", [&] { return ref.run(gc.programs); })) {
        if (g->render() != base->render()) {
            fails.push_back("ref diagnosis differs from engine:\n--- engine\n" +
                            base->render() + "\n--- ref\n" + g->render());
        }
    }
    for (int k = 1; k <= perturbations; ++k) {
        const auto g = expect_deadlock(util::format("perturb %d", k), [&] {
            return eng.run(gc.programs, perturb_opts(k));
        });
        if (g && g->render() != base->render()) {
            fails.push_back(
                util::format("perturb %d diagnosis differs from engine", k));
        }
    }
    return fails;
}

std::string CheckReport::render() const {
    std::string out = util::format(
        "sim::check: %d cases (%d with planted deadlocks), %d perturbed"
        " schedules each\n",
        cases, deadlock_cases, perturbations);
    for (const auto& f : failures) out += "FAIL " + f + "\n";
    out += ok() ? "result: OK" : util::format("result: %zu FAILURES",
                                              failures.size());
    return out;
}

CheckReport run_suite(const arch::SystemSpec& sys, const CheckConfig& cfg) {
    CheckReport rep;
    rep.perturbations = cfg.perturbations;
    const int n = cfg.seeds;
    std::vector<std::vector<std::string>> fails(static_cast<std::size_t>(n));
    std::vector<char> dead(static_cast<std::size_t>(n), 0);

    const auto run_one = [&](int i) {
        const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(i);
        GenConfig g;
        g.ranks = cfg.ranks;
        if (cfg.deadlock_every > 0 && (i + 1) % cfg.deadlock_every == 0) {
            g.deadlock = static_cast<DeadlockKind>(1 + seed % 3);
        }
        dead[static_cast<std::size_t>(i)] = g.deadlock != DeadlockKind::none;
        try {
            const GeneratedCase gc = generate(seed, g);
            fails[static_cast<std::size_t>(i)] =
                check_case(sys, gc, cfg.perturbations);
        } catch (const std::exception& e) {
            // Tasks must not throw (util::ThreadPool contract).
            fails[static_cast<std::size_t>(i)] = {
                util::format("checker threw: %s", e.what())};
        }
    };

    if (cfg.jobs <= 1) {
        for (int i = 0; i < n; ++i) run_one(i);
    } else {
        util::ThreadPool pool(cfg.jobs);
        std::vector<std::function<void()>> tasks;
        tasks.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            tasks.push_back([&run_one, i] { run_one(i); });
        }
        pool.run_batch(std::move(tasks));
    }

    // Seed-ordered aggregation: the report is identical for any job count.
    for (int i = 0; i < n; ++i) {
        ++rep.cases;
        if (dead[static_cast<std::size_t>(i)]) ++rep.deadlock_cases;
        const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(i);
        for (const auto& f : fails[static_cast<std::size_t>(i)]) {
            rep.failures.push_back(util::format(
                "seed %llu: ", static_cast<unsigned long long>(seed)) + f);
        }
    }
    return rep;
}

} // namespace armstice::sim::check
