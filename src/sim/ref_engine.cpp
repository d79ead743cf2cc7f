#include "sim/ref_engine.hpp"

#include "sim/deadlock.hpp"
#include "util/error.hpp"
#include "util/str.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace armstice::sim {
namespace {

/// One in-flight message. All messages of a run live in one flat vector and
/// are linearly scanned at every receive — naive on purpose.
struct RefMsg {
    int src = 0;
    int dst = 0;
    int tag = 0;
    double arrival = 0;
    std::uint64_t send_idx = 0;  ///< running count of src's sends (program order)
    bool taken = false;
};

struct RefColl {
    int kind = 0;  ///< 1 allreduce, 2 barrier, 3 alltoall
    double bytes = 0;
    int arrived = 0;
    double max_time = 0;
    bool complete = false;
    double completion = 0;
};

struct RefRank {
    std::size_t pc = 0;
    double time = 0;
    int colls_entered = 0;
    bool in_coll = false;        ///< waiting at collective ordinal colls_entered-1
    bool blocked_on_recv = false;
    int want_src = kAnySource;
    int want_tag = 0;
    bool any_grant = false;      ///< may resolve an ANY_SOURCE recv this sweep
    PhaseId mark_id = kNoPhase;
    bool finished = false;
    std::vector<double> phase;   ///< per-PhaseId compute seconds (program order)
    double flops = 0;
};

const char* coll_name(int kind) {
    switch (kind) {
        case 1: return "allreduce";
        case 2: return "barrier";
        case 3: return "alltoall";
        default: return "collective";
    }
}

} // namespace

RefEngine::RefEngine(const arch::SystemSpec& sys, Placement placement,
                     double vec_quality, arch::ModelKnobs knobs)
    : sys_(&sys),
      placement_(std::move(placement)),
      vec_quality_(vec_quality),
      cost_(knobs),
      network_(sys.net, placement_.nodes()) {
    ARMSTICE_CHECK(vec_quality_ > 0.0 && vec_quality_ <= 1.0,
                   "vec_quality must be in (0,1]");
}

RunResult RefEngine::run(const ProgramBundle& bundle) const {
    std::vector<Program> programs;
    programs.reserve(static_cast<std::size_t>(bundle.ranks()));
    for (int r = 0; r < bundle.ranks(); ++r) programs.push_back(bundle.of(r));
    return run(programs);
}

RunResult RefEngine::run(const std::vector<Program>& programs) const {
    const int n = placement_.ranks();
    ARMSTICE_CHECK(static_cast<int>(programs.size()) == n,
                   util::format("programs (%zu) != ranks (%d)", programs.size(), n));

    const net::CollectiveModel coll_model(network_);
    const net::CommLayout layout = placement_.comm_layout();
    const auto& np = network_.params();
    const double os_noise = cost_.knobs().os_noise;

    std::vector<RefRank> st(static_cast<std::size_t>(n));
    std::vector<RefMsg> msgs;
    std::vector<std::uint64_t> sends_issued(static_cast<std::size_t>(n), 0);
    std::vector<RefColl> colls;
    RunResult result;
    std::vector<RankStats> rank_stats(static_cast<std::size_t>(n));
    std::vector<char> phase_seen;

    // DESIGN.md §5 matching contract, stated directly: the candidate from one
    // source is its earliest unconsumed send with the right tag (per-source
    // FIFO, non-overtaking); an ANY_SOURCE recv takes the candidate with the
    // smallest (arrival, source) key. Returns the message index or npos.
    const auto find_match = [&](int r) -> std::size_t {
        const auto& s = st[static_cast<std::size_t>(r)];
        constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
        std::size_t best = npos;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            const RefMsg& m = msgs[i];
            if (m.taken || m.dst != r || m.tag != s.want_tag) continue;
            if (s.want_src != kAnySource && m.src != s.want_src) continue;
            // Not the source's first matching send? Then it cannot match yet.
            bool first_of_src = true;
            for (std::size_t j = 0; j < msgs.size(); ++j) {
                const RefMsg& o = msgs[j];
                if (!o.taken && o.dst == r && o.tag == s.want_tag &&
                    o.src == m.src && o.send_idx < m.send_idx) {
                    first_of_src = false;
                    break;
                }
            }
            if (!first_of_src) continue;
            if (best == npos || m.arrival < msgs[best].arrival ||
                (m.arrival == msgs[best].arrival && m.src < msgs[best].src)) {
                best = i;
            }
        }
        return best;
    };

    int finished = 0;
    while (finished < n) {
        bool progress = false;
        for (int r = 0; r < n; ++r) {
            auto& s = st[static_cast<std::size_t>(r)];
            if (s.finished) continue;
            auto& stats = rank_stats[static_cast<std::size_t>(r)];
            const Program& prog = programs[static_cast<std::size_t>(r)];

            bool advancing = true;
            while (advancing && s.pc < prog.ops.size()) {
                const Op& op = prog.ops[s.pc];
                if (const auto* snd = std::get_if<SendOp>(&op)) {
                    const int dst = snd->resolve_dst(r);
                    ARMSTICE_CHECK(dst >= 0 && dst < n,
                                   "send dst out of range");
                    const int a = placement_.loc(r).node;
                    const int b = placement_.loc(dst).node;
                    const double arrival =
                        s.time + network_.p2p_time(a, b, snd->bytes);
                    s.time += np.msg_overhead_s + snd->bytes / np.injection_bw;
                    stats.injected_bytes += snd->bytes;
                    ++stats.msgs_sent;
                    RefMsg m;
                    m.src = r;
                    m.dst = dst;
                    m.tag = snd->tag;
                    m.arrival = arrival;
                    m.send_idx = sends_issued[static_cast<std::size_t>(r)]++;
                    msgs.push_back(m);
                    ++s.pc;
                    progress = true;
                } else if (const auto* rcv = std::get_if<RecvOp>(&op)) {
                    // Relative sources resolve to absolute ranks up front
                    // (same rule as the engine's singleton path).
                    s.want_src = rcv->resolve_src(r);
                    s.want_tag = rcv->tag;
                    if (rcv->rel) {
                        ARMSTICE_CHECK(s.want_src >= 0 && s.want_src < n,
                                       "recv src out of range");
                    }
                    std::size_t mi = std::numeric_limits<std::size_t>::max();
                    // ANY_SOURCE resolves only at quiescence, via any_grant
                    // (same rule as the engine; DESIGN.md §10.2).
                    if (!rcv->is_any() || s.any_grant) {
                        s.any_grant = false;
                        mi = find_match(r);
                    }
                    if (mi != std::numeric_limits<std::size_t>::max()) {
                        RefMsg& m = msgs[mi];
                        m.taken = true;
                        if (m.arrival > s.time) {
                            stats.recv_wait += m.arrival - s.time;
                            s.time = m.arrival;
                        }
                        ++stats.msgs_received;
                        s.blocked_on_recv = false;
                        ++s.pc;
                        progress = true;
                    } else {
                        s.blocked_on_recv = true;
                        advancing = false;
                    }
                } else if (const auto* c = std::get_if<ComputeOp>(&op)) {
                    const arch::ComputePhase& phase = prog.phase_of(*c);
                    double dt = cost_.phase_time(
                        phase, placement_.exec_context(r, vec_quality_));
                    if (os_noise > 0) {
                        dt *= 1.0 + os_noise * noise_sample(r, s.pc);
                    }
                    const PhaseId label_id =
                        s.mark_id != kNoPhase ? s.mark_id : c->label_id;
                    s.time += dt;
                    stats.compute += dt;
                    s.flops += phase.flops;
                    if (label_id >= s.phase.size()) s.phase.resize(label_id + 1, 0.0);
                    if (label_id >= phase_seen.size()) phase_seen.resize(label_id + 1, 0);
                    s.phase[label_id] += dt;
                    phase_seen[label_id] = 1;
                    ++s.pc;
                    progress = true;
                } else if (const auto* mk = std::get_if<MarkOp>(&op)) {
                    s.mark_id = mk->label_id;
                    ++s.pc;
                    progress = true;
                } else {  // a collective: allreduce / barrier / alltoall
                    int kind = 2;
                    double bytes = 8.0;
                    if (const auto* ar = std::get_if<AllreduceOp>(&op)) {
                        kind = 1;
                        bytes = ar->bytes;
                    } else if (const auto* aa = std::get_if<AlltoallOp>(&op)) {
                        kind = 3;
                        bytes = aa->bytes_each;
                    }
                    if (!s.in_coll) {
                        const int ord = s.colls_entered;
                        if (ord >= static_cast<int>(colls.size())) {
                            colls.resize(static_cast<std::size_t>(ord) + 1);
                            colls[static_cast<std::size_t>(ord)].kind = kind;
                            colls[static_cast<std::size_t>(ord)].bytes = bytes;
                        }
                        auto& coll = colls[static_cast<std::size_t>(ord)];
                        ARMSTICE_CHECK(coll.kind == kind && coll.bytes == bytes,
                                       "collective mismatch: ranks disagree on op " +
                                           std::to_string(ord));
                        ++s.colls_entered;
                        s.in_coll = true;
                        ++coll.arrived;
                        coll.max_time = std::max(coll.max_time, s.time);
                        if (coll.arrived == n) {
                            double cost = 0.0;
                            switch (kind) {
                                case 1: cost = coll_model.allreduce(layout, bytes); break;
                                case 2: cost = coll_model.barrier(layout); break;
                                case 3: cost = coll_model.alltoall(layout, bytes); break;
                                default: break;
                            }
                            coll.completion = coll.max_time + cost;
                            coll.complete = true;
                        }
                    }
                    const auto& coll =
                        colls[static_cast<std::size_t>(s.colls_entered - 1)];
                    if (coll.complete) {
                        stats.collective_wait += coll.completion - s.time;
                        s.time = coll.completion;
                        s.in_coll = false;
                        ++s.pc;
                        progress = true;
                    } else {
                        advancing = false;
                    }
                }
            }

            if (s.pc >= prog.ops.size() && !s.finished) {
                s.finished = true;
                stats.finish = s.time;
                ++finished;
                progress = true;
            }
        }
        if (progress || finished >= n) continue;

        // Quiescence: resolve the lowest-ranked pending ANY_SOURCE recv that
        // has a match, mirroring the engine's resolver exactly.
        int grant = -1;
        for (int r = 0; r < n; ++r) {
            const auto& s = st[static_cast<std::size_t>(r)];
            if (!s.finished && s.blocked_on_recv && s.want_src == kAnySource &&
                find_match(r) != std::numeric_limits<std::size_t>::max()) {
                grant = r;
                break;
            }
        }
        if (grant >= 0) {
            st[static_cast<std::size_t>(grant)].any_grant = true;
            continue;
        }

        // True stall: snapshot the identical wait-for graph the engine builds.
        std::vector<PendingWait> pending(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            const auto& s = st[static_cast<std::size_t>(r)];
            auto& w = pending[static_cast<std::size_t>(r)];
            w.finished = s.finished;
            w.pc = s.pc;
            w.colls_entered = s.colls_entered;
            if (s.finished) continue;
            if (s.blocked_on_recv) {
                w.blocked_on_recv = true;
                w.want_src = s.want_src;
                w.want_tag = s.want_tag;
            } else {
                w.coll_ordinal = s.colls_entered - 1;
            }
        }
        std::vector<CollDesc> descs(colls.size());
        for (std::size_t i = 0; i < colls.size(); ++i) {
            descs[i].kind = coll_name(colls[i].kind);
            descs[i].bytes = colls[i].bytes;
        }
        throw DeadlockError(build_wait_graph(pending, descs));
    }

    result.ranks.reserve(rank_stats.size());
    for (const auto& stats : rank_stats) {
        result.makespan = std::max(result.makespan, stats.finish);
        result.ranks.append(stats);
    }
    for (int r = 0; r < n; ++r) {
        result.total_flops += st[static_cast<std::size_t>(r)].flops;
    }
    for (PhaseId id = 0; id < phase_seen.size(); ++id) {
        if (!phase_seen[id]) continue;
        double acc = 0.0;
        for (int r = 0; r < n; ++r) {
            const auto& per = st[static_cast<std::size_t>(r)].phase;
            if (id < per.size()) acc += per[id];
        }
        result.phase_compute.emplace(phase_table().str(id), acc);
    }
    return result;
}

} // namespace armstice::sim
