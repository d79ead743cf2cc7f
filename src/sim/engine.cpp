#include "sim/engine.hpp"

#include "sim/deadlock.hpp"
#include "util/error.hpp"
#include "util/fpadd.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

namespace armstice::sim {
namespace {

struct Message {
    int src = 0;
    int tag = 0;
    double arrival = 0;
};

/// One (src, dst) message FIFO. Head-indexed with small-buffer storage: push
/// at the back, consume at `head`, reset when drained so storage is reused.
/// Messages live in the inline array until the queue outgrows it within one
/// drain cycle, then spill to the heap vector (sticky until the next drain).
/// Halo traffic keeps 1-2 messages in flight per (src, dst) pair, so the hot
/// path — the header fields plus the first inline slot are laid out to be
/// exactly one cache line — never touches a second heap allocation: at 10^3
/// ranks the old vector<Message> indirection made every send and every match
/// a chain of dependent out-of-cache loads.
///
/// All queues of a run live in ONE flat arena (run_impl's `qarena`), and a
/// mailbox is just a tiny src->slot index.
struct SrcQueue {
    static constexpr std::uint32_t kInline = 3;
    int src = 0;
    std::uint32_t head = 0;
    std::uint32_t count = 0;    ///< logical size ([0, head) consumed)
    std::uint32_t spilled = 0;  ///< messages live in `spill`, not `inl`
    Message inl[kInline];
    std::vector<Message> spill;

    [[nodiscard]] const Message* data() const {
        return spilled ? spill.data() : inl;
    }
    [[nodiscard]] Message* data() { return spilled ? spill.data() : inl; }
    [[nodiscard]] std::uint32_t size() const { return count; }
    void push_back(const Message& m) {
        if (!spilled && count < kInline) {
            inl[count++] = m;
            return;
        }
        if (!spilled) {
            spill.assign(inl, inl + count);
            spilled = 1;
        }
        spill.push_back(m);
        ++count;
    }
    void reset() {
        head = 0;
        count = 0;
        spilled = 0;
        spill.clear();  // capacity kept: repeated spills stay allocation-free
    }
    /// Remove the message at `i` (mid-queue tag mismatch — rare), keeping
    /// FIFO order of the rest.
    void erase_at(std::uint32_t i) {
        Message* d = data();
        for (std::uint32_t j = i + 1; j < count; ++j) d[j - 1] = d[j];
        --count;
        if (spilled) spill.pop_back();
    }
    /// Consume the matched message at `i` (head-advance fast path).
    void consume(std::uint32_t i) {
        if (i == head) {
            if (++head == count) reset();
        } else {
            erase_at(i);
        }
    }
};

/// One rank's inbox: (source rank, qarena slot) pairs. Ranks receive from a
/// handful of sources (halo neighbours), so the list is a small linearly-
/// scanned vector — 8 bytes per source, one cache line for 8 neighbours.
struct Mailbox {
    struct SrcSlot {
        int src;
        std::uint32_t slot;  ///< index into run_impl's qarena
    };
    std::vector<SrcSlot> srcs;
};

enum class BlockKind { none, recv, collective };

/// One *simulation class*: a set of ranks whose control flow is provably
/// identical (same Program object, same ExecContext class) executing as one
/// state machine (DESIGN.md §11). A singleton class is exactly the old
/// per-rank state. Collapsed classes split — lazily, the moment the next op
/// could break the symmetry — into subclasses that inherit the shared state,
/// so every rank's trajectory is bit-identical to an uncollapsed run.
/// Absolute-addressed p2p splits to singletons; relative-addressed p2p (the
/// halo form) splits by *group*, peeling off only the members whose hop tier
/// or message arrival actually diverges. OS noise never splits: it moves the
/// members' clocks into per-member arrays (MemberClocks) instead.
struct SimClass {
    // Execution state (what RankState used to hold).
    std::size_t pc = 0;
    double time = 0;
    BlockKind blocked = BlockKind::none;
    int want_src = kAnySource;
    int want_tag = 0;
    /// want_src is a rank *offset* (class blocked on a relative recv; each
    /// member m waits on m + want_src). Never true alongside a wildcard:
    /// relative receives are explicit-source by construction.
    bool want_rel = false;
    int coll_count = 0;      ///< collectives entered (per member)
    PhaseId mark_id = kNoPhase;  ///< current MarkOp label (kNoPhase = none)
    bool finished = false;
    bool queued = false;
    bool any_grant = false;  ///< quiescence grant for an ANY_SOURCE recv
    /// MemberClocks slot; -1 = members agree (scalars). Kept on the first
    /// cache line, beside the fields a collective's waiter update touches.
    int clk = -1;
    // Class identity.
    const Program* prog = nullptr;
    std::uint32_t ctx = 0;   ///< ExecContext class (cost-memo row)
    int rep = 0;             ///< lowest member rank; the one "executing"
    int size = 1;            ///< member count
    std::vector<int> members;  ///< ascending; members[0] == rep
    /// Verified relative-send hop tiers: (rank offset -> hop tier, -1 =
    /// on-node), recorded only when the tier is uniform across members.
    /// Membership only ever shrinks, and uniform-over-a-set implies
    /// uniform-over-every-subset, so split-off subclasses inherit entries
    /// soundly — each halo direction is proven once per class, not once per
    /// class per iteration.
    std::vector<std::pair<int, int>> rel_tiers;
    // Per-member results, replicated to every member at the end. Summing the
    // replicas in ascending rank order reproduces the uncollapsed reductions
    // bit-exactly because each member would have produced the same values.
    // Once clk >= 0, `time`, the time-derived stats and `phase` are frozen
    // and the MemberClocks arrays hold each member's values; the counts,
    // `injected_bytes` and `flops` never depend on time and stay here.
    RankStats stats;
    double flops = 0;
    std::vector<double> phase;  ///< compute seconds per interned PhaseId
};

/// Per-member clocks of a merged class whose members' times have diverged
/// (OS noise, DESIGN.md §11.5). Every array is parallel to
/// SimClass::members; `phase[id]` is one column of per-member compute
/// seconds, empty for a label the class has not timed.
struct MemberClocks {
    std::vector<double> time;
    std::vector<double> compute;
    std::vector<double> recv_wait;
    std::vector<double> coll_wait;
    std::vector<std::vector<double>> phase;
};

enum class CollKind { none, allreduce, barrier, alltoall };

struct Collective {
    CollKind kind = CollKind::none;
    double bytes = 0;
    int arrived = 0;         ///< ranks (not classes) that have entered
    double max_time = 0;
    std::vector<std::uint32_t> waiters;  ///< blocked class indices
    double completion = 0;
};

/// Memoized CostModel pricing for one phase content (cost_signature key):
/// `dt[cls]` is the priced time under ExecContext class `cls`. `rep` copies
/// the first phase seen with this key (kept inline so the hot-path content
/// check never chases a pointer into another rank's program); an op whose
/// phase disagrees with `rep` (hash collision) is priced directly and never
/// shares the slot. `rep_addr` short-circuits the content check when ranks
/// share one program object (ProgramBundle) or one pooled phase.
struct CostEntry {
    arch::ComputePhase rep;
    const arch::ComputePhase* rep_addr = nullptr;
    std::vector<double> dt;
    std::vector<char> have;
};

} // namespace

double noise_sample(int rank, std::size_t op_index) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                          (static_cast<std::uint64_t>(rank) << 32) ^ op_index;
    const double u =
        static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
    return std::min(8.0, -std::log1p(-u));
}

double RunResult::mean_compute() const {
    double s = 0;
    for (const auto& r : ranks) s += r.compute;
    return ranks.empty() ? 0.0 : s / static_cast<double>(ranks.size());
}

double RunResult::mean_recv_wait() const {
    double s = 0;
    for (const auto& r : ranks) s += r.recv_wait;
    return ranks.empty() ? 0.0 : s / static_cast<double>(ranks.size());
}

double RunResult::mean_collective_wait() const {
    double s = 0;
    for (const auto& r : ranks) s += r.collective_wait;
    return ranks.empty() ? 0.0 : s / static_cast<double>(ranks.size());
}

Engine::Engine(const arch::SystemSpec& sys, Placement placement, double vec_quality,
               arch::ModelKnobs knobs)
    : sys_(&sys),
      placement_(std::move(placement)),
      vec_quality_(vec_quality),
      cost_(knobs),
      network_(sys.net, placement_.nodes()) {
    ARMSTICE_CHECK(vec_quality_ > 0.0 && vec_quality_ <= 1.0,
                   "vec_quality must be in (0,1]");
}

RunResult Engine::run(const std::vector<Program>& programs, Trace* trace) const {
    return run(programs, RunOptions{}, trace);
}

RunResult Engine::run(const ProgramBundle& bundle, Trace* trace) const {
    return run(bundle, RunOptions{}, trace);
}

RunResult Engine::run(const std::vector<Program>& programs, const RunOptions& opts,
                      Trace* trace) const {
    const int n = placement_.ranks();
    ARMSTICE_CHECK(static_cast<int>(programs.size()) == n,
                   util::format("programs (%zu) != ranks (%d)", programs.size(), n));
    std::vector<const Program*> progs;
    progs.reserve(programs.size());
    for (const auto& p : programs) progs.push_back(&p);
    return run_impl(progs, trace, opts);
}

RunResult Engine::run(const ProgramBundle& bundle, const RunOptions& opts,
                      Trace* trace) const {
    const int n = placement_.ranks();
    ARMSTICE_CHECK(bundle.ranks() == n,
                   util::format("bundle ranks (%d) != ranks (%d)", bundle.ranks(), n));
    std::vector<const Program*> progs;
    progs.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) progs.push_back(&bundle.of(r));
    return run_impl(progs, trace, opts);
}

RunResult Engine::run_impl(const std::vector<const Program*>& progs,
                           Trace* trace, const RunOptions& opts) const {
    const int n = placement_.ranks();

    const net::CollectiveModel coll_model(network_);
    // Collective layout from the *actual* placement occupancy (Placement::
    // comm_layout, shared with sim::RefEngine so both price collectives
    // identically).
    const net::CommLayout layout = placement_.comm_layout();

    // ExecContext equivalence classes: pricing depends only on the context
    // fields, and SPMD placements produce a handful of distinct contexts
    // (often one), so phases are priced once per (content, class) instead of
    // once per rank. Exact field equality keeps results bit-identical.
    std::vector<arch::ExecContext> class_ctx;
    std::vector<std::uint32_t> ctx_of(static_cast<std::size_t>(n), 0);
    // One-slot memo over the classification: exec_context is a pure function
    // of (node, first_domain, domains_spanned) for fixed vec_quality and
    // threads, and block placements lay consecutive ranks on one domain, so
    // runs of ranks resolve without rebuilding + re-comparing the context.
    // At 10^6 SPMD ranks this loop used to be a measurable slice of the run.
    int memo_node = -1, memo_dom = -1, memo_span = -1;
    std::uint32_t memo_cc = 0;
    for (int r = 0; r < n; ++r) {
        const RankLoc& l = placement_.loc(r);
        if (l.node == memo_node && l.first_domain == memo_dom &&
            l.domains_spanned == memo_span) {
            ctx_of[static_cast<std::size_t>(r)] = memo_cc;
            continue;
        }
        const arch::ExecContext ctx = placement_.exec_context(r, vec_quality_);
        std::uint32_t cc = UINT32_MAX;
        for (std::size_t i = 0; i < class_ctx.size(); ++i) {
            const auto& c = class_ctx[i];
            if (c.cpu == ctx.cpu && c.vec_quality == ctx.vec_quality &&
                c.threads == ctx.threads &&
                c.streams_on_domain == ctx.streams_on_domain &&
                c.domains_spanned == ctx.domains_spanned) {
                cc = static_cast<std::uint32_t>(i);
                break;
            }
        }
        if (cc == UINT32_MAX) {
            cc = static_cast<std::uint32_t>(class_ctx.size());
            class_ctx.push_back(ctx);
        }
        ctx_of[static_cast<std::size_t>(r)] = cc;
        memo_node = l.node;
        memo_dom = l.first_domain;
        memo_span = l.domains_spanned;
        memo_cc = cc;
    }
    const std::size_t n_classes = class_ctx.size();
    std::unordered_map<std::uint64_t, CostEntry> cost_memo;
    // One-slot cache over cost_memo: consecutive compute ops (and SPMD peers
    // scheduled back to back) repeat the same cost_key, and unordered_map
    // nodes are pointer-stable, so the hit path skips the hash probe.
    // cost_signature is never 0, so 0 is a safe empty sentinel.
    std::uint64_t memo_last_key = 0;
    CostEntry* memo_last = nullptr;
    // Memoized pricing of one compute op under ExecContext class `cc`
    // (before per-rank noise).
    const auto price_compute = [&](const ComputeOp& c,
                                   const arch::ComputePhase& phase,
                                   std::uint32_t cc) -> double {
        CostEntry* entry_p;
        if (c.cost_key == memo_last_key) {
            entry_p = memo_last;  // consecutive ops repeat phases
        } else {
            entry_p = &cost_memo[c.cost_key];  // nodes are stable
            memo_last_key = c.cost_key;
            memo_last = entry_p;
        }
        auto& entry = *entry_p;
        if (entry.rep_addr == nullptr) {
            entry.rep = phase;
            entry.rep_addr = &phase;
            entry.dt.assign(n_classes, 0.0);
            entry.have.assign(n_classes, 0);
        }
        if (entry.rep_addr == &phase || arch::same_cost_inputs(entry.rep, phase)) {
            if (!entry.have[cc]) {
                // Bit-identical across sharers: explain() reads only the
                // (bitwise equal) same_cost_inputs fields.
                entry.dt[cc] = cost_.phase_time(phase, class_ctx[cc]);
                entry.have[cc] = 1;
            }
            return entry.dt[cc];
        }
        // Hash collision between different phase contents: price this op
        // directly rather than share a wrong time.
        return cost_.phase_time(phase, class_ctx[cc]);
    };

    // --- Simulation classes (rank-equivalence collapse, DESIGN.md §11) ---
    // Ranks sharing one Program object (ProgramBundle dedup) and one
    // ExecContext class start in one SimClass and execute once. Program
    // *identity* (not content) is the key: the per-rank-vector run() overload
    // passes n distinct pointers and degenerates to n singletons, preserving
    // its exact legacy behaviour. Tracing needs per-rank spans, so a Trace
    // forces singletons too.
    const bool collapse = opts.collapse && trace == nullptr;
    std::vector<SimClass> cls;
    std::vector<std::uint32_t> cls_of(static_cast<std::size_t>(n), 0);
    if (collapse) {
        std::map<std::pair<const Program*, std::uint32_t>, std::uint32_t> groups;
        for (int r = 0; r < n; ++r) {
            const std::uint32_t cc = ctx_of[static_cast<std::size_t>(r)];
            const auto key = std::make_pair(progs[static_cast<std::size_t>(r)], cc);
            auto [it, fresh] = groups.emplace(key, static_cast<std::uint32_t>(cls.size()));
            if (fresh) {
                SimClass s;
                s.prog = progs[static_cast<std::size_t>(r)];
                s.ctx = cc;
                s.rep = r;
                s.size = 0;
                cls.push_back(std::move(s));
            }
            auto& c = cls[it->second];
            c.members.push_back(r);
            ++c.size;
            cls_of[static_cast<std::size_t>(r)] = it->second;
        }
    } else {
        cls.resize(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            auto& c = cls[static_cast<std::size_t>(r)];
            c.prog = progs[static_cast<std::size_t>(r)];
            c.ctx = ctx_of[static_cast<std::size_t>(r)];
            c.rep = r;
            cls_of[static_cast<std::size_t>(r)] = static_cast<std::uint32_t>(r);
        }
    }

    RunResult result;

    // Per-phase compute seconds accumulate *per class* (indexed by interned
    // PhaseId) in program order, which no schedule can permute, and reduce
    // across ranks in ascending rank order at the end — so the FP sums are
    // schedule-invariant (DESIGN.md §10.2) and collapse-invariant (every
    // member replicates its class's values). `phase_seen` (not acc != 0)
    // mirrors the old map semantics: executing a zero-cost phase still
    // creates its entry. total_flops gets the same treatment via
    // SimClass::flops.
    std::vector<char> phase_seen;
    const auto accum_phase = [&](SimClass& s, PhaseId id, double dt) {
        if (id >= s.phase.size()) s.phase.resize(id + 1, 0.0);
        if (id >= phase_seen.size()) phase_seen.resize(id + 1, 0);
        s.phase[id] += dt;
        phase_seen[id] = 1;
    };

    // --- Per-member clocks (DESIGN.md §11.5) -------------------------------
    // The OS-noise draw is keyed on the rank, so a merged class's members
    // drift apart at its first noisy compute op. The class does not split:
    // it keeps one pc, program and block state, and its members' times (with
    // the stats and phase sums that follow from them) move into a
    // MemberClocks slot. Each member then runs exactly the FP operations its
    // singleton would, so results stay bit-identical. At os_noise == 0 no
    // class ever gets a slot, and every op takes the scalar path: the
    // member_* lambdas are kept out of line and their branches marked
    // unlikely, so the scalar hot paths compile as they did without them.
    const double os_noise = cost_.knobs().os_noise;
    std::vector<MemberClocks> clocks;
    // Give class s per-member clocks, every member starting from the shared
    // scalar values. Only labels with time get a column: an absent column
    // reads as 0, and adding 0 to a positive sum leaves its bits unchanged.
    const auto diverge = [&](SimClass& s) {
        const std::size_t k = s.members.size();
        MemberClocks mc;
        mc.time.assign(k, s.time);
        mc.compute.assign(k, s.stats.compute);
        mc.recv_wait.assign(k, s.stats.recv_wait);
        mc.coll_wait.assign(k, s.stats.collective_wait);
        mc.phase.resize(s.phase.size());
        for (std::size_t id = 0; id < s.phase.size(); ++id) {
            if (s.phase[id] != 0.0) mc.phase[id].assign(k, s.phase[id]);
        }
        s.clk = static_cast<int>(clocks.size());
        clocks.push_back(std::move(mc));
    };
    // Hand the members at `idx` (ascending indices into mc) to class s: a
    // group of one goes back to the scalar fields, a larger group gets its
    // own slot.
    const auto hand_members = [&](SimClass& s, const MemberClocks& mc,
                                  const std::vector<std::uint32_t>& idx) {
        if (idx.size() == 1) {
            const std::uint32_t i = idx[0];
            s.clk = -1;
            s.time = mc.time[i];
            s.stats.compute = mc.compute[i];
            s.stats.recv_wait = mc.recv_wait[i];
            s.stats.collective_wait = mc.coll_wait[i];
            s.phase.assign(mc.phase.size(), 0.0);
            for (std::size_t id = 0; id < mc.phase.size(); ++id) {
                if (!mc.phase[id].empty()) s.phase[id] = mc.phase[id][i];
            }
            return;
        }
        const auto pick = [&](const std::vector<double>& v) {
            std::vector<double> out;
            out.reserve(idx.size());
            for (const std::uint32_t i : idx) out.push_back(v[i]);
            return out;
        };
        MemberClocks g;
        g.time = pick(mc.time);
        g.compute = pick(mc.compute);
        g.recv_wait = pick(mc.recv_wait);
        g.coll_wait = pick(mc.coll_wait);
        g.phase.resize(mc.phase.size());
        for (std::size_t id = 0; id < mc.phase.size(); ++id) {
            if (!mc.phase[id].empty()) g.phase[id] = pick(mc.phase[id]);
        }
        s.clk = static_cast<int>(clocks.size());
        clocks.push_back(std::move(g));
    };
    // One ComputeOp under noise for merged class ci: priced once, then each
    // member stretches the price by its own draw — the expression the
    // singleton path evaluates, so every member's bits match.
    const auto member_compute = [&](std::uint32_t ci,
                                    const ComputeOp& c) __attribute__((noinline)) {
        SimClass& s = cls[ci];
        if (s.clk < 0) diverge(s);
        MemberClocks& mc = clocks[static_cast<std::size_t>(s.clk)];
        const arch::ComputePhase& phase = s.prog->phase_of(c);
        const double dt = price_compute(c, phase, s.ctx);
        const PhaseId label_id = s.mark_id != kNoPhase ? s.mark_id : c.label_id;
        if (label_id >= phase_seen.size()) phase_seen.resize(label_id + 1, 0);
        phase_seen[label_id] = 1;
        if (label_id >= mc.phase.size()) mc.phase.resize(label_id + 1);
        std::vector<double>& col = mc.phase[label_id];
        if (col.empty()) col.assign(s.members.size(), 0.0);
        for (std::size_t i = 0; i < s.members.size(); ++i) {
            const double d =
                dt * (1.0 + os_noise * noise_sample(s.members[i], s.pc));
            mc.time[i] += d;
            mc.compute[i] += d;
            col[i] += d;
        }
        s.flops += phase.flops;
        ++s.pc;
    };
    // Collective completion for every member of a class with clocks: the
    // singleton's wait and clock update, member by member.
    const auto member_sync = [&](SimClass& s,
                                 double completion) __attribute__((noinline)) {
        MemberClocks& mc = clocks[static_cast<std::size_t>(s.clk)];
        for (std::size_t i = 0; i < mc.time.size(); ++i) {
            mc.coll_wait[i] += completion - mc.time[i];
            mc.time[i] = completion;
        }
    };

    // P2p state — per-rank home nodes and mailboxes — is materialised lazily
    // on the first SendOp, so purely collective/compute workloads (the ones
    // that stay collapsed) never allocate O(total ranks) arrays for it.
    const auto& np = network_.params();
    const auto& topo = network_.topology();
    std::vector<int> rank_node;
    std::vector<Mailbox> mailbox;
    /// Every SrcQueue of the run, in creation order (mailbox entries hold
    /// slots into this). Indices stay valid across growth.
    std::vector<SrcQueue> qarena;
    bool p2p_live = false;
    const auto ensure_p2p = [&] {
        if (p2p_live) return;
        rank_node.resize(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            rank_node[static_cast<std::size_t>(r)] = placement_.loc(r).node;
        }
        mailbox.assign(static_cast<std::size_t>(n), Mailbox{});
        p2p_live = true;
    };
    /// Arena slot of src's queue in `box`, creating it if absent.
    const auto slot_for = [&](Mailbox& box, int src) -> std::uint32_t {
        for (const auto& e : box.srcs) {
            if (e.src == src) return e.slot;
        }
        const auto slot = static_cast<std::uint32_t>(qarena.size());
        qarena.emplace_back();
        qarena.back().src = src;
        box.srcs.push_back(Mailbox::SrcSlot{src, slot});
        return slot;
    };

    // Tiered message-cost table: Network::p2p_time(a, b, bytes) evaluates
    // ((base + bytes/bw) + msg_overhead) where base depends on (a, b) only
    // through the hop count — latency_s + hops*per_hop_s off-node (hops is
    // in [1, diameter], a topology-contract the counting-form diameter()
    // overrides pin) and shm_latency_s on-node. Precomputing base per hop
    // tier with the identical expression keeps the split bit-exact while
    // replacing the old O(nodes^2) node-pair table, whose n_nodes <= 256
    // cutoff silently changed nothing but cost minutes of setup and gigabytes
    // at many-thousand-node scale.
    std::vector<double> hop_base(static_cast<std::size_t>(topo.diameter()) + 1);
    for (std::size_t h = 0; h < hop_base.size(); ++h) {
        hop_base[h] = np.latency_s + static_cast<int>(h) * np.per_hop_s;
    }

    std::vector<Collective> collectives;
    collectives.reserve(64);
    // Collective pricing is a pure function of (kind, bytes) for a fixed
    // layout; memoize it so million-rank iteration loops price each distinct
    // collective once instead of re-walking the topology model per ordinal.
    struct CollPrice {
        CollKind kind;
        double bytes;
        double cost;
    };
    std::vector<CollPrice> coll_prices;
    const auto collective_cost = [&](CollKind kind, double bytes) {
        for (const auto& cp : coll_prices) {
            if (cp.kind == kind && cp.bytes == bytes) return cp.cost;
        }
        double cost = 0.0;
        switch (kind) {
            case CollKind::allreduce: cost = coll_model.allreduce(layout, bytes); break;
            case CollKind::barrier: cost = coll_model.barrier(layout); break;
            case CollKind::alltoall: cost = coll_model.alltoall(layout, bytes); break;
            case CollKind::none: break;
        }
        coll_prices.push_back(CollPrice{kind, bytes, cost});
        return cost;
    };

    // FIFO run queue of class indices as a head-indexed vector (contiguous;
    // compacts when drained, so it stays O(live entries) despite monotonic
    // pushes — and O(classes), not O(ranks), while classes stay collapsed).
    // Pop order is an order-free choice (every schedule produces
    // bit-identical results — the perturbation adversary in sim::check pins
    // exactly that), and FIFO is deliberate: a woken receiver runs only
    // after every already-runnable sender has drained its sends, so each
    // resume consumes a *batch* of messages. A LIFO stack (tried) resumes
    // the receiver after the first message and re-suspends it on the next
    // recv — 5x the suspend/dispatch cycles on halo-exchange programs.
    std::vector<std::uint32_t> runnable;
    runnable.reserve(cls.size() * 2);
    std::size_t run_head = 0;
    for (std::uint32_t i = 0; i < cls.size(); ++i) {
        cls[i].queued = true;
        runnable.push_back(i);
    }
    int finished_ranks = 0;

    const auto wake = [&](std::uint32_t ci) {
        auto& c = cls[ci];
        if (!c.queued && !c.finished) {
            c.queued = true;
            runnable.push_back(ci);
        }
    };

    // Split accounting: every split event is attributed to the op kind that
    // broke the symmetry (bench_engine reports the breakdown).
    enum class SplitWhy { p2p, placement };
    const auto count_split = [&](SplitWhy why) {
        ++result.collapse_splits;
        switch (why) {
            case SplitWhy::p2p: ++result.collapse_split_p2p; break;
            case SplitWhy::placement: ++result.collapse_split_placement; break;
        }
    };

    // Full split: the moment class ci's next op could distinguish members
    // per rank — an absolute-addressed p2p op — every member except the
    // representative peels off into a singleton inheriting the shared state
    // verbatim. Members have shared their control flow up to here by
    // induction, so the inherited state *is* each member's uncollapsed state
    // (with its own clocks, when the class has per-member clocks). New
    // singletons enqueue in ascending member order; collectives never split
    // (their effect on every waiter is symmetric) and MarkOps are per-class.
    // Relative-addressed p2p takes the *grouped* split below instead.
    const auto split_class = [&](std::uint32_t ci, SplitWhy why) {
        std::vector<int> members = std::move(cls[ci].members);
        cls[ci].members.clear();
        cls[ci].size = 1;
        count_split(why);
        const SimClass base = cls[ci];  // state snapshot (members already cut)
        const std::size_t first = cls.size();
        for (std::size_t i = 1; i < members.size(); ++i) {
            SimClass s = base;
            s.rep = members[i];
            s.queued = true;
            cls_of[static_cast<std::size_t>(members[i])] =
                static_cast<std::uint32_t>(cls.size());
            runnable.push_back(static_cast<std::uint32_t>(cls.size()));
            cls.push_back(std::move(s));
        }
        if (base.clk >= 0) {
            const MemberClocks mc = std::move(clocks[static_cast<std::size_t>(base.clk)]);
            std::vector<std::uint32_t> idx(1);
            for (std::uint32_t i = 0; i < members.size(); ++i) {
                idx[0] = i;
                hand_members(cls[i == 0 ? ci : first + i - 1], mc, idx);
            }
        }
        // cls[ci] keeps members[0] == its rep; it is already dequeued and
        // continues executing the op that triggered the split.
    };

    // First message matching (want_src, want_tag). Per-source FIFOs preserve
    // send order within a source (MPI non-overtaking); for MPI_ANY_SOURCE the
    // cross-source winner is the candidate with the smallest (arrival time,
    // source rank) key. Arrival = sender issue time + p2p latency, both pure
    // functions of the programs, so — unlike a global send-issue counter —
    // the match cannot depend on the order the engine happened to run ranks
    // (DESIGN.md §10.2). Only singletons reach this path (wildcard recvs
    // split first; merged relative recvs match per member via rel_probe), so
    // the class rep is the receiving rank.
    const auto find_recv =
        [&](const SimClass& s) -> std::pair<SrcQueue*, std::uint32_t> {
        if (!p2p_live) return {nullptr, 0};
        auto& box = mailbox[static_cast<std::size_t>(s.rep)];
        SrcQueue* best_sq = nullptr;
        std::uint32_t best_i = 0;
        for (const auto& e : box.srcs) {
            if (s.want_src != kAnySource && e.src != s.want_src) continue;
            auto& sq = qarena[e.slot];
            const Message* msgs = sq.data();
            for (std::uint32_t i = sq.head; i < sq.size(); ++i) {
                if (msgs[i].tag != s.want_tag) continue;
                if (best_sq == nullptr ||
                    msgs[i].arrival < best_sq->data()[best_i].arrival ||
                    (msgs[i].arrival == best_sq->data()[best_i].arrival &&
                     sq.src < best_sq->src)) {
                    best_sq = &sq;
                    best_i = i;
                }
                break;  // first tag match per source is the only candidate
            }
            if (s.want_src != kAnySource) break;
        }
        return {best_sq, best_i};
    };
    const auto try_recv = [&](const SimClass& s) -> std::optional<Message> {
        auto [best_sq, best_i] = find_recv(s);
        if (best_sq == nullptr) return std::nullopt;
        Message m = best_sq->data()[best_i];
        best_sq->consume(best_i);
        return m;
    };

    // One bit per rank: "blocked on an explicit-source recv" — exactly the
    // condition under which a send must wake its destination (ANY_SOURCE
    // waiters resolve only at quiescence). Testing the bit keeps the send
    // fast path out of cls_of/cls entirely: the bitmap is 128 bytes per 10^3
    // ranks and stays L1-resident, while cls[cls_of[dst]] is two dependent
    // loads into hundreds of KB of class state. Maintained at every
    // transition of (blocked == recv && want_src != kAnySource): set on
    // explicit-recv block, cleared on every match. The bit is keyed by the
    // *receiving rank*: a singleton's class rep, or — for a merged class
    // blocked on a relative receive — every member (so any member's delivery
    // wakes the class).
    std::vector<std::uint64_t> recv_waiting(
        (static_cast<std::size_t>(n) + 63) / 64, 0);
    const auto set_recv_wait = [&](int rank) {
        recv_waiting[static_cast<std::size_t>(rank) >> 6] |=
            std::uint64_t{1} << (rank & 63);
    };
    const auto clr_recv_wait = [&](int rank) {
        recv_waiting[static_cast<std::size_t>(rank) >> 6] &=
            ~(std::uint64_t{1} << (rank & 63));
    };
    const auto recv_waiting_at = [&](int rank) -> bool {
        return (recv_waiting[static_cast<std::size_t>(rank) >> 6] >>
                (rank & 63)) &
               1;
    };

    // --- Relative-addressed p2p on merged classes (DESIGN.md §11) ----------
    // A relative send/recv (SendOp/RecvOp with rel == true; dst/src is a
    // rank offset) names the same *neighbour relationship* in every member
    // of a class, which is what lets a halo's interior ranks execute p2p
    // merged: the op is timing-equivalent across members whenever the hop
    // tier (sends) or the matched-message completion time (recvs) is
    // uniform, and where that uniformity breaks the class splits by *group*
    // — only the members on the broken side peel off, still merged.

    /// Per-member signatures for a grouped split, parallel to `members`.
    std::vector<std::uint64_t> glabels;

    // Grouped split: partition class ci's members by the signature in
    // `glabels`. The group containing the representative stays in place —
    // already dequeued, it re-executes the op that triggered the split — and
    // every other label peels off as ONE class that stays merged, enqueued
    // in first-appearance order. This is how the halo interior stays
    // collapsed: symmetry breaks along placement and arrival boundaries, not
    // per rank, so a full singleton split would shatter O(surface) structure
    // into O(ranks).
    const auto split_groups = [&](std::uint32_t ci, SplitWhy why) {
        count_split(why);
        const std::vector<int> members = std::move(cls[ci].members);
        std::vector<std::uint64_t> order;  // distinct labels, first-appearance
        for (const std::uint64_t l : glabels) {
            bool seen = false;
            for (const std::uint64_t o : order) seen = seen || o == l;
            if (!seen) order.push_back(l);
        }
        cls[ci].members.clear();
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (glabels[i] == order[0]) cls[ci].members.push_back(members[i]);
        }
        cls[ci].size = static_cast<int>(cls[ci].members.size());
        const SimClass base = cls[ci];  // snapshot after trimming members
        const std::size_t first = cls.size();
        for (std::size_t g = 1; g < order.size(); ++g) {
            SimClass s = base;
            s.members.clear();
            for (std::size_t i = 0; i < members.size(); ++i) {
                if (glabels[i] == order[g]) s.members.push_back(members[i]);
            }
            s.size = static_cast<int>(s.members.size());
            s.rep = s.members[0];
            s.queued = true;
            const auto nc = static_cast<std::uint32_t>(cls.size());
            for (const int m : s.members) {
                cls_of[static_cast<std::size_t>(m)] = nc;
            }
            runnable.push_back(nc);
            cls.push_back(std::move(s));
        }
        if (base.clk >= 0) {
            // Partition the per-member clocks the way `members` was.
            const MemberClocks mc = std::move(clocks[static_cast<std::size_t>(base.clk)]);
            std::vector<std::uint32_t> idx;
            for (std::size_t g = 0; g < order.size(); ++g) {
                idx.clear();
                for (std::uint32_t i = 0; i < members.size(); ++i) {
                    if (glabels[i] == order[g]) idx.push_back(i);
                }
                hand_members(cls[g == 0 ? ci : first + g - 1], mc, idx);
            }
        }
    };

    // Hop-tier signature of a relative send from member `m`: -1 when source
    // and destination share a node, else the hop count. Together with the
    // byte count this determines the transfer price, so "same tier for every
    // member" is exactly "same send timing for every member".
    const auto rel_tier = [&](int m, int delta) -> int {
        const int a = rank_node[static_cast<std::size_t>(m)];
        const int b = rank_node[static_cast<std::size_t>(m + delta)];
        return a == b ? -1 : topo.hops(a, b);
    };
    // Transfer seconds under one tier — the same expressions as the absolute
    // SendOp branch, so merged and singleton executions produce equal bits.
    const auto tier_price = [&](int tier, double bytes) -> double {
        if (tier < 0) {
            return np.shm_latency_s + bytes / np.shm_bandwidth +
                   np.msg_overhead_s;
        }
        return hop_base[static_cast<std::size_t>(tier)] + bytes / np.bandwidth +
               np.msg_overhead_s;
    };

    // Collapse-path classes always carry `members`; singletons from the
    // uncollapsed path or a full split leave it empty.
    const auto each_member = [&](const SimClass& s, auto&& f) {
        if (s.members.empty()) {
            f(s.rep);
        } else {
            for (const int m : s.members) f(m);
        }
    };

    /// "No pending match" signature: the all-ones NaN bit pattern, which a
    /// finite completion time can never produce.
    constexpr std::uint64_t kNoMatch = ~std::uint64_t{0};
    struct RelHit {
        std::uint32_t slot = UINT32_MAX;  ///< qarena slot, UINT32_MAX = none
        std::uint32_t idx = 0;
        double arrival = 0;
    };
    std::vector<RelHit> rel_hits;  // scratch, parallel to glabels
    // First tag match in the (m + delta -> m) FIFO — the unique candidate an
    // explicit-source receive can consume, and (FIFO order) a choice that
    // later deliveries can never change.
    const auto rel_match = [&](int m, int delta, int tag) -> RelHit {
        RelHit h;
        if (!p2p_live) return h;
        const auto& box = mailbox[static_cast<std::size_t>(m)];
        const int src = m + delta;
        for (const auto& e : box.srcs) {
            if (e.src != src) continue;
            const auto& sq = qarena[e.slot];
            const Message* msgs = sq.data();
            for (std::uint32_t i = sq.head; i < sq.size(); ++i) {
                if (msgs[i].tag != tag) continue;
                h.slot = e.slot;
                h.idx = i;
                h.arrival = msgs[i].arrival;
                break;
            }
            break;
        }
        return h;
    };
    // Per-member match signatures for a relative receive over class `s`:
    // fills rel_hits and glabels (the bit pattern of the member's completion
    // time max(class time, arrival), or kNoMatch). Returns {any, all}.
    const auto rel_probe = [&](const SimClass& s, int delta,
                               int tag) -> std::pair<bool, bool> {
        rel_hits.clear();
        glabels.clear();
        bool any = false;
        bool all = true;
        each_member(s, [&](int m) {
            const RelHit h = rel_match(m, delta, tag);
            rel_hits.push_back(h);
            if (h.slot == UINT32_MAX) {
                all = false;
                glabels.push_back(kNoMatch);
            } else {
                any = true;
                const double done = h.arrival > s.time ? h.arrival : s.time;
                std::uint64_t bits;
                std::memcpy(&bits, &done, sizeof bits);
                glabels.push_back(bits);
            }
        });
        return {any, all};
    };

    // Relative send and fully matched relative receive for a class with
    // per-member clocks: the tier and price are shared, but each member
    // stamps its own arrival, advances its own clock and adds its own wait —
    // the singleton's expressions, member by member. Such a class never
    // splits on completion time.
    const auto member_send = [&](SimClass& s, const SendOp& snd,
                                 double p2p) __attribute__((noinline)) {
        MemberClocks& mc = clocks[static_cast<std::size_t>(s.clk)];
        const double inject = np.msg_overhead_s + snd.bytes / np.injection_bw;
        s.stats.injected_bytes += snd.bytes;
        ++s.stats.msgs_sent;
        for (std::size_t i = 0; i < s.members.size(); ++i) {
            const int m = s.members[i];
            const int dst = m + snd.dst;
            qarena[slot_for(mailbox[static_cast<std::size_t>(dst)], m)]
                .push_back(Message{m, snd.tag, mc.time[i] + p2p});
            mc.time[i] += inject;
            if (recv_waiting_at(dst)) {
                wake(cls_of[static_cast<std::size_t>(dst)]);
            }
        }
        ++s.pc;
    };
    const auto member_recv = [&](SimClass& s) __attribute__((noinline)) {
        MemberClocks& mc = clocks[static_cast<std::size_t>(s.clk)];
        for (std::size_t i = 0; i < rel_hits.size(); ++i) {
            const RelHit& h = rel_hits[i];
            qarena[h.slot].consume(h.idx);
            if (h.arrival > mc.time[i]) {
                mc.recv_wait[i] += h.arrival - mc.time[i];
                mc.time[i] = h.arrival;
            }
        }
        ++s.stats.msgs_received;
        s.blocked = BlockKind::none;
        for (const int m : s.members) clr_recv_wait(m);
        ++s.pc;
    };

    // Execute one relative SendOp for class ci (any size). Every member m
    // sends to m + delta at the same class time with the same bytes, so with
    // a uniform hop tier the price — and the sender-side time advance — is
    // one shared value, while delivery stays *physical*: one message into
    // each (m, m + delta) FIFO, exactly what the uncollapsed schedule would
    // enqueue (so absolute receives, wildcard receives and deadlock
    // forensics against merged senders need no special handling). When the
    // tier differs across members (node-edge members of a block placement)
    // the class group-splits by tier with pc unmoved instead, and the caller
    // re-dispatches the now-uniform subgroups. A class with per-member
    // clocks shares the tier and price but stamps each member's own
    // arrival (member_send).
    const auto rel_send_exec = [&](std::uint32_t ci, const SendOp& snd) {
        ensure_p2p();
        {
            const SimClass& s = cls[ci];
            ARMSTICE_CHECK(snd.bytes >= 0, "negative message size");
            each_member(s, [&](int m) {
                const int dst = m + snd.dst;
                ARMSTICE_CHECK(dst >= 0 && dst < n, "send dst out of range");
            });
        }
        int tier = 0;
        if (cls[ci].size <= 1) {
            tier = rel_tier(cls[ci].rep, snd.dst);
        } else {
            auto& s = cls[ci];
            bool cached = false;
            for (const auto& [d, t] : s.rel_tiers) {
                if (d == snd.dst) {
                    tier = t;
                    cached = true;
                    break;
                }
            }
            if (!cached) {
                const int t0 = rel_tier(s.members[0], snd.dst);
                bool uniform = true;
                glabels.clear();
                for (const int m : s.members) {
                    const int t = rel_tier(m, snd.dst);
                    glabels.push_back(static_cast<std::uint32_t>(t));
                    uniform = uniform && t == t0;
                }
                if (!uniform) {
                    split_groups(ci, SplitWhy::placement);
                    return;
                }
                s.rel_tiers.emplace_back(snd.dst, t0);
                tier = t0;
            }
        }
        auto& s = cls[ci];
        const double p2p = tier_price(tier, snd.bytes);
        if (s.clk >= 0) [[unlikely]] {
            member_send(s, snd, p2p);
            return;
        }
        const double arrival = s.time + p2p;
        const double inject = np.msg_overhead_s + snd.bytes / np.injection_bw;
        s.time += inject;
        s.stats.injected_bytes += snd.bytes;
        ++s.stats.msgs_sent;
        each_member(s, [&](int m) {
            const int dst = m + snd.dst;
            qarena[slot_for(mailbox[static_cast<std::size_t>(dst)], m)]
                .push_back(Message{m, snd.tag, arrival});
            if (recv_waiting_at(dst)) {
                wake(cls_of[static_cast<std::size_t>(dst)]);
            }
        });
        ++s.pc;
    };

    // Execute one relative RecvOp for class ci (any size). Each member m
    // matches its own (m + delta -> m) FIFO exactly as a singleton would;
    // the class advances merged only when every member has a match and all
    // completion times agree bit-for-bit — or, with per-member clocks, as
    // soon as every member has a match. A *partial* match blocks rather
    // than splits: an explicit-source FIFO match is fixed once present, so
    // waiting for the stragglers' senders is schedule-equivalent, and the
    // transient rounds where some members' senders simply have not run yet
    // must not shatter the class — genuinely asymmetric cases are
    // group-split at quiescence. All-matched with disagreeing completions
    // splits immediately (more deliveries cannot change a fixed match).
    // Returns true when the class blocked; false when it matched (pc
    // advanced) or group-split (pc unmoved, caller re-dispatches).
    const auto rel_recv_exec = [&](std::uint32_t ci, const RecvOp& rcv) -> bool {
        {
            const SimClass& s = cls[ci];
            each_member(s, [&](int m) {
                const int src = m + rcv.src;
                ARMSTICE_CHECK(src >= 0 && src < n, "recv src out of range");
            });
        }
        auto& s = cls[ci];
        s.want_src = rcv.src;
        s.want_tag = rcv.tag;
        s.want_rel = true;
        const auto [any, all] = rel_probe(s, rcv.src, rcv.tag);
        (void)any;
        if (!all) {
            s.blocked = BlockKind::recv;
            each_member(s, [&](int m) { set_recv_wait(m); });
            return true;
        }
        if (s.clk >= 0) [[unlikely]] {
            member_recv(s);
            return false;
        }
        bool uniform = true;
        for (const std::uint64_t l : glabels) uniform = uniform && l == glabels[0];
        if (!uniform) {
            split_groups(ci, SplitWhy::p2p);
            return false;
        }
        for (const RelHit& h : rel_hits) qarena[h.slot].consume(h.idx);
        double done;
        std::memcpy(&done, &glabels[0], sizeof done);
        // Uniform completion means either every arrival <= class time (no
        // wait anywhere) or every arrival equals `done` (> time), so the
        // per-member wait is one shared value, bit-equal to the singleton's
        // `arrival - time`.
        if (done > s.time) {
            s.stats.recv_wait += done - s.time;
            s.time = done;
        }
        ++s.stats.msgs_received;
        s.blocked = BlockKind::none;
        each_member(s, [&](int m) { clr_recv_wait(m); });
        ++s.pc;
        return false;
    };
    // -----------------------------------------------------------------------

    // Schedule perturbation (sim::check): any nonzero seed permutes every
    // order-free choice the engine makes — the runnable pop order, the
    // quiescence resolver's scan order, and the order a completed
    // collective's waiters are processed in — and results must stay
    // bit-identical (DESIGN.md §10.2).
    util::Rng perturb_rng(opts.perturb_seed);
    const bool perturb = opts.perturb_seed != 0;

    while (finished_ranks < n) {
        if (run_head == runnable.size()) {
            // Merged classes parked on a relative receive with a *partial*
            // match resolve first: in the uncollapsed schedule those members
            // would have consumed their (already fixed) FIFO matches long
            // before quiescence, so they must advance before any wildcard
            // grant reads the pending-message pool. Splitting by match
            // status here — not on every transient mid-round wake — is what
            // keeps a halo's interior classes merged while boundary
            // neighbours trickle in; reaching quiescence with the mismatch
            // still present means it is genuine asymmetry.
            {
                bool progressed = false;
                const std::size_t nc0 = cls.size();  // splits append
                for (std::size_t i = 0; i < nc0; ++i) {
                    SimClass& s = cls[i];
                    if (s.finished || s.size <= 1 || !s.want_rel ||
                        s.blocked != BlockKind::recv) {
                        continue;
                    }
                    const auto [got_any, got_all] =
                        rel_probe(s, s.want_src, s.want_tag);
                    if (!got_any) continue;
                    const auto ci = static_cast<std::uint32_t>(i);
                    if (!got_all) {
                        if (s.clk >= 0) {
                            // Per-member clocks complete each member on its
                            // own: group by match state only.
                            for (std::uint64_t& l : glabels) {
                                if (l != kNoMatch) l = 0;
                            }
                        }
                        split_groups(ci, SplitWhy::p2p);
                        // Matched groups re-execute the receive on wake (a
                        // shared-clock group may split further by completion
                        // time there); the
                        // unmatched group stays blocked. split_groups already
                        // enqueued the peeled groups — only the in-place one
                        // needs an explicit wake when it matched.
                        if (glabels[0] != kNoMatch) wake(ci);
                    } else {
                        wake(ci);  // all matched since blocking: just resume
                    }
                    progressed = true;
                }
                if (progressed) continue;
            }

            // Global quiescence: no rank can advance without an ANY_SOURCE
            // match. Wildcard recvs are resolved only here — an eager match
            // would consume whichever message this particular schedule
            // happened to deliver first, but the quiescent state (and so the
            // pending-message pool the (arrival, src) rule picks from) is a
            // pure function of the programs. The *lowest-ranked* blocked rank
            // with a match resolves first — computed as an explicit min over
            // all eligible classes, never "first eligible found", so the
            // grant is independent of class creation order; under a perturb
            // seed the scan starts at a pseudorandom offset to pin exactly
            // that. (Permuting the grant order itself would be unsound: the
            // granted rank can resume and send a message that outranks an
            // already-pending match on another wildcard receiver.)
            std::uint32_t grant = UINT32_MAX;
            int grant_rank = n;
            const std::size_t nc = cls.size();
            const std::size_t start = perturb && nc > 1 ? perturb_rng.next_below(nc) : 0;
            for (std::size_t k = 0; k < nc; ++k) {
                const std::size_t i = start + k < nc ? start + k : start + k - nc;
                const auto& s = cls[i];
                // !want_rel: a relative offset of -1 aliases the kAnySource
                // sentinel but is an explicit-source wait, never a wildcard.
                if (!s.finished && s.blocked == BlockKind::recv &&
                    !s.want_rel && s.want_src == kAnySource &&
                    s.rep < grant_rank && find_recv(s).first != nullptr) {
                    grant = static_cast<std::uint32_t>(i);
                    grant_rank = s.rep;
                }
            }
            if (grant != UINT32_MAX) {
                cls[grant].any_grant = true;
                wake(grant);
                continue;
            }

            // Stall: snapshot every rank's pending op and throw the wait-for
            // graph (sim/deadlock.hpp). The stalled state is a pure function
            // of the programs — every schedule reaches the same one — so the
            // diagnosis is required to be byte-identical across Engine,
            // RefEngine, all perturbation seeds, and collapse on/off (a
            // collapsed class's state is every member's state).
            std::vector<PendingWait> pending(static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) {
                const auto& s = cls[cls_of[static_cast<std::size_t>(r)]];
                auto& w = pending[static_cast<std::size_t>(r)];
                w.finished = s.finished;
                w.pc = s.pc;
                w.colls_entered = s.coll_count;
                if (s.finished) continue;
                if (s.blocked == BlockKind::recv) {
                    w.blocked_on_recv = true;
                    // A merged relative wait resolves per member — the same
                    // absolute source each singleton would report.
                    w.want_src = s.want_rel ? r + s.want_src : s.want_src;
                    w.want_tag = s.want_tag;
                } else {
                    // The engine counts a collective as entered *before*
                    // blocking, so the blocking ordinal is coll_count - 1.
                    w.coll_ordinal = s.coll_count - 1;
                }
            }
            std::vector<CollDesc> descs(collectives.size());
            for (std::size_t i = 0; i < collectives.size(); ++i) {
                switch (collectives[i].kind) {
                    case CollKind::allreduce: descs[i].kind = "allreduce"; break;
                    case CollKind::barrier: descs[i].kind = "barrier"; break;
                    case CollKind::alltoall: descs[i].kind = "alltoall"; break;
                    case CollKind::none: break;
                }
                descs[i].bytes = collectives[i].bytes;
            }
            throw DeadlockError(build_wait_graph(pending, descs));
        }

        if (perturb) {
            const std::size_t live = runnable.size() - run_head;
            if (live > 1) {
                std::swap(runnable[run_head],
                          runnable[run_head + perturb_rng.next_below(live)]);
            }
        }
        const std::uint32_t ci = runnable[run_head++];
        if (run_head == runnable.size()) {
            runnable.clear();
            run_head = 0;
        } else if (run_head >= 4096 && run_head * 2 >= runnable.size()) {
            // Drop the consumed prefix so programs that never fully drain the
            // queue (collective-free pipelines) stay O(live entries).
            runnable.erase(runnable.begin(),
                           runnable.begin() + static_cast<std::ptrdiff_t>(run_head));
            run_head = 0;
        }
        cls[ci].queued = false;

        // Local copies: stores through cls/mailbox cannot alias the op
        // stream, but the compiler cannot prove that and would otherwise
        // reload ops.data()/size() after every store. The Program pointer is
        // stable across splits (splits copy state, not the program).
        const Program& prog = *cls[ci].prog;
        const Op* const ops_data = prog.ops.data();
        const std::size_t nops = prog.ops.size();

        bool advancing = true;
        while (advancing && cls[ci].pc < nops) {
            // Split-before-execute: peel members off *before* binding any
            // reference (splitting grows `cls`, invalidating references).
            // Relative-addressed p2p is the exception: a merged class
            // executes it in place while the op is provably
            // timing-equivalent across members, group-splitting (not to
            // singletons) exactly where the symmetry breaks. A noisy
            // ComputeOp runs merged on per-member clocks.
            if (cls[ci].size > 1) {
                const Op& op0 = ops_data[cls[ci].pc];
                const std::size_t t = op0.index();
                if (t == 1) {
                    const auto* snd = std::get_if<SendOp>(&op0);
                    if (snd->rel) {
                        rel_send_exec(ci, *snd);  // executed, or group-split
                        continue;                 // with pc unmoved
                    }
                    split_class(ci, SplitWhy::p2p);
                } else if (t == 2) {
                    const auto* rcv = std::get_if<RecvOp>(&op0);
                    if (rcv->rel) {
                        if (rel_recv_exec(ci, *rcv)) advancing = false;
                        continue;
                    }
                    split_class(ci, SplitWhy::p2p);
                } else if (t == 0 && os_noise > 0) [[unlikely]] {
                    member_compute(ci, *std::get_if<ComputeOp>(&op0));
                    continue;
                }
            }
            auto& s = cls[ci];
            auto& stats = s.stats;
            const int r = s.rep;
            const Op& op = ops_data[s.pc];
            // Dispatch on the raw alternative index with a compare chain,
            // most-frequent ops first: conditional branches on a patterned op
            // stream predict far better than one indirect jump.
            const std::size_t tag = op.index();
            if (tag == 1) {  // SendOp
                const auto* snd = std::get_if<SendOp>(&op);
                const int dst = snd->resolve_dst(r);
                ARMSTICE_CHECK(dst >= 0 && dst < n, "send dst out of range");
                ARMSTICE_CHECK(snd->bytes >= 0, "negative message size");
                ensure_p2p();
                const int src_node = rank_node[static_cast<std::size_t>(r)];
                const int dst_node = rank_node[static_cast<std::size_t>(dst)];
                double p2p;
                if (src_node == dst_node) {
                    p2p = np.shm_latency_s + snd->bytes / np.shm_bandwidth +
                          np.msg_overhead_s;
                } else {
                    p2p = hop_base[static_cast<std::size_t>(
                              topo.hops(src_node, dst_node))] +
                          snd->bytes / np.bandwidth + np.msg_overhead_s;
                }
                const double arrival = s.time + p2p;
                const double inject =
                    np.msg_overhead_s + snd->bytes / np.injection_bw;
                if (trace) {
                    trace->add({r, SpanKind::send, "", s.time, s.time + inject});
                }
                s.time += inject;
                stats.injected_bytes += snd->bytes;
                ++stats.msgs_sent;
                qarena[slot_for(mailbox[static_cast<std::size_t>(dst)], r)]
                    .push_back(Message{r, snd->tag, arrival});
                // ANY_SOURCE waiters are not woken by sends: they resolve at
                // quiescence only (schedule invariance).
                if (recv_waiting_at(dst)) {
                    wake(cls_of[static_cast<std::size_t>(dst)]);
                }
                ++s.pc;
            } else if (tag == 2) {  // RecvOp
                const auto* rcv = std::get_if<RecvOp>(&op);
                // A singleton resolves a relative source to its absolute
                // rank up front, so matching, quiescence and forensics all
                // see the exact state an absolute receive would produce.
                s.want_src = rcv->resolve_src(r);
                s.want_tag = rcv->tag;
                s.want_rel = false;
                if (rcv->rel) {
                    ARMSTICE_CHECK(s.want_src >= 0 && s.want_src < n,
                                   "recv src out of range");
                }
                // ANY_SOURCE matches only with a quiescence grant (above);
                // explicit-source matching is confluent and stays eager.
                std::optional<Message> m;
                if (!rcv->is_any() || s.any_grant) {
                    s.any_grant = false;
                    m = try_recv(s);
                }
                if (m) {
                    if (m->arrival > s.time) {
                        if (trace) {
                            trace->add({r, SpanKind::recv_wait, "", s.time, m->arrival});
                        }
                        stats.recv_wait += m->arrival - s.time;
                        s.time = m->arrival;
                    }
                    ++stats.msgs_received;
                    s.blocked = BlockKind::none;
                    clr_recv_wait(r);
                    ++s.pc;
                } else {
                    s.blocked = BlockKind::recv;
                    if (!rcv->is_any()) set_recv_wait(r);
                    advancing = false;
                }
            } else if (tag == 0) {  // ComputeOp
                const auto* c = std::get_if<ComputeOp>(&op);
                const arch::ComputePhase& phase = prog.phase_of(*c);
                double dt = price_compute(*c, phase, s.ctx);
                if (os_noise > 0) {
                    // Rank-keyed draw: merged classes take member_compute.
                    dt *= 1.0 + os_noise * noise_sample(r, s.pc);
                }
                const PhaseId label_id =
                    s.mark_id != kNoPhase ? s.mark_id : c->label_id;
                if (trace) {
                    trace->add({r, SpanKind::compute, phase_table().str(label_id),
                                s.time, s.time + dt});
                }
                s.time += dt;
                stats.compute += dt;
                s.flops += phase.flops;
                accum_phase(s, label_id, dt);
                ++s.pc;
            } else if (tag <= 5) {  // Allreduce(3) / Barrier(4) / Alltoall(5)
                CollKind kind = CollKind::barrier;
                double bytes = 8.0;
                if (const auto* ar = std::get_if<AllreduceOp>(&op)) {
                    kind = CollKind::allreduce;
                    bytes = ar->bytes;
                } else if (const auto* aa = std::get_if<AlltoallOp>(&op)) {
                    kind = CollKind::alltoall;
                    bytes = aa->bytes_each;
                }

                const int ord = s.coll_count;
                if (ord >= static_cast<int>(collectives.size())) {
                    collectives.resize(static_cast<std::size_t>(ord) + 1);
                    auto& fresh = collectives[static_cast<std::size_t>(ord)];
                    fresh.kind = kind;
                    fresh.bytes = bytes;
                }
                auto& coll = collectives[static_cast<std::size_t>(ord)];
                ARMSTICE_CHECK(coll.kind == kind && coll.bytes == bytes,
                               "collective mismatch: ranks disagree on op " +
                                   std::to_string(ord));
                ++s.coll_count;
                // A collapsed class enters on behalf of all its members:
                // `arrived` advances by the member count and max_time sees
                // every member's time (one shared value while they agree).
                if (s.clk < 0) [[likely]] {
                    coll.max_time = std::max(coll.max_time, s.time);
                } else {
                    for (const double t : clocks[static_cast<std::size_t>(s.clk)].time) {
                        coll.max_time = std::max(coll.max_time, t);
                    }
                }
                coll.arrived += s.size;
                if (coll.arrived == n) {
                    coll.completion =
                        coll.max_time + collective_cost(kind, bytes);
                    // Resume everyone (this class inline, peers via queue).
                    // Waiters are blocked, hence neither queued nor finished,
                    // so they can be enqueued without wake()'s checks. Each
                    // waiter's update reads only its own state and the shared
                    // completion time, so the processing order is free —
                    // under a perturb seed it is shuffled to pin that.
                    if (perturb && coll.waiters.size() > 1) {
                        for (std::size_t i = coll.waiters.size() - 1; i > 0; --i) {
                            std::swap(coll.waiters[i],
                                      coll.waiters[perturb_rng.next_below(i + 1)]);
                        }
                    }
                    for (std::uint32_t wi : coll.waiters) {
                        auto& ws = cls[wi];
                        if (trace) {
                            trace->add({ws.rep, SpanKind::collective, "", ws.time,
                                        coll.completion});
                        }
                        if (ws.clk >= 0) [[unlikely]] {
                            member_sync(ws, coll.completion);
                        } else {
                            ws.stats.collective_wait += coll.completion - ws.time;
                            ws.time = coll.completion;
                        }
                        ws.blocked = BlockKind::none;
                        ++ws.pc;
                        ws.queued = true;
                        runnable.push_back(wi);
                    }
                    if (trace) {
                        trace->add({r, SpanKind::collective, "", s.time,
                                    coll.completion});
                    }
                    if (s.clk >= 0) [[unlikely]] {
                        member_sync(s, coll.completion);
                    } else {
                        stats.collective_wait += coll.completion - s.time;
                        s.time = coll.completion;
                    }
                    ++s.pc;
                } else {
                    coll.waiters.push_back(ci);
                    s.blocked = BlockKind::collective;
                    advancing = false;
                }
            } else {  // MarkOp (6)
                s.mark_id = std::get_if<MarkOp>(&op)->label_id;
                ++s.pc;
            }
        }

        auto& done = cls[ci];
        if (done.pc >= nops && !done.finished) {
            done.finished = true;
            done.stats.finish = done.time;
            finished_ranks += done.size;
        }
    }

    // Replicate each class's per-member results to all members, then reduce
    // across ranks in ascending rank order — the one FP addition order every
    // schedule (and RefEngine, and collapse on/off) can reproduce. Iterated
    // over maximal runs of consecutive ranks in one class (SPMD collapse
    // keeps million-rank worlds in a handful of runs): the per-rank adds
    // stay — `acc += v` n times is NOT `acc += n * v`, FP addition does not
    // distribute — but the cls_of chase and bounds checks are hoisted per
    // run, which is most of what the 10^6-rank rows used to pay here. A
    // class with per-member clocks writes each member's own values instead,
    // and its phase sums are added rank by rank.
    std::vector<std::pair<int, std::uint32_t>> rank_runs;  // (first rank, class)
    for (int r = 0; r < n;) {
        const std::uint32_t ci = cls_of[static_cast<std::size_t>(r)];
        rank_runs.emplace_back(r, ci);
        for (++r; r < n && cls_of[static_cast<std::size_t>(r)] == ci; ++r) {
        }
    }
    const auto run_end = [&](std::size_t k) {
        return k + 1 < rank_runs.size() ? rank_runs[k + 1].first : n;
    };
    result.ranks.resize(static_cast<std::size_t>(n));
    // Index of each run's first rank in its class's `members` (read only for
    // classes with per-member clocks).
    std::vector<std::size_t> run_member(rank_runs.size(), 0);
    for (std::size_t k = 0; k < rank_runs.size(); ++k) {
        const auto [r0, ci] = rank_runs[k];
        const int end = run_end(k);
        const SimClass& c = cls[ci];
        if (c.clk < 0) {
            std::fill(result.ranks.begin() + r0, result.ranks.begin() + end, c.stats);
            result.makespan = std::max(result.makespan, c.stats.finish);
        } else {
            const MemberClocks& mc = clocks[static_cast<std::size_t>(c.clk)];
            std::size_t i = static_cast<std::size_t>(
                std::lower_bound(c.members.begin(), c.members.end(), r0) -
                c.members.begin());
            run_member[k] = i;
            for (int r = r0; r < end; ++r, ++i) {
                RankStats& st = result.ranks[static_cast<std::size_t>(r)];
                st = c.stats;
                st.finish = mc.time[i];
                st.compute = mc.compute[i];
                st.recv_wait = mc.recv_wait[i];
                st.collective_wait = mc.coll_wait[i];
                result.makespan = std::max(result.makespan, st.finish);
            }
        }
        // add_repeat IS `acc += v`, end - r0 times, in fl arithmetic — the
        // n-step sequence fast-forwarded binade by binade (util/fpadd.hpp).
        result.total_flops =
            util::fp::add_repeat(result.total_flops, c.flops, end - r0);
    }
    for (PhaseId id = 0; id < phase_seen.size(); ++id) {
        if (!phase_seen[id]) continue;
        double acc = 0.0;
        for (std::size_t k = 0; k < rank_runs.size(); ++k) {
            const SimClass& c = cls[rank_runs[k].second];
            if (c.clk >= 0) {
                const auto& cols = clocks[static_cast<std::size_t>(c.clk)].phase;
                if (id >= cols.size() || cols[id].empty()) continue;
                const double* v = cols[id].data() + run_member[k];
                for (int j = 0; j < run_end(k) - rank_runs[k].first; ++j) acc += v[j];
                continue;
            }
            const auto& per = c.phase;
            if (id >= per.size()) continue;  // no entry: the old loop skipped
            acc = util::fp::add_repeat(acc, per[id],
                                       run_end(k) - rank_runs[k].first);
        }
        result.phase_compute.emplace(phase_table().str(id), acc);
    }
    // End-of-run class count: what the collapse actually sustained once
    // every split had happened (equals the initial count when nothing split).
    result.collapse_classes = static_cast<int>(cls.size());
    return result;
}

} // namespace armstice::sim
