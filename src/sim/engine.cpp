#include "sim/engine.hpp"

#include "sim/deadlock.hpp"
#include "util/error.hpp"
#include "util/fpadd.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

namespace armstice::sim {
namespace {

enum class BlockKind { none, recv, collective };

/// One *simulation class*: a set of ranks whose control flow is provably
/// identical (same Program object, same ExecContext class) executing as one
/// state machine (DESIGN.md §11). A singleton class is exactly the old
/// per-rank state. Collapsed classes split — lazily, the moment the next op
/// could break the symmetry — into subclasses that inherit the shared state,
/// so every rank's trajectory is bit-identical to an uncollapsed run.
/// Absolute-addressed p2p splits to singletons. Under OS noise every merged
/// class runs on per-member clocks and hop tiers (MemberClocks) from the
/// moment it forms, so relative-addressed p2p (the halo form) splits it only
/// where match state differs at quiescence. At os_noise = 0 a merged class
/// has one clock and group-splits, peeling off only the members whose hop
/// tier or message arrival actually diverges.
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
    /// MemberClocks slot, held by exactly the merged classes of a run with
    /// OS noise; -1 = one clock (the scalars). Kept on the first cache line,
    /// beside the fields a collective's waiter update touches.
    int clk = -1;
    // Class identity.
    const Program* prog = nullptr;
    std::uint32_t ctx = 0;   ///< ExecContext class (cost-memo row)
    int rep = 0;             ///< lowest member rank; the one "executing"
    int size = 1;            ///< member count
    int node = 0;            ///< rep's node
    std::vector<int> members;  ///< ascending; members[0] == rep
    /// Verified relative-send hop tiers: (rank offset -> hop tier, -1 =
    /// on-node), recorded only when the tier is uniform across members.
    /// Membership only ever shrinks, and uniform-over-a-set implies
    /// uniform-over-every-subset, so split-off subclasses inherit entries
    /// soundly — each halo direction is proven once per class, not once per
    /// class per iteration. Offsets whose members disagree live in
    /// MemberClocks::tiers, which a split picks per part instead.
    std::vector<std::pair<int, int>> rel_tiers;
    // Per-member results, replicated to every member at the end. Summing the
    // replicas in ascending rank order reproduces the uncollapsed reductions
    // bit-exactly because each member would have produced the same values.
    // With clk >= 0, `time`, the time-derived stats and `phase` stay unused
    // and the MemberClocks arrays hold each member's values; the counts,
    // `injected_bytes` and `flops` never depend on time and stay here.
    RankStats stats;
    double flops = 0;
    std::vector<double> phase;  ///< compute seconds per interned PhaseId
};

/// The hop tiers of one relative send offset whose members disagree (a class
/// straddling a node edge under OS noise): the distinct tiers, and each
/// member's index into them, so a send prices each distinct tier once.
struct MemberTiers {
    int off;
    std::vector<int> tiers;
    std::vector<std::uint32_t> which;  ///< parallel to SimClass::members
};

/// Per-member clocks of a merged class under OS noise, whose rank-keyed draws
/// move each member's time on its own (DESIGN.md §11.5). Every array is
/// parallel to SimClass::members; `phase[id]` is one column of per-member
/// compute seconds, empty for a label the class has not timed.
struct MemberClocks {
    std::vector<double> time;
    std::vector<double> compute;
    std::vector<double> recv_wait;
    std::vector<double> coll_wait;
    std::vector<std::vector<double>> phase;
    std::vector<MemberTiers> tiers;
};

/// send_tier's tier of an offset whose members disagree: each member's tier
/// is in MemberClocks::tiers.
constexpr int kTierEach = INT_MIN;

constexpr std::uint32_t kNone = UINT32_MAX;

/// Every message of a run (DESIGN.md §11.4). A message is named by (source,
/// destination, tag, ordinal): the k-th receive of tag t on a (src, dst)
/// pair consumes the k-th send of tag t on that pair, whether the receive
/// names its source or is a granted wildcard. Members of a class have run
/// the same relative ops since run start (absolute and wildcard p2p split
/// first), so a class keeps ONE channel per (peer offset, tag) for all its
/// members — the peer is the destination of its sends and the source of its
/// receives — with their shared send and receive counts and the records of
/// its sends not yet consumed by every destination. A record is one send by
/// every member: one arrival, or one per member for a class with
/// MemberClocks. A merged send therefore appends one record, and a merged
/// receive resolves its members' sources by source class, so a halo round
/// costs O(classes), not O(ranks). A record is freed once every destination
/// pair has consumed it; pairs consume in ordinal order, so a channel frees
/// its records in order and the store holds only in-flight messages.
class MsgStore {
public:
    /// The classes of a class's peers at one rank offset, in first-appearance
    /// order over ascending members, with how many members each one serves.
    struct Peer {
        std::uint32_t cls;
        std::uint32_t count;
    };
    struct Match {
        bool any = false;  ///< some member has its message
        bool all = true;   ///< every member has its message
    };

    MsgStore(const std::vector<SimClass>& cls, const std::vector<std::uint32_t>& cls_of)
        : cls_(cls), cls_of_(cls_of) {}

    /// Class ci's next send on (off, tag); every member's message arrives at
    /// `arrival`.
    void post(std::uint32_t ci, int off, int tag, double arrival) {
        const std::uint32_t id = append(ci, off, tag);
        records_[id].arrival = arrival;
    }
    /// Same, with one arrival per member: the caller fills the returned
    /// array (parallel to cls[ci].members) before the next store call.
    double* post_each(std::uint32_t ci, int off, int tag) {
        if (pos_.empty()) {
            pos_.assign(cls_of_.size(), 0);
            for (const SimClass& c : cls_) index_members(c);
        }
        const std::uint32_t id = append(ci, off, tag);
        std::vector<double>& a = arrays_[alloc_array(id)];
        a.resize(cls_[ci].members.size());
        return a.data();
    }

    /// Consume the next message on (src -> dst, tag) into `arrival`; false
    /// when it has not been sent yet.
    bool take(int src, int dst, int tag, double& arrival) {
        if (src < 0 || src >= static_cast<int>(cls_of_.size())) return false;
        Chan& rc = chan(cls_of_[static_cast<std::size_t>(dst)], src - dst, tag);
        const std::uint32_t si = cls_of_[static_cast<std::size_t>(src)];
        Chan* sc = nullptr;
        if (rc.peer != kNone) {
            sc = &chans_[si].chans[rc.peer];
        } else if ((sc = find(si, dst - src, tag)) != nullptr) {
            rc.peer = static_cast<std::uint32_t>(sc - chans_[si].chans.data());
        }
        if (sc == nullptr || sc->sent <= rc.got) return false;
        const std::uint32_t id = record_at(*sc, rc.got);
        arrival = arrival_of(id, src);
        release(*sc, id, 1);
        ++rc.got;
        return true;
    }

    /// The wildcard candidate for dst on `tag`: the smallest (arrival,
    /// source) over every source's next message. Scans every send log, so
    /// it runs only at quiescence, for a granted or probed wildcard.
    /// Returns the source, or -1 when no message is pending.
    int best_any(int dst, int tag) {
        const std::uint32_t ri = cls_of_[static_cast<std::size_t>(dst)];
        const int n = static_cast<int>(cls_of_.size());
        int best = -1;
        double best_arrival = 0;
        for (std::uint32_t si = 0; si < chans_.size(); ++si) {
            const ClassMsgs& cm = chans_[si];
            for (std::size_t x = 0; x < cm.chans.size(); ++x) {
                const Chan& sc = cm.chans[x];
                const int src = dst - off_of(cm.keys[x]);
                if (tag_of(cm.keys[x]) != tag || sc.live == 0 || src < 0 || src >= n ||
                    cls_of_[static_cast<std::size_t>(src)] != si) {
                    continue;
                }
                const Chan* rc = find(ri, src - dst, tag);
                const std::uint32_t k = rc != nullptr ? rc->got : 0;
                if (sc.sent <= k) continue;
                const double a = arrival_of(record_at(sc, k), src);
                if (best < 0 || a < best_arrival || (a == best_arrival && src < best)) {
                    best = src;
                    best_arrival = a;
                }
            }
        }
        return best;
    }

    const std::vector<Peer>& peers(std::uint32_t ci, int off);

    /// Resolve merged class ci's next receive on (off, tag) per source
    /// class. The probed state is read by uniform_done / probed_arrival and
    /// consumed by consume(), all before the next store call.
    Match probe(std::uint32_t ci, int off, int tag) {
        const Chan* rc = find(ci, off, tag);
        const std::uint32_t k = rc != nullptr ? rc->got : 0;
        probed_.clear();
        probe_cls_ = ci;
        probe_off_ = off;
        ++stamp_;
        Match m;
        for (const Peer& p : peers(ci, off)) {
            const Chan* sc = find(p.cls, -off, tag);
            const std::uint32_t id =
                sc != nullptr && sc->sent > k ? record_at(*sc, k) : kNone;
            mark_[p.cls] = {stamp_, static_cast<std::uint32_t>(probed_.size())};
            probed_.push_back({p.cls, p.count, id});
            m.any = m.any || id != kNone;
            m.all = m.all && id != kNone;
        }
        return m;
    }
    /// After a fully matched probe by a class with one clock: when every
    /// member's completion max(time, arrival) is one value, store it in
    /// `done` and return true. False when completions differ. Such a class
    /// runs at os_noise = 0, where no sender posts per-member arrivals.
    bool uniform_done(double time, double& done) const {
        bool first = true;
        for (const Probed& p : probed_) {
            const Record& r = records_[p.rec];
            const double d = std::max(time, r.arrival);
            if (!first && std::bit_cast<std::uint64_t>(d) !=
                              std::bit_cast<std::uint64_t>(done)) {
                return false;
            }
            done = d;
            first = false;
        }
        return true;
    }
    /// After a probe: the arrival of member i's message, if it was sent.
    [[nodiscard]] std::optional<double> probed_arrival(std::size_t i) const {
        const int src = cls_[probe_cls_].members[i] + probe_off_;
        const std::uint32_t si = cls_of_[static_cast<std::size_t>(src)];
        const std::uint32_t id = probed_[mark_[si].second].rec;
        if (id == kNone) return std::nullopt;
        return arrival_of(id, src);
    }
    /// Consume every message of a fully matched probe of (ci, off, tag).
    void consume(std::uint32_t ci, int off, int tag) {
        for (const Probed& p : probed_) {
            release(*find(p.cls, -off, tag), p.rec, p.count);
        }
        ++chan(ci, off, tag).got;
    }

    void split(std::uint32_t ci, const std::vector<int>& members,
               const std::vector<std::uint32_t>& to, std::size_t first);

    [[nodiscard]] int peak() const { return peak_; }

private:
    struct Record {
        double arrival = 0;          ///< every member's arrival, unless `each`
        std::uint32_t pending = 0;   ///< (src, dst) pairs yet to consume it
        std::uint32_t next = kNone;  ///< next record of the same channel
        std::uint32_t each = kNone;  ///< arrays_ slot of per-member arrivals
    };
    /// One (peer offset, tag) of a class: its members' send and receive
    /// counts and, from `head`, the `live` records of ordinals
    /// [sent - live, sent).
    struct Chan {
        std::uint32_t sent = 0;
        std::uint32_t got = 0;
        std::uint32_t live = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
        /// For a singleton's receive channel: where its source's send
        /// channel sits in the source class's list. Lists only grow and a
        /// split copies them in order, so the index holds for good.
        std::uint32_t peer = kNone;
    };
    /// peers(ci, off), valid while no class has split since `epoch`.
    struct PeerCache {
        int off;
        std::uint64_t epoch;
        std::vector<Peer> peers;
    };
    /// A class's channels, keyed by key_of(offset, tag) in `keys` (parallel
    /// to `chans`, so a lookup scans one cache line of keys).
    struct ClassMsgs {
        std::vector<std::uint64_t> keys;
        std::vector<Chan> chans;
        std::vector<PeerCache> peers;
    };
    static std::uint64_t key_of(int off, int tag) {
        return std::uint64_t{static_cast<std::uint32_t>(off)} << 32 |
               static_cast<std::uint32_t>(tag);
    }
    static int off_of(std::uint64_t key) {
        return static_cast<int>(static_cast<std::uint32_t>(key >> 32));
    }
    static int tag_of(std::uint64_t key) {
        return static_cast<int>(static_cast<std::uint32_t>(key));
    }
    struct Probed {
        std::uint32_t cls;
        std::uint32_t count;
        std::uint32_t rec;  ///< kNone = not sent yet
    };

    void grow() {
        if (chans_.size() < cls_.size()) chans_.resize(cls_.size());
        if (mark_.size() < cls_.size()) mark_.resize(cls_.size(), {0, 0});
    }
    Chan* find(std::uint32_t ci, int off, int tag) {
        if (ci >= chans_.size()) return nullptr;
        ClassMsgs& cm = chans_[ci];
        const std::uint64_t key = key_of(off, tag);
        for (std::size_t x = 0; x < cm.keys.size(); ++x) {
            if (cm.keys[x] == key) return &cm.chans[x];
        }
        return nullptr;
    }
    Chan& chan(std::uint32_t ci, int off, int tag) {
        if (Chan* c = find(ci, off, tag)) return *c;
        grow();
        ClassMsgs& cm = chans_[ci];
        cm.keys.push_back(key_of(off, tag));
        return cm.chans.emplace_back();
    }
    std::uint32_t alloc() {
        std::uint32_t id;
        if (!free_.empty()) {
            id = free_.back();
            free_.pop_back();
        } else {
            id = static_cast<std::uint32_t>(records_.size());
            records_.emplace_back();
        }
        peak_ = std::max(peak_, ++live_);
        return id;
    }
    void free_record(std::uint32_t id) {
        if (records_[id].each != kNone) {
            free_arrays_.push_back(records_[id].each);
            records_[id].each = kNone;
        }
        free_.push_back(id);
        --live_;
    }
    /// Give record `id` a per-member arrival array (capacity is reused).
    std::uint32_t alloc_array(std::uint32_t id) {
        std::uint32_t a;
        if (!free_arrays_.empty()) {
            a = free_arrays_.back();
            free_arrays_.pop_back();
        } else {
            a = static_cast<std::uint32_t>(arrays_.size());
            arrays_.emplace_back();
        }
        records_[id].each = a;
        return a;
    }
    /// Link record `id` at the tail of channel c.
    void link(Chan& c, std::uint32_t id) {
        records_[id].next = kNone;
        if (c.tail != kNone) {
            records_[c.tail].next = id;
        } else {
            c.head = id;
        }
        c.tail = id;
        ++c.live;
    }
    std::uint32_t append(std::uint32_t ci, int off, int tag) {
        Chan& c = chan(ci, off, tag);
        const std::uint32_t id = alloc();
        records_[id].pending = static_cast<std::uint32_t>(cls_[ci].size);
        link(c, id);
        ++c.sent;
        return id;
    }
    /// The record of ordinal k (sent - live <= k < sent) of channel c.
    [[nodiscard]] std::uint32_t record_at(const Chan& c, std::uint32_t k) const {
        std::uint32_t id = c.head;
        for (std::uint32_t i = c.sent - c.live; i < k; ++i) id = records_[id].next;
        return id;
    }
    [[nodiscard]] double arrival_of(std::uint32_t id, int src) const {
        const Record& r = records_[id];
        return r.each == kNone ? r.arrival
                               : arrays_[r.each][pos_[static_cast<std::size_t>(src)]];
    }
    void index_members(const SimClass& c) {
        for (std::size_t i = 0; i < c.members.size(); ++i) {
            pos_[static_cast<std::size_t>(c.members[i])] = static_cast<std::uint32_t>(i);
        }
    }
    /// `count` destination pairs of channel c consumed record `id`. Pairs
    /// consume in ordinal order, so a record that no pair still needs is the
    /// channel's oldest.
    void release(Chan& c, std::uint32_t id, std::uint32_t count) {
        Record& r = records_[id];
        r.pending -= count;
        if (r.pending != 0) return;
        ARMSTICE_CHECK(c.head == id, "message records must be consumed in send order");
        c.head = r.next;
        if (c.head == kNone) c.tail = kNone;
        --c.live;
        free_record(id);
    }

    const std::vector<SimClass>& cls_;
    const std::vector<std::uint32_t>& cls_of_;
    std::vector<Record> records_;
    std::vector<std::uint32_t> free_;
    std::vector<std::vector<double>> arrays_;
    std::vector<std::uint32_t> free_arrays_;
    std::vector<ClassMsgs> chans_;  ///< per class, grown on first use
    int live_ = 0;
    int peak_ = 0;
    std::uint64_t epoch_ = 0;       ///< split count: drops every PeerCache
    /// Per class: (stamp, index) scratch of peers() and probe().
    std::vector<std::pair<std::uint64_t, std::uint32_t>> mark_;
    std::uint64_t stamp_ = 0;
    std::vector<Probed> probed_;
    std::uint32_t probe_cls_ = 0;
    int probe_off_ = 0;
    /// Each rank's index in its class's members, which per-member arrivals
    /// are parallel to. Built at the first per-member record.
    std::vector<std::uint32_t> pos_;
};

const std::vector<MsgStore::Peer>& MsgStore::peers(std::uint32_t ci, int off) {
    grow();
    auto& caches = chans_[ci].peers;
    PeerCache* pc = nullptr;
    for (PeerCache& c : caches) {
        if (c.off == off) pc = &c;
    }
    if (pc == nullptr) {
        caches.push_back(PeerCache{off, epoch_ + 1, {}});
        pc = &caches.back();
    }
    if (pc->epoch == epoch_) return pc->peers;
    pc->epoch = epoch_;
    pc->peers.clear();
    ++stamp_;
    for (const int m : cls_[ci].members) {
        const std::uint32_t pi = cls_of_[static_cast<std::size_t>(m + off)];
        auto& [stamp, idx] = mark_[pi];
        if (stamp != stamp_) {
            stamp = stamp_;
            idx = static_cast<std::uint32_t>(pc->peers.size());
            pc->peers.push_back({pi, 0});
        }
        ++pc->peers[idx].count;
    }
    return pc->peers;
}

/// Class ci split: its old member i now belongs to class to[i] (ci itself
/// or a new class at index >= first), and cls_of is already updated. Every
/// part keeps the channel counts; each pending record splits into one
/// record per part that still has a member whose destination has not
/// consumed it, carrying that part's arrivals. A part's oldest records may
/// need no such record; pairs consume in order, so they form a prefix.
void MsgStore::split(std::uint32_t ci, const std::vector<int>& members,
                     const std::vector<std::uint32_t>& to, std::size_t first) {
    ++epoch_;
    const std::size_t parts = cls_.size() - first + 1;
    if (!pos_.empty()) {
        for (std::size_t p = 0; p < parts; ++p) {
            index_members(cls_[p == 0 ? ci : first + p - 1]);
        }
    }
    if (ci >= chans_.size() || chans_[ci].chans.empty()) return;
    grow();
    const std::vector<std::uint64_t> keys = chans_[ci].keys;
    const std::vector<Chan> parent = chans_[ci].chans;
    for (std::size_t p = 0; p < parts; ++p) {
        ClassMsgs& cm = chans_[p == 0 ? ci : first + p - 1];
        cm.keys = keys;
        cm.chans = parent;
        for (Chan& c : cm.chans) {
            c.live = 0;
            c.head = c.tail = kNone;
        }
    }
    std::vector<std::uint32_t> pending(parts);
    std::vector<std::vector<double>> arrivals(parts);
    for (std::size_t x = 0; x < parent.size(); ++x) {
        const Chan& pc = parent[x];
        const int off = off_of(keys[x]);
        const int tag = tag_of(keys[x]);
        std::uint32_t id = pc.head;
        for (std::uint32_t k = pc.sent - pc.live; id != kNone; ++k) {
            const Record rec = records_[id];
            std::fill(pending.begin(), pending.end(), 0);
            for (auto& a : arrivals) a.clear();
            std::uint32_t total = 0;
            for (std::size_t i = 0; i < members.size(); ++i) {
                const std::size_t p = to[i] == ci ? 0 : to[i] - first + 1;
                const int dst = members[i] + off;
                const Chan* rc = find(cls_of_[static_cast<std::size_t>(dst)], -off, tag);
                if ((rc != nullptr ? rc->got : 0) <= k) {
                    ++pending[p];
                    ++total;
                }
                if (rec.each != kNone) arrivals[p].push_back(arrays_[rec.each][i]);
            }
            ARMSTICE_CHECK(total == rec.pending, "message record lost a destination on split");
            free_record(id);
            for (std::size_t p = 0; p < parts; ++p) {
                if (pending[p] == 0) continue;
                const std::uint32_t nid = alloc();
                records_[nid].pending = pending[p];
                records_[nid].arrival = rec.arrival;
                if (arrivals[p].size() == 1) {
                    records_[nid].arrival = arrivals[p][0];  // a part of one has scalar clocks
                } else if (!arrivals[p].empty()) {
                    arrays_[alloc_array(nid)] = arrivals[p];
                }
                link(chans_[p == 0 ? ci : first + p - 1].chans[x], nid);
            }
            id = rec.next;
        }
    }
}

enum class CollKind { none, allreduce, barrier, alltoall };

struct Collective {
    CollKind kind = CollKind::none;
    double bytes = 0;
    int arrived = 0;         ///< ranks (not classes) that have entered
    double max_time = 0;
    std::vector<std::uint32_t> waiters;  ///< blocked class indices
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

/// Collective pricing is a pure function of (kind, bytes) for a fixed
/// layout; memoized so million-rank iteration loops price each distinct
/// collective once instead of re-walking the topology model per ordinal.
struct CollPrice {
    CollKind kind;
    double bytes;
    double cost;
};

/// Why a class split: every split event is attributed to the op kind that
/// broke the symmetry (bench_engine reports the breakdown). A placement
/// split is a relative send's hop-tier split, made only at os_noise = 0.
enum class SplitWhy { p2p, placement };

/// "No pending match" signature of a probed member: the all-ones NaN bit
/// pattern, which a finite completion time can never produce.
constexpr std::uint64_t kNoMatch = ~std::uint64_t{0};

/// A receive completing at `arrival`: the clock waits for the message and
/// the wait is charged. The one receive-wait update of a singleton, a merged
/// class with one clock and each member of a class with per-member clocks,
/// so all three produce the same bits. Branch-free (DESIGN.md §11.5): under
/// OS noise, whether a member's message is early is a coin flip, and
/// selecting the clock (not the wait) compiles to maxsd/subsd/addsd. An
/// early message adds t - time == +0 to a wait that starts at +0 and only
/// grows, which leaves its bits unchanged, so this equals RefEngine's
/// `if (arrival > time)` update bit for bit.
void await_arrival(double& time, double& wait, double arrival) {
    const double t = std::max(time, arrival);
    wait += t - time;
    time = t;
}

/// The entries of `v` at `idx`, in order.
template <class T>
std::vector<T> pick(const std::vector<T>& v, const std::vector<std::uint32_t>& idx) {
    std::vector<T> out;
    out.reserve(idx.size());
    for (const std::uint32_t i : idx) out.push_back(v[i]);
    return out;
}

/// The state of one Engine::run call (DESIGN.md §8): the simulation classes,
/// the message store, collectives, pricing memos and the run queue, with one
/// member function per engine mechanism. Built by `run`, used once.
class RunState {
public:
    RunState(const Placement& placement, const net::Network& network,
             const arch::CostModel& cost, double vec_quality,
             const std::vector<Program>& programs,
             const std::vector<std::uint32_t>& prog_of, const RunOptions& opts,
             Trace* trace);
    // msgs_ refers to cls_ and cls_of_, so a copy would share them.
    RunState(const RunState&) = delete;
    RunState& operator=(const RunState&) = delete;

    /// Execute every class to completion and assemble the result. Throws
    /// DeadlockError when no class can advance.
    RunResult run();

private:
    // Set-up.
    void group_ranks(const std::vector<Program>& programs,
                     const std::vector<std::uint32_t>& prog_of, bool collapse);
    std::uint32_t context_class(int r);
    // Pricing.
    double price_compute(const ComputeOp& c, const arch::ComputePhase& phase,
                         std::uint32_t cc);
    [[nodiscard]] int node_of(int r) const;
    [[nodiscard]] int hop_tier(int a, int b) const;
    double collective_cost(CollKind kind, double bytes);
    // Run queue.
    void wake(std::uint32_t ci);
    void wake_receiver(std::uint32_t ci);
    std::uint32_t pop();
    // Op kinds.
    void execute(std::uint32_t ci);
    void compute(std::uint32_t ci, const ComputeOp& c);
    void see_phase(PhaseId id);
    void send(std::uint32_t ci, const SendOp& snd);
    bool recv(std::uint32_t ci, const RecvOp& rcv);
    bool rel_recv(std::uint32_t ci, const RecvOp& rcv);
    static void finish_recv(SimClass& s);
    bool collective(std::uint32_t ci, const Op& op);
    void sync(SimClass& s, double completion);
    // Splits.
    bool send_tier(std::uint32_t ci, int off, int& tier);
    void probe_labels(std::uint32_t ci);
    void split_each(std::uint32_t ci);
    void split_by_labels(std::uint32_t ci);
    void split(std::uint32_t ci, SplitWhy why, std::size_t groups);
    // Per-member clocks (DESIGN.md §11.5), kept out of line.
    void hand_members(SimClass& s, const MemberClocks& mc,
                      const std::vector<std::uint32_t>& idx);
    [[gnu::noinline]] void member_compute(std::uint32_t ci, const ComputeOp& c);
    [[gnu::noinline]] void member_send(std::uint32_t ci, int off, const SendOp& snd,
                                       int tier, double inject);
    [[gnu::noinline]] void member_recv(std::uint32_t ci, const RecvOp& rcv);
    [[gnu::noinline]] void member_sync(SimClass& s, double completion);
    // Quiescence.
    bool resolve_partial();
    bool grant_wildcard();
    [[noreturn]] void stall() const;
    // Result assembly.
    RunResult assemble();

    const Placement& placement_;
    const arch::CostModel& cost_;
    const double vec_quality_;
    const int n_;
    Trace* const trace_;
    const double os_noise_;
    const net::Network& net_;
    const net::CollectiveModel coll_model_;
    /// Collective layout from the *actual* placement occupancy (shared with
    /// sim::RefEngine so both price collectives identically).
    const net::CommLayout layout_;
    /// Schedule perturbation (sim::check): any nonzero seed permutes every
    /// order-free choice the engine makes — the runnable pop order, the
    /// quiescence resolver's scan order, and the order a completed
    /// collective's waiters are processed in — and results must stay
    /// bit-identical (DESIGN.md §10.2).
    const bool perturb_;
    util::Rng perturb_rng_;

    /// Distinct ExecContexts; a class's `ctx` indexes this.
    std::vector<arch::ExecContext> class_ctx_;
    std::vector<SimClass> cls_;
    std::vector<std::uint32_t> cls_of_;  ///< rank -> class
    std::vector<MemberClocks> clocks_;
    MsgStore msgs_;
    std::vector<Collective> collectives_;

    std::unordered_map<std::uint64_t, CostEntry> cost_memo_;
    /// One-slot cache over cost_memo_: consecutive compute ops (and SPMD
    /// peers scheduled back to back) repeat the same cost_key, and
    /// unordered_map nodes are pointer-stable, so the hit path skips the
    /// hash probe. cost_signature is never 0, so 0 is a safe empty sentinel.
    std::uint64_t memo_last_key_ = 0;
    CostEntry* memo_last_ = nullptr;
    std::vector<CollPrice> coll_prices_;
    /// Labels that executed a compute op (a zero-cost phase still gets its
    /// phase_compute entry).
    std::vector<char> phase_seen_;

    /// FIFO run queue of class indices, head-indexed (see pop()).
    std::vector<std::uint32_t> runnable_;
    std::size_t run_head_ = 0;
    int finished_ranks_ = 0;

    // Split scratch: per-member signatures and groups of the next split.
    std::vector<std::uint64_t> labels_;
    std::vector<std::uint32_t> group_;
    std::unordered_map<std::uint64_t, std::uint32_t> group_of_label_;
    // Tier scratch: a send's distinct hop tiers, and their prices.
    std::vector<int> tier_list_;
    std::vector<double> tier_prices_;

    RunResult result_;
};

} // namespace

double noise_sample(int rank, std::size_t op_index) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                          (static_cast<std::uint64_t>(rank) << 32) ^ op_index;
    const double u =
        static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
    return std::min(8.0, -std::log1p(-u));
}

namespace {

bool same_bits(double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(const RankStats& a, const RankStats& b) {
    return same_bits(a.finish, b.finish) && same_bits(a.compute, b.compute) &&
           same_bits(a.recv_wait, b.recv_wait) &&
           same_bits(a.collective_wait, b.collective_wait) &&
           same_bits(a.injected_bytes, b.injected_bytes) && a.msgs_sent == b.msgs_sent &&
           a.msgs_received == b.msgs_received;
}

/// Mean of one field over every rank, added in rank order: add_repeat per
/// run is bit-identical to adding each of its ranks in turn.
double mean_of(const RankTable& t, double RankStats::*field) {
    double s = 0;
    for (std::size_t k = 0; k < t.runs(); ++k) {
        const RankTable::Run run = t.run(k);
        s = util::fp::add_repeat(s, run.stats.*field, run.length);
    }
    return t.empty() ? 0.0 : s / static_cast<double>(t.size());
}

// --- Set-up ------------------------------------------------------------------

RunState::RunState(const Placement& placement, const net::Network& network,
                   const arch::CostModel& cost, double vec_quality,
                   const std::vector<Program>& programs,
                   const std::vector<std::uint32_t>& prog_of, const RunOptions& opts,
                   Trace* trace)
    : placement_(placement),
      cost_(cost),
      vec_quality_(vec_quality),
      n_(placement.ranks()),
      trace_(trace),
      os_noise_(cost.knobs().os_noise),
      net_(network),
      coll_model_(network),
      layout_(placement.comm_layout()),
      perturb_(opts.perturb_seed != 0),
      perturb_rng_(opts.perturb_seed),
      cls_of_(static_cast<std::size_t>(n_), 0),
      msgs_(cls_, cls_of_) {
    // Tracing needs per-rank spans, so a Trace forces singletons.
    group_ranks(programs, prog_of, opts.collapse && trace == nullptr);
    // Under OS noise every merged class runs on per-member clocks from the
    // start (DESIGN.md §11.5), every member at zero, as its singleton
    // starts. At os_noise = 0 no class ever gets a slot.
    if (os_noise_ > 0) {
        for (SimClass& s : cls_) {
            if (s.size == 1) continue;
            const std::size_t k = s.members.size();
            MemberClocks& mc = clocks_.emplace_back();
            mc.time.assign(k, 0.0);
            mc.compute.assign(k, 0.0);
            mc.recv_wait.assign(k, 0.0);
            mc.coll_wait.assign(k, 0.0);
            s.clk = static_cast<int>(clocks_.size() - 1);
        }
    }
    collectives_.reserve(64);
    runnable_.reserve(cls_.size() * 2);
    for (std::uint32_t i = 0; i < cls_.size(); ++i) {
        cls_[i].queued = true;
        runnable_.push_back(i);
    }
}

/// Simulation classes (rank-equivalence collapse, DESIGN.md §11), in one
/// pass over the ranks: each rank gets its ExecContext class and joins the
/// class of its (program, context class) key. Program *identity* (not
/// content) is the key: the per-rank-vector run() passes n distinct
/// programs and degenerates to n singletons. Without collapse every rank
/// is its own class. Classes are numbered by first appearance in rank
/// order; neighbours mostly share a key, so the map is consulted only
/// where it changes.
void RunState::group_ranks(const std::vector<Program>& programs,
                           const std::vector<std::uint32_t>& prog_of, bool collapse) {
    if (!collapse) cls_.reserve(static_cast<std::size_t>(n_));
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> groups;
    std::pair<std::uint32_t, std::uint32_t> prev_key{UINT32_MAX, UINT32_MAX};
    // One-slot memo over the classification: exec_context is a pure function
    // of (node, first_domain, domains_spanned) for fixed vec_quality and
    // threads, and block placements lay consecutive ranks on one domain, so
    // runs of ranks resolve without rebuilding and comparing the context.
    RankLoc memo{-1, 0, 0, 0};
    std::uint32_t cc = 0;
    std::uint32_t ci = 0;
    for (int r = 0; r < n_; ++r) {
        const RankLoc l = placement_.loc(r);
        if (l.node != memo.node || l.first_domain != memo.first_domain ||
            l.domains_spanned != memo.domains_spanned) {
            cc = context_class(r);
            memo = l;
        }
        const std::pair<std::uint32_t, std::uint32_t> key{
            prog_of[static_cast<std::size_t>(r)], cc};
        if (!collapse || key != prev_key) {
            ci = static_cast<std::uint32_t>(cls_.size());
            if (collapse) ci = groups.emplace(key, ci).first->second;
            if (ci == cls_.size()) {
                SimClass& s = cls_.emplace_back();
                s.prog = &programs[key.first];
                s.ctx = cc;
                s.rep = r;
                s.node = l.node;
                s.size = 0;
            }
            prev_key = key;
        }
        SimClass& c = cls_[ci];
        c.members.push_back(r);
        ++c.size;
        cls_of_[static_cast<std::size_t>(r)] = ci;
    }
}

/// ExecContext equivalence class of rank r: pricing depends only on the
/// context fields, and SPMD placements produce a handful of distinct
/// contexts (often one), so phases are priced once per (content, class)
/// instead of once per rank. Exact field equality keeps results
/// bit-identical.
std::uint32_t RunState::context_class(int r) {
    const arch::ExecContext ctx = placement_.exec_context(r, vec_quality_);
    for (std::size_t i = 0; i < class_ctx_.size(); ++i) {
        const auto& c = class_ctx_[i];
        if (c.cpu == ctx.cpu && c.vec_quality == ctx.vec_quality &&
            c.threads == ctx.threads && c.streams_on_domain == ctx.streams_on_domain &&
            c.domains_spanned == ctx.domains_spanned) {
            return static_cast<std::uint32_t>(i);
        }
    }
    class_ctx_.push_back(ctx);
    return static_cast<std::uint32_t>(class_ctx_.size() - 1);
}

// --- Pricing -----------------------------------------------------------------

/// Memoized pricing of one compute op under ExecContext class `cc`, before
/// the per-rank noise stretch.
double RunState::price_compute(const ComputeOp& c, const arch::ComputePhase& phase,
                               std::uint32_t cc) {
    CostEntry* entry_p;
    if (c.cost_key == memo_last_key_) {
        entry_p = memo_last_;  // consecutive ops repeat phases
    } else {
        entry_p = &cost_memo_[c.cost_key];  // nodes are stable
        memo_last_key_ = c.cost_key;
        memo_last_ = entry_p;
    }
    auto& entry = *entry_p;
    if (entry.rep_addr == nullptr) {
        entry.rep = phase;
        entry.rep_addr = &phase;
        entry.dt.assign(class_ctx_.size(), 0.0);
        entry.have.assign(class_ctx_.size(), 0);
    }
    if (entry.rep_addr == &phase || arch::same_cost_inputs(entry.rep, phase)) {
        if (!entry.have[cc]) {
            // Bit-identical across sharers: explain() reads only the
            // (bitwise equal) same_cost_inputs fields.
            entry.dt[cc] = cost_.phase_time(phase, class_ctx_[cc]);
            entry.have[cc] = 1;
        }
        return entry.dt[cc];
    }
    // Hash collision between different phase contents: price this op
    // directly rather than share a wrong time.
    return cost_.phase_time(phase, class_ctx_[cc]);
}

/// Rank r's node. Every singleton is its class's representative, so a
/// singleton's p2p reads its class's cached node; any other member asks
/// the placement, whose loc() divides. Calling loc() for both ends of
/// every send slowed bench_engine's collapse-off halo rows by up to ~20%.
int RunState::node_of(int r) const {
    const SimClass& c = cls_[cls_of_[static_cast<std::size_t>(r)]];
    return c.rep == r ? c.node : placement_.loc(r).node;
}

/// Hop tier (net::Network::tier) of a message from rank a to rank b. With
/// the byte count it fixes the transfer price, so "same tier for every
/// member" is exactly "same send timing".
int RunState::hop_tier(int a, int b) const { return net_.tier(node_of(a), node_of(b)); }

double RunState::collective_cost(CollKind kind, double bytes) {
    for (const auto& cp : coll_prices_) {
        if (cp.kind == kind && cp.bytes == bytes) return cp.cost;
    }
    double cost = 0.0;
    switch (kind) {
        case CollKind::allreduce: cost = coll_model_.allreduce(layout_, bytes); break;
        case CollKind::barrier: cost = coll_model_.barrier(layout_); break;
        case CollKind::alltoall: cost = coll_model_.alltoall(layout_, bytes); break;
        case CollKind::none: break;
    }
    coll_prices_.push_back(CollPrice{kind, bytes, cost});
    return cost;
}

// --- Run queue ---------------------------------------------------------------

void RunState::wake(std::uint32_t ci) {
    auto& c = cls_[ci];
    if (!c.queued && !c.finished) {
        c.queued = true;
        runnable_.push_back(ci);
    }
}

/// A send wakes a destination class only while it is blocked on an
/// explicit-source receive: ANY_SOURCE waiters resolve at quiescence only
/// (schedule invariance). A relative offset of -1 aliases the kAnySource
/// sentinel, hence want_rel.
void RunState::wake_receiver(std::uint32_t ci) {
    const SimClass& c = cls_[ci];
    if (c.blocked == BlockKind::recv && (c.want_rel || c.want_src != kAnySource)) wake(ci);
}

/// Next runnable class. The queue is a head-indexed vector (contiguous;
/// compacted when drained, so it stays O(live entries) despite monotonic
/// pushes, and O(classes) while classes stay collapsed). Pop order is an
/// order-free choice (the perturbation adversary in sim::check pins
/// exactly that), and FIFO is deliberate: a woken receiver runs only after
/// every already-runnable sender has drained its sends, so each resume
/// consumes a *batch* of messages. A LIFO stack (tried) resumes the
/// receiver after the first message and re-suspends it on the next recv —
/// 5x the suspend/dispatch cycles on halo-exchange programs.
std::uint32_t RunState::pop() {
    if (perturb_) {
        const std::size_t live = runnable_.size() - run_head_;
        if (live > 1) {
            std::swap(runnable_[run_head_],
                      runnable_[run_head_ + perturb_rng_.next_below(live)]);
        }
    }
    const std::uint32_t ci = runnable_[run_head_++];
    if (run_head_ == runnable_.size()) {
        runnable_.clear();
        run_head_ = 0;
    } else if (run_head_ >= 4096 && run_head_ * 2 >= runnable_.size()) {
        // Drop the consumed prefix so programs that never fully drain the
        // queue (collective-free pipelines) stay O(live entries).
        runnable_.erase(runnable_.begin(),
                        runnable_.begin() + static_cast<std::ptrdiff_t>(run_head_));
        run_head_ = 0;
    }
    cls_[ci].queued = false;
    return ci;
}

// --- Op kinds ----------------------------------------------------------------

/// Run class ci from its pc until it blocks or finishes. Ops dispatch on
/// the raw alternative index with a compare chain, most frequent first:
/// conditional branches on a patterned op stream predict far better than
/// one indirect jump. A merged class splits to singletons before an
/// absolute or wildcard p2p op, whose partners and timing are per rank. It
/// runs a relative p2p op merged, and where members differ it group-splits
/// with pc unmoved, and the loop re-dispatches the op.
void RunState::execute(std::uint32_t ci) {
    // Local copies: stores through cls_/msgs_ cannot alias the op stream,
    // but the compiler cannot prove that and would otherwise reload
    // ops.data()/size() after every store. The Program pointer is stable
    // across splits (splits copy state, not the program).
    const Program& prog = *cls_[ci].prog;
    const Op* const ops = prog.ops.data();
    const std::size_t nops = prog.ops.size();
    bool advancing = true;
    while (advancing && cls_[ci].pc < nops) {
        const Op& op = ops[cls_[ci].pc];
        const std::size_t kind = op.index();
        if (kind == 1) {  // SendOp
            const SendOp& snd = *std::get_if<SendOp>(&op);
            if (!snd.rel && cls_[ci].size > 1) split_each(ci);
            send(ci, snd);
        } else if (kind == 2) {  // RecvOp
            const RecvOp& rcv = *std::get_if<RecvOp>(&op);
            if (!rcv.rel && cls_[ci].size > 1) split_each(ci);
            advancing = !(cls_[ci].size > 1 ? rel_recv(ci, rcv) : recv(ci, rcv));
        } else if (kind == 0) {  // ComputeOp
            compute(ci, *std::get_if<ComputeOp>(&op));
        } else if (kind <= 5) {  // Allreduce(3) / Barrier(4) / Alltoall(5)
            advancing = !collective(ci, op);
        } else {  // MarkOp (6)
            SimClass& s = cls_[ci];
            s.mark_id = std::get_if<MarkOp>(&op)->label_id;
            ++s.pc;
        }
    }
    SimClass& s = cls_[ci];
    if (s.pc >= nops && !s.finished) {
        s.finished = true;
        s.stats.finish = s.time;
        finished_ranks_ += s.size;
    }
}

/// One ComputeOp: priced once per (phase, context class), then stretched by
/// the rank-keyed noise draw. A class with per-member clocks (merged, under
/// noise) stretches each member by its own draw (member_compute).
void RunState::compute(std::uint32_t ci, const ComputeOp& c) {
    SimClass& s = cls_[ci];
    if (s.clk >= 0) [[unlikely]] {
        member_compute(ci, c);
        return;
    }
    const arch::ComputePhase& phase = s.prog->phase_of(c);
    double dt = price_compute(c, phase, s.ctx);
    if (os_noise_ > 0) dt *= 1.0 + os_noise_ * noise_sample(s.rep, s.pc);
    const PhaseId label_id = s.mark_id != kNoPhase ? s.mark_id : c.label_id;
    if (trace_ != nullptr) {
        trace_->add({s.rep, SpanKind::compute, phase_table().str(label_id), s.time,
                     s.time + dt});
    }
    s.time += dt;
    s.stats.compute += dt;
    s.flops += phase.flops;
    // Per-phase seconds accumulate per class in program order, which no
    // schedule can permute, and reduce across ranks in rank order at the
    // end (assemble), so the sums are schedule- and collapse-invariant.
    if (label_id >= s.phase.size()) s.phase.resize(label_id + 1, 0.0);
    s.phase[label_id] += dt;
    see_phase(label_id);
    ++s.pc;
}

void RunState::see_phase(PhaseId id) {
    if (id >= phase_seen_.size()) phase_seen_.resize(id + 1, 0);
    phase_seen_[id] = 1;
}

/// One SendOp. A singleton resolves its destination and prices its node
/// pair. A merged class only ever reaches here with a relative send (every
/// member m sends to m + dst), and shares one price while every member's
/// hop tier agrees (send_tier), so the send is ONE record in the message
/// store. Where tiers differ, a class with per-member clocks (any merged
/// class under OS noise) prices each member at its own tier (member_send);
/// a class with one clock (os_noise = 0) group-splits by tier, pc unmoved.
/// Destination classes wake in first-appearance order over ascending
/// members, the order a per-member delivery would wake them.
void RunState::send(std::uint32_t ci, const SendOp& snd) {
    ARMSTICE_CHECK(snd.bytes >= 0, "negative message size");
    SimClass& s = cls_[ci];
    int off = snd.dst;
    int tier = 0;
    if (s.size == 1) {
        const int dst = snd.resolve_dst(s.rep);
        ARMSTICE_CHECK(dst >= 0 && dst < n_, "send dst out of range");
        off = dst - s.rep;
        tier = hop_tier(s.rep, dst);
    } else {
        ARMSTICE_CHECK(s.members.front() + off >= 0 && s.members.back() + off < n_,
                       "send dst out of range");
        if (!send_tier(ci, off, tier)) return;  // split; `s` may dangle
    }
    const double inject = net_.injection_time(snd.bytes);
    if (s.clk >= 0) [[unlikely]] {
        member_send(ci, off, snd, tier, inject);
    } else {
        if (trace_ != nullptr) {
            trace_->add({s.rep, SpanKind::send, "", s.time, s.time + inject});
        }
        msgs_.post(ci, off, snd.tag, s.time + net_.tier_time(tier, snd.bytes));
        s.time += inject;
    }
    s.stats.injected_bytes += snd.bytes;
    ++s.stats.msgs_sent;
    ++s.pc;
    if (s.size == 1) {
        wake_receiver(cls_of_[static_cast<std::size_t>(s.rep + off)]);
    } else {
        for (const MsgStore::Peer& p : msgs_.peers(ci, off)) wake_receiver(p.cls);
    }
}

/// One RecvOp of a singleton; true when it blocked. A relative source
/// resolves to its absolute rank up front, so matching, quiescence and
/// forensics see the exact state an absolute receive would produce.
/// ANY_SOURCE matches only with a quiescence grant (grant_wildcard);
/// explicit-source matching is confluent and stays eager.
bool RunState::recv(std::uint32_t ci, const RecvOp& rcv) {
    SimClass& s = cls_[ci];
    const int r = s.rep;
    s.want_src = rcv.resolve_src(r);
    s.want_tag = rcv.tag;
    s.want_rel = false;
    if (rcv.rel) ARMSTICE_CHECK(s.want_src >= 0 && s.want_src < n_, "recv src out of range");
    bool matched = false;
    double arrival = 0;
    if (!rcv.is_any() || s.any_grant) {
        s.any_grant = false;
        const int src = rcv.is_any() ? msgs_.best_any(r, s.want_tag) : s.want_src;
        matched = msgs_.take(src, r, s.want_tag, arrival);
    }
    if (!matched) {
        s.blocked = BlockKind::recv;
        return true;
    }
    if (trace_ != nullptr && arrival > s.time) {
        trace_->add({r, SpanKind::recv_wait, "", s.time, arrival});
    }
    await_arrival(s.time, s.stats.recv_wait, arrival);
    finish_recv(s);
    return false;
}

/// One relative RecvOp of merged class ci; true when it blocked. Member m
/// takes the next message of the tag from m + src, exactly as a singleton
/// would; the store resolves the members by source class. A class with
/// per-member clocks (any merged class under OS noise) advances as soon as
/// every member has its message, each completing on its own clock. A class
/// with one clock (os_noise = 0) advances merged only when every member
/// has its message and all completion times agree bit for bit. A *partial*
/// match blocks rather than splits: an explicit-source match is fixed once
/// sent, so waiting for the stragglers' senders is schedule-equivalent, and
/// the transient rounds where some members' senders have not run yet must
/// not shatter the class — genuinely asymmetric cases are group-split at
/// quiescence (resolve_partial). All-matched with disagreeing completions
/// splits a class with one clock at once, pc unmoved: more sends cannot
/// change a fixed match.
bool RunState::rel_recv(std::uint32_t ci, const RecvOp& rcv) {
    SimClass& s = cls_[ci];
    ARMSTICE_CHECK(s.members.front() + rcv.src >= 0 && s.members.back() + rcv.src < n_,
                   "recv src out of range");
    s.want_src = rcv.src;
    s.want_tag = rcv.tag;
    s.want_rel = true;
    if (!msgs_.probe(ci, rcv.src, rcv.tag).all) {
        s.blocked = BlockKind::recv;
        return true;
    }
    if (s.clk >= 0) [[unlikely]] {
        member_recv(ci, rcv);
        return false;
    }
    double done = 0;
    if (!msgs_.uniform_done(s.time, done)) {
        probe_labels(ci);
        bool uniform = true;
        for (const std::uint64_t l : labels_) uniform = uniform && l == labels_[0];
        if (!uniform) {
            split_by_labels(ci);
            return false;
        }
        done = std::bit_cast<double>(labels_[0]);
    }
    msgs_.consume(ci, rcv.src, rcv.tag);
    // Uniform completion means either every arrival <= class time (no wait
    // anywhere) or every arrival equals `done` (> time), so the per-member
    // wait is one shared value, bit-equal to the singleton's.
    await_arrival(s.time, s.stats.recv_wait, done);
    finish_recv(s);
    return false;
}

void RunState::finish_recv(SimClass& s) {
    ++s.stats.msgs_received;
    s.blocked = BlockKind::none;
    ++s.pc;
}

/// One collective op; true when class ci blocked on absent peers. A merged
/// class enters on behalf of all its members: `arrived` advances by the
/// member count and max_time sees every member's time. The last arrival
/// completes the collective for every waiter and itself (sync).
bool RunState::collective(std::uint32_t ci, const Op& op) {
    CollKind kind = CollKind::barrier;
    double bytes = 8.0;
    if (const auto* ar = std::get_if<AllreduceOp>(&op)) {
        kind = CollKind::allreduce;
        bytes = ar->bytes;
    } else if (const auto* aa = std::get_if<AlltoallOp>(&op)) {
        kind = CollKind::alltoall;
        bytes = aa->bytes_each;
    }
    SimClass& s = cls_[ci];
    const int ord = s.coll_count;
    if (ord >= static_cast<int>(collectives_.size())) {
        collectives_.resize(static_cast<std::size_t>(ord) + 1);
        auto& fresh = collectives_[static_cast<std::size_t>(ord)];
        fresh.kind = kind;
        fresh.bytes = bytes;
    }
    auto& coll = collectives_[static_cast<std::size_t>(ord)];
    ARMSTICE_CHECK(coll.kind == kind && coll.bytes == bytes,
                   "collective mismatch: ranks disagree on op " + std::to_string(ord));
    ++s.coll_count;
    if (s.clk < 0) [[likely]] {
        coll.max_time = std::max(coll.max_time, s.time);
    } else {
        for (const double t : clocks_[static_cast<std::size_t>(s.clk)].time) {
            coll.max_time = std::max(coll.max_time, t);
        }
    }
    coll.arrived += s.size;
    if (coll.arrived < n_) {
        coll.waiters.push_back(ci);
        s.blocked = BlockKind::collective;
        return true;
    }
    const double completion = coll.max_time + collective_cost(kind, bytes);
    // Waiters are blocked, hence neither queued nor finished, so they are
    // enqueued without wake()'s checks. Each waiter's update reads only its
    // own state and the shared completion time, so the processing order is
    // free — under a perturb seed it is shuffled to pin that.
    if (perturb_ && coll.waiters.size() > 1) {
        for (std::size_t i = coll.waiters.size() - 1; i > 0; --i) {
            std::swap(coll.waiters[i], coll.waiters[perturb_rng_.next_below(i + 1)]);
        }
    }
    for (const std::uint32_t wi : coll.waiters) {
        sync(cls_[wi], completion);
        cls_[wi].queued = true;
        runnable_.push_back(wi);
    }
    sync(s, completion);
    return false;
}

/// Class s leaves a collective that completes at `completion`: every
/// member waits for it.
void RunState::sync(SimClass& s, double completion) {
    if (trace_ != nullptr) {
        trace_->add({s.rep, SpanKind::collective, "", s.time, completion});
    }
    if (s.clk >= 0) [[unlikely]] {
        member_sync(s, completion);
    } else {
        s.stats.collective_wait += completion - s.time;
        s.time = completion;
    }
    s.blocked = BlockKind::none;
    ++s.pc;
}

// --- Splits ------------------------------------------------------------------

/// The hop tier of merged class ci's relative send at offset `off`, proven
/// once per (class, offset). A tier every member agrees on is memoised in
/// rel_tiers: membership only shrinks, and uniform over a set implies
/// uniform over every subset, so split-off classes inherit the entries.
/// Where members disagree (node-edge members of a block placement), a class
/// with per-member clocks (any merged class under OS noise) stays merged:
/// it records each member's tier in MemberClocks::tiers and gets
/// kTierEach. A class with one clock (os_noise = 0) group-splits by tier
/// instead, groups numbered by first appearance, and this returns false.
bool RunState::send_tier(std::uint32_t ci, int off, int& tier) {
    SimClass& s = cls_[ci];
    for (const auto& [d, t] : s.rel_tiers) {
        if (d == off) {
            tier = t;
            return true;
        }
    }
    if (s.clk >= 0) {
        for (const MemberTiers& mt : clocks_[static_cast<std::size_t>(s.clk)].tiers) {
            if (mt.off == off) {
                tier = kTierEach;
                return true;
            }
        }
    }
    tier_list_.clear();
    group_.clear();
    for (const int m : s.members) {
        const int t = hop_tier(m, m + off);
        std::uint32_t g = 0;
        while (g < tier_list_.size() && tier_list_[g] != t) ++g;
        if (g == tier_list_.size()) tier_list_.push_back(t);
        group_.push_back(g);
    }
    if (tier_list_.size() == 1) {
        s.rel_tiers.emplace_back(off, tier_list_[0]);
        tier = tier_list_[0];
        return true;
    }
    if (s.clk >= 0) {
        clocks_[static_cast<std::size_t>(s.clk)].tiers.push_back({off, tier_list_, group_});
        tier = kTierEach;
        return true;
    }
    split(ci, SplitWhy::placement, tier_list_.size());
    return false;
}

/// Per-member signatures of a probed relative receive of merged class ci,
/// into labels_: kNoMatch, or for a matched member the bit pattern of its
/// completion time max(class time, arrival) — 0 with per-member clocks,
/// which complete each member on its own.
void RunState::probe_labels(std::uint32_t ci) {
    const SimClass& s = cls_[ci];
    labels_.clear();
    for (std::size_t i = 0; i < s.members.size(); ++i) {
        const std::optional<double> a = msgs_.probed_arrival(i);
        if (!a) {
            labels_.push_back(kNoMatch);
        } else if (s.clk >= 0) {
            labels_.push_back(0);
        } else {
            labels_.push_back(std::bit_cast<std::uint64_t>(std::max(s.time, *a)));
        }
    }
}

/// Full split before an absolute or wildcard p2p op: every member becomes
/// its own class.
void RunState::split_each(std::uint32_t ci) {
    group_.resize(cls_[ci].members.size());
    std::iota(group_.begin(), group_.end(), 0U);
    split(ci, SplitWhy::p2p, group_.size());
}

/// Split merged class ci by the member signatures of a relative receive in
/// labels_: one group per distinct label, numbered by first appearance, in
/// one pass.
void RunState::split_by_labels(std::uint32_t ci) {
    group_of_label_.clear();
    group_.clear();
    std::uint64_t prev = labels_[0];
    std::uint32_t g = 0;
    group_of_label_.emplace(prev, g);
    for (const std::uint64_t l : labels_) {
        if (l != prev) {
            const auto next = static_cast<std::uint32_t>(group_of_label_.size());
            g = group_of_label_.emplace(l, next).first->second;
            prev = l;
        }
        group_.push_back(g);
    }
    split(ci, SplitWhy::p2p, group_of_label_.size());
}

/// Split class ci into `groups` classes, member i going to group group_[i]
/// (numbered by first appearance, so group 0 holds the representative).
/// Members have shared their control flow up to here by induction, so the
/// inherited state *is* each member's uncollapsed state. Group 0 stays in
/// place — already dequeued, it re-executes the op that triggered the split
/// — and every other group peels off as ONE new class, enqueued in group
/// order. This is how a halo interior stays collapsed: symmetry breaks
/// along placement and arrival boundaries, not per rank. Per-member clocks
/// and tiers (hand_members) and pending message records are partitioned
/// the same way.
void RunState::split(std::uint32_t ci, SplitWhy why, std::size_t groups) {
    ++result_.collapse_splits;
    ++(why == SplitWhy::p2p ? result_.collapse_split_p2p
                            : result_.collapse_split_placement);
    const std::vector<int> members = std::move(cls_[ci].members);
    cls_[ci].members.clear();
    const SimClass base = cls_[ci];  // state snapshot, members cut
    const std::size_t first = cls_.size();
    for (std::size_t g = 1; g < groups; ++g) {
        cls_.push_back(base);
        cls_.back().queued = true;
        runnable_.push_back(static_cast<std::uint32_t>(cls_.size() - 1));
    }
    std::vector<std::uint32_t> to(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        to[i] = group_[i] == 0 ? ci : static_cast<std::uint32_t>(first + group_[i] - 1);
        SimClass& s = cls_[to[i]];
        if (s.members.empty()) s.rep = members[i];
        s.members.push_back(members[i]);
        cls_of_[static_cast<std::size_t>(members[i])] = to[i];
    }
    cls_[ci].size = static_cast<int>(cls_[ci].members.size());
    for (std::size_t c = first; c < cls_.size(); ++c) {
        cls_[c].size = static_cast<int>(cls_[c].members.size());
        cls_[c].node = placement_.loc(cls_[c].rep).node;
    }
    if (base.clk >= 0) {
        const MemberClocks mc = std::move(clocks_[static_cast<std::size_t>(base.clk)]);
        std::vector<std::vector<std::uint32_t>> idx(groups);
        for (std::uint32_t i = 0; i < members.size(); ++i) idx[group_[i]].push_back(i);
        for (std::size_t g = 0; g < groups; ++g) {
            hand_members(cls_[g == 0 ? ci : first + g - 1], mc, idx[g]);
        }
    }
    msgs_.split(ci, members, to, first);
}

// --- Per-member clocks (DESIGN.md §11.5) ---------------------------------------
// The OS-noise draw is keyed on the rank, so a merged class's members drift
// apart at its first noisy compute op. Under noise every merged class
// therefore holds a MemberClocks slot from the moment it forms (RunState's
// constructor): it keeps one pc, program and block state, and its members'
// times (with the stats and phase sums that follow from them) live in the
// slot. Each member runs exactly the FP operations its singleton would, so
// results stay bit-identical. At os_noise == 0 no class ever gets a slot,
// and every op takes the scalar path: the member_* functions are out of
// line and their branches marked unlikely, so the scalar hot paths compile
// as they did without them.

/// Hand the members at `idx` (ascending indices into mc) to class s: a
/// group of one goes back to the scalar fields and drops the per-member
/// tiers (a singleton prices its own pair), a larger group gets its own
/// slot with its members' clocks and tiers.
void RunState::hand_members(SimClass& s, const MemberClocks& mc,
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
    MemberClocks g;
    g.time = pick(mc.time, idx);
    g.compute = pick(mc.compute, idx);
    g.recv_wait = pick(mc.recv_wait, idx);
    g.coll_wait = pick(mc.coll_wait, idx);
    g.phase.resize(mc.phase.size());
    for (std::size_t id = 0; id < mc.phase.size(); ++id) {
        if (!mc.phase[id].empty()) g.phase[id] = pick(mc.phase[id], idx);
    }
    g.tiers.reserve(mc.tiers.size());
    for (const MemberTiers& t : mc.tiers) {
        g.tiers.push_back({t.off, t.tiers, pick(t.which, idx)});
    }
    s.clk = static_cast<int>(clocks_.size());
    clocks_.push_back(std::move(g));
}

/// One ComputeOp under noise for merged class ci: priced once, then each
/// member stretches the price by its own draw — the expression the
/// singleton path evaluates, so every member's bits match.
void RunState::member_compute(std::uint32_t ci, const ComputeOp& c) {
    SimClass& s = cls_[ci];
    MemberClocks& mc = clocks_[static_cast<std::size_t>(s.clk)];
    const arch::ComputePhase& phase = s.prog->phase_of(c);
    const double dt = price_compute(c, phase, s.ctx);
    const PhaseId label_id = s.mark_id != kNoPhase ? s.mark_id : c.label_id;
    see_phase(label_id);
    if (label_id >= mc.phase.size()) mc.phase.resize(label_id + 1);
    std::vector<double>& col = mc.phase[label_id];
    if (col.empty()) col.assign(s.members.size(), 0.0);
    for (std::size_t i = 0; i < s.members.size(); ++i) {
        const double d = dt * (1.0 + os_noise_ * noise_sample(s.members[i], s.pc));
        mc.time[i] += d;
        mc.compute[i] += d;
        col[i] += d;
    }
    s.flops += phase.flops;
    ++s.pc;
}

/// A merged relative send with per-member clocks: each member stamps its own
/// arrival and advances its own clock. Members share `tier`'s price, or,
/// with kTierEach, each pays its own tier's, priced once per distinct tier:
/// Network::tier_time is pure, so every member gets its singleton's bits.
void RunState::member_send(std::uint32_t ci, int off, const SendOp& snd, int tier,
                           double inject) {
    MemberClocks& mc = clocks_[static_cast<std::size_t>(cls_[ci].clk)];
    double* arrival = msgs_.post_each(ci, off, snd.tag);
    if (tier != kTierEach) {
        const double p2p = net_.tier_time(tier, snd.bytes);
        for (std::size_t i = 0; i < mc.time.size(); ++i) {
            arrival[i] = mc.time[i] + p2p;
            mc.time[i] += inject;
        }
        return;
    }
    const MemberTiers* mt = mc.tiers.data();
    while (mt->off != off) ++mt;  // send_tier recorded it
    tier_prices_.clear();
    for (const int t : mt->tiers) tier_prices_.push_back(net_.tier_time(t, snd.bytes));
    for (std::size_t i = 0; i < mc.time.size(); ++i) {
        arrival[i] = mc.time[i] + tier_prices_[mt->which[i]];
        mc.time[i] += inject;
    }
}

/// A fully matched merged relative receive with per-member clocks: each
/// member completes at the max of its own time and its own arrival, so
/// such a class never splits on completion time.
void RunState::member_recv(std::uint32_t ci, const RecvOp& rcv) {
    SimClass& s = cls_[ci];
    MemberClocks& mc = clocks_[static_cast<std::size_t>(s.clk)];
    for (std::size_t i = 0; i < s.members.size(); ++i) {
        await_arrival(mc.time[i], mc.recv_wait[i], *msgs_.probed_arrival(i));
    }
    msgs_.consume(ci, rcv.src, rcv.tag);
    finish_recv(s);
}

/// Collective completion for every member of a class with clocks.
void RunState::member_sync(SimClass& s, double completion) {
    MemberClocks& mc = clocks_[static_cast<std::size_t>(s.clk)];
    for (std::size_t i = 0; i < mc.time.size(); ++i) {
        mc.coll_wait[i] += completion - mc.time[i];
        mc.time[i] = completion;
    }
}

// --- Quiescence ----------------------------------------------------------------

RunResult RunState::run() {
    while (finished_ranks_ < n_) {
        if (run_head_ == runnable_.size()) {
            if (resolve_partial() || grant_wildcard()) continue;
            stall();
        }
        execute(pop());
    }
    return assemble();
}

/// Merged classes parked on a relative receive with a *partial* match
/// resolve first at quiescence: in the uncollapsed schedule those members
/// would have consumed their (already fixed) matches long before, so they
/// must advance before any wildcard grant reads the pending messages.
/// Splitting by match status here — not on every transient mid-round wake
/// — is what keeps a halo's interior classes merged while boundary
/// neighbours trickle in; reaching quiescence with the mismatch still
/// present means it is genuine asymmetry. True when some class progressed.
bool RunState::resolve_partial() {
    bool progressed = false;
    const std::size_t nc = cls_.size();  // splits append
    for (std::size_t i = 0; i < nc; ++i) {
        const SimClass& s = cls_[i];
        if (s.finished || s.size <= 1 || !s.want_rel || s.blocked != BlockKind::recv) {
            continue;
        }
        const auto ci = static_cast<std::uint32_t>(i);
        const MsgStore::Match got = msgs_.probe(ci, s.want_src, s.want_tag);
        if (!got.any) continue;
        if (!got.all) {
            // Per-member clocks complete each member on its own: group by
            // match state only. Matched groups re-execute the receive on
            // wake (a shared-clock group may split further by completion
            // time there); the unmatched group stays blocked. The split
            // enqueued the peeled groups — only the in-place one needs an
            // explicit wake when it matched.
            probe_labels(ci);
            split_by_labels(ci);
            if (labels_[0] != kNoMatch) wake(ci);
        } else {
            wake(ci);  // all matched since blocking: just resume
        }
        progressed = true;
    }
    return progressed;
}

/// Global quiescence: no rank can advance without an ANY_SOURCE match.
/// Wildcard recvs are resolved only here — an eager match would consume
/// whichever message this particular schedule happened to deliver first,
/// but the quiescent state (and so the pending-message pool the (arrival,
/// src) rule picks from) is a pure function of the programs. The
/// *lowest-ranked* blocked rank with a match resolves first — an explicit
/// min over all eligible classes, never "first eligible found", so the
/// grant is independent of class creation order; under a perturb seed the
/// scan starts at a pseudorandom offset to pin exactly that. (Permuting the
/// grant order itself would be unsound: the granted rank can resume and
/// send a message that outranks an already-pending match on another
/// wildcard receiver.) True when a class was granted.
bool RunState::grant_wildcard() {
    std::uint32_t grant = UINT32_MAX;
    int grant_rank = n_;
    const std::size_t nc = cls_.size();
    const std::size_t start = perturb_ && nc > 1 ? perturb_rng_.next_below(nc) : 0;
    for (std::size_t k = 0; k < nc; ++k) {
        const std::size_t i = start + k < nc ? start + k : start + k - nc;
        const auto& s = cls_[i];
        // !want_rel: a relative offset of -1 aliases the kAnySource
        // sentinel but is an explicit-source wait, never a wildcard.
        if (!s.finished && s.blocked == BlockKind::recv && !s.want_rel &&
            s.want_src == kAnySource && s.rep < grant_rank &&
            msgs_.best_any(s.rep, s.want_tag) >= 0) {
            grant = static_cast<std::uint32_t>(i);
            grant_rank = s.rep;
        }
    }
    if (grant == UINT32_MAX) return false;
    cls_[grant].any_grant = true;
    wake(grant);
    return true;
}

/// Stall: snapshot every rank's pending op and throw the wait-for graph
/// (sim/deadlock.hpp). The stalled state is a pure function of the
/// programs — every schedule reaches the same one — so the diagnosis is
/// byte-identical across Engine, RefEngine, all perturbation seeds, and
/// collapse on/off (a collapsed class's state is every member's state).
void RunState::stall() const {
    std::vector<PendingWait> pending(static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r) {
        const auto& s = cls_[cls_of_[static_cast<std::size_t>(r)]];
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
            // The engine counts a collective as entered *before* blocking,
            // so the blocking ordinal is coll_count - 1.
            w.coll_ordinal = s.coll_count - 1;
        }
    }
    std::vector<CollDesc> descs(collectives_.size());
    for (std::size_t i = 0; i < collectives_.size(); ++i) {
        switch (collectives_[i].kind) {
            case CollKind::allreduce: descs[i].kind = "allreduce"; break;
            case CollKind::barrier: descs[i].kind = "barrier"; break;
            case CollKind::alltoall: descs[i].kind = "alltoall"; break;
            case CollKind::none: break;
        }
        descs[i].bytes = collectives_[i].bytes;
    }
    throw DeadlockError(build_wait_graph(pending, descs));
}

// --- Result assembly -------------------------------------------------------------

/// Give each class's results to its members, then reduce across ranks in
/// ascending rank order — the one FP addition order every schedule (and
/// RefEngine, and collapse on/off) can reproduce. Iterated over maximal runs
/// of consecutive ranks in one class (SPMD collapse keeps million-rank
/// worlds in a handful of runs): each is one RankTable run, and the
/// per-rank adds stay — `acc += v` n times is NOT `acc += n * v`, FP
/// addition does not distribute — fast-forwarded by add_repeat. A class
/// with per-member clocks appends each member's own stats instead, and its
/// phase sums are added rank by rank. The table thus takes at most one
/// entry per run of a class without clocks plus one per member of a class
/// with them, and is reserved to that count.
RunResult RunState::assemble() {
    /// A maximal run of ranks [first, end) in class `cls`; `member` is the
    /// index of its first rank in the class's `members` (read only for
    /// classes with per-member clocks).
    struct RankRun {
        int first;
        int end;
        std::uint32_t cls;
        std::uint32_t member;
    };
    std::vector<RankRun> runs;
    std::size_t max_runs = 0;
    for (int r = 0; r < n_;) {
        const int r0 = r;
        const std::uint32_t ci = cls_of_[static_cast<std::size_t>(r)];
        for (++r; r < n_ && cls_of_[static_cast<std::size_t>(r)] == ci; ++r) {
        }
        runs.push_back({r0, r, ci, 0});
        max_runs += cls_[ci].clk < 0 ? 1 : static_cast<std::size_t>(r - r0);
    }
    result_.ranks.reserve(max_runs);
    for (RankRun& run : runs) {
        const SimClass& c = cls_[run.cls];
        if (c.clk < 0) {
            result_.ranks.append(c.stats, run.end - run.first);
            result_.makespan = std::max(result_.makespan, c.stats.finish);
        } else {
            const MemberClocks& mc = clocks_[static_cast<std::size_t>(c.clk)];
            run.member = static_cast<std::uint32_t>(
                std::lower_bound(c.members.begin(), c.members.end(), run.first) -
                c.members.begin());
            for (std::size_t i = run.member; i < run.member + static_cast<std::size_t>(run.end - run.first); ++i) {
                RankStats st = c.stats;
                st.finish = mc.time[i];
                st.compute = mc.compute[i];
                st.recv_wait = mc.recv_wait[i];
                st.collective_wait = mc.coll_wait[i];
                result_.ranks.append(st);
                result_.makespan = std::max(result_.makespan, st.finish);
            }
        }
        // add_repeat IS `acc += v`, end - first times, in fl arithmetic — the
        // n-step sequence fast-forwarded binade by binade (util/fpadd.hpp).
        result_.total_flops =
            util::fp::add_repeat(result_.total_flops, c.flops, run.end - run.first);
    }
    for (PhaseId id = 0; id < phase_seen_.size(); ++id) {
        if (!phase_seen_[id]) continue;
        double acc = 0.0;
        for (const RankRun& run : runs) {
            const SimClass& c = cls_[run.cls];
            if (c.clk >= 0) {
                const auto& cols = clocks_[static_cast<std::size_t>(c.clk)].phase;
                if (id >= cols.size() || cols[id].empty()) continue;
                const double* v = cols[id].data() + run.member;
                for (int j = 0; j < run.end - run.first; ++j) acc += v[j];
                continue;
            }
            if (id >= c.phase.size()) continue;  // the class never timed it
            acc = util::fp::add_repeat(acc, c.phase[id], run.end - run.first);
        }
        result_.phase_compute.emplace(phase_table().str(id), acc);
    }
    // End-of-run class count: what the collapse actually sustained once
    // every split had happened (equals the initial count when nothing split).
    result_.collapse_classes = static_cast<int>(cls_.size());
    result_.peak_msg_records = msgs_.peak();
    return std::move(result_);
}

} // namespace

void RankTable::append(const RankStats& s, int count) {
    ARMSTICE_CHECK(count >= 1 && count <= INT_MAX - n_,
                   "a run holds at least one rank, and a table at most INT_MAX");
    if (stats_.empty() || !same_bits(stats_.back(), s)) {
        start_.push_back(n_);
        stats_.push_back(s);
    }
    n_ += count;
}

const RankStats& RankTable::operator[](std::size_t r) const {
    ARMSTICE_CHECK(r < size(), "rank out of range");
    const auto it = std::upper_bound(start_.begin(), start_.end(), static_cast<int>(r));
    return stats_[static_cast<std::size_t>(it - start_.begin()) - 1];
}

double RunResult::mean_compute() const { return mean_of(ranks, &RankStats::compute); }

double RunResult::mean_recv_wait() const { return mean_of(ranks, &RankStats::recv_wait); }

double RunResult::mean_collective_wait() const {
    return mean_of(ranks, &RankStats::collective_wait);
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

RunResult Engine::run(const std::vector<Program>& programs, const RunOptions& opts,
                      Trace* trace) const {
    const int n = placement_.ranks();
    ARMSTICE_CHECK(static_cast<int>(programs.size()) == n,
                   util::format("programs (%zu) != ranks (%d)", programs.size(), n));
    std::vector<std::uint32_t> identity(programs.size());
    std::iota(identity.begin(), identity.end(), 0U);
    return RunState(placement_, network_, cost_, vec_quality_, programs, identity, opts,
                    trace)
        .run();
}

RunResult Engine::run(const ProgramBundle& bundle, const RunOptions& opts,
                      Trace* trace) const {
    const int n = placement_.ranks();
    ARMSTICE_CHECK(bundle.ranks() == n,
                   util::format("bundle ranks (%d) != ranks (%d)", bundle.ranks(), n));
    return RunState(placement_, network_, cost_, vec_quality_, bundle.programs(),
                    bundle.index(), opts, trace)
        .run();
}

} // namespace armstice::sim
