#include "sim/program.hpp"

#include "util/error.hpp"

#include <cstring>
#include <unordered_map>
#include <utility>

namespace armstice::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffU;
        h *= kFnvPrime;
    }
}

void mixd(std::uint64_t& h, double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    mix(h, u);
}

/// Mixes one op's *content* into an FNV-1a hash — pool-layout-independent:
/// ComputeOps hash their cost signature + label id, never phase_idx.
struct OpHasher {
    std::uint64_t& h;
    void operator()(const ComputeOp& c) const {
        mix(h, 1);
        // cost_signature covers every numeric field; the label id separates
        // equal-cost phases with different names. phase_idx is deliberately
        // NOT mixed: pool layout is an artifact of build order, not content.
        mix(h, c.cost_key);
        mix(h, c.label_id);
    }
    void operator()(const SendOp& s) const {
        mix(h, s.rel ? 8 : 2);
        mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.dst)));
        mixd(h, s.bytes);
        mix(h, static_cast<std::uint64_t>(s.tag));
    }
    void operator()(const RecvOp& r) const {
        mix(h, r.rel ? 9 : 3);
        mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.src)));
        mix(h, static_cast<std::uint64_t>(r.tag));
    }
    void operator()(const AllreduceOp& a) const {
        mix(h, 4);
        mixd(h, a.bytes);
    }
    void operator()(const BarrierOp&) const { mix(h, 5); }
    void operator()(const AlltoallOp& a) const {
        mix(h, 6);
        mixd(h, a.bytes_each);
    }
    void operator()(const MarkOp& m) const {
        mix(h, 7);
        mix(h, m.label_id);
    }
};

/// Pool-resolved content equality of two ops from (possibly different)
/// programs: ComputeOps compare label + cost signature + phase content
/// (bitwise cost inputs), with a pointer fast path when both resolve to the
/// same pooled payload.
bool same_op_content(const Program& pa, const Op& a, const Program& pb,
                     const Op& b) {
    if (a.index() != b.index()) return false;
    if (const auto* ca = std::get_if<ComputeOp>(&a)) {
        const auto& cb = std::get<ComputeOp>(b);
        if (ca->label_id != cb.label_id || ca->cost_key != cb.cost_key) return false;
        const arch::ComputePhase& fa = pa.phase_of(*ca);
        const arch::ComputePhase& fb = pb.phase_of(cb);
        return &fa == &fb || arch::same_cost_inputs(fa, fb);
    }
    if (const auto* sa = std::get_if<SendOp>(&a)) return *sa == std::get<SendOp>(b);
    if (const auto* ra = std::get_if<RecvOp>(&a)) return *ra == std::get<RecvOp>(b);
    if (const auto* aa = std::get_if<AllreduceOp>(&a)) return *aa == std::get<AllreduceOp>(b);
    if (const auto* ta = std::get_if<AlltoallOp>(&a)) return *ta == std::get<AlltoallOp>(b);
    if (const auto* ma = std::get_if<MarkOp>(&a)) return *ma == std::get<MarkOp>(b);
    return true;  // BarrierOp: same index is enough
}

} // namespace

util::StringInterner& phase_table() {
    // Immortal (never destroyed): ids handed out during static teardown of
    // other objects stay resolvable, and the deque-backed strings keep their
    // addresses for the process lifetime.
    static auto* table = [] {
        auto* t = new util::StringInterner();
        t->id("");  // reserve id 0 == kNoPhase
        return t;
    }();
    return *table;
}

PhaseId intern_phase_label(std::string_view label) {
    return phase_table().id(label);
}

std::uint32_t Program::pool_phase(const arch::ComputePhase& phase) {
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (arch::same_cost_inputs(phases[i], phase) && phases[i].label == phase.label) {
            return static_cast<std::uint32_t>(i);
        }
    }
    phases.push_back(phase);
    return static_cast<std::uint32_t>(phases.size() - 1);
}

double Program::total_flops() const {
    double sum = 0.0;
    for (const auto& op : ops) {
        if (const auto* c = std::get_if<ComputeOp>(&op)) sum += phase_of(*c).flops;
    }
    return sum;
}

double Program::total_main_bytes() const {
    double sum = 0.0;
    for (const auto& op : ops) {
        if (const auto* c = std::get_if<ComputeOp>(&op)) sum += phase_of(*c).main_bytes;
    }
    return sum;
}

std::uint64_t Program::structure_hash() const {
    std::uint64_t h = kFnvOffset;
    mix(h, ops.size());
    for (const auto& op : ops) std::visit(OpHasher{h}, op);
    return h;
}

bool Program::operator==(const Program& o) const {
    if (ops.size() != o.ops.size()) return false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!same_op_content(*this, ops[i], o, o.ops[i])) return false;
    }
    return true;
}

ProgramBundle ProgramBundle::from(std::vector<Program> programs) {
    ProgramBundle b;
    b.index_.reserve(programs.size());
    // hash -> indices into distinct_ with that hash (collision chains).
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;
    by_hash.reserve(programs.size());
    for (auto& prog : programs) {
        const std::uint64_t h = prog.structure_hash();
        auto& chain = by_hash[h];
        std::uint32_t idx = UINT32_MAX;
        for (const std::uint32_t cand : chain) {
            if (b.distinct_[cand] == prog) {
                idx = cand;
                break;
            }
        }
        if (idx == UINT32_MAX) {
            idx = static_cast<std::uint32_t>(b.distinct_.size());
            b.distinct_.push_back(std::move(prog));
            chain.push_back(idx);
        }
        b.index_.push_back(idx);
    }
    return b;
}

ProgramBundle ProgramBundle::classes(std::vector<Program> distinct,
                                     std::vector<std::uint32_t> index) {
    for (const std::uint32_t i : index) {
        ARMSTICE_CHECK(i < distinct.size(), "ProgramBundle::classes index out of range");
    }
    ProgramBundle b;
    b.distinct_ = std::move(distinct);
    b.index_ = std::move(index);
    return b;
}

} // namespace armstice::sim
