#pragma once
// Per-rank operation programs — the instruction set the discrete-event
// engine executes. Application skeletons build one Program per rank
// (usually via the simmpi::MiniMpi facade) out of counted compute phases
// and MPI-shaped communication operations.
//
// Phase labels are interned into a process-wide table (phase_table()):
// ComputeOp/MarkOp carry a small PhaseId instead of a label string, so the
// engine's hot path accumulates per-phase time into a vector indexed by id
// and only materialises the label->seconds map when a run returns.
//
// ComputePhase payloads are pooled per Program (Program::phases): a
// ComputeOp is a 16-byte {pool index, label id, cost signature} record, so
// the op stream the engine walks stays small and cache-dense even for
// 10^6-op programs, and repeated phases (every CG iteration re-emitting
// "spmv") are stored once. The cached cost_signature lets the engine memoize
// CostModel pricing per (phase content, ExecContext class).

#include "arch/phase.hpp"
#include "util/interner.hpp"

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

namespace armstice::sim {

/// Wildcard source for RecvOp (MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;

/// Interned phase-label id (index into phase_table()).
using PhaseId = std::uint32_t;

/// Id of the empty label "" — interned first, so it is always 0. Doubles as
/// the "no active MarkOp" sentinel in the engine.
inline constexpr PhaseId kNoPhase = 0;

/// Process-wide phase-label interner. Append-only and thread-safe;
/// concurrent Engine::run calls (SweepRunner pools) share it.
util::StringInterner& phase_table();

/// Intern a label (phase_table().id with the kNoPhase guarantee for "").
PhaseId intern_phase_label(std::string_view label);

/// Execute one counted compute phase. Only constructible through
/// Program::compute, which fills every field; content equality across
/// programs goes through Program::operator== (pool-resolved).
struct ComputeOp {
    std::uint32_t phase_idx = 0;  ///< index into Program::phases
    PhaseId label_id = kNoPhase;  ///< interned phase.label
    std::uint64_t cost_key = 0;   ///< arch::cost_signature(phase), never 0
};

/// Eager non-blocking send (MPI_Isend followed by an eventual wait that the
/// engine folds into injection time).
///
/// Relative form (`rel == true`): `dst` holds a signed *rank offset* and the
/// executing rank r sends to r + dst. Halo/Cartesian helpers emit this form
/// so every interior rank of a stencil shares one structural program — the
/// engine's rank-equivalence collapse (DESIGN.md §11) can then keep a whole
/// class of ranks merged through the send instead of splitting on the first
/// absolute destination.
struct SendOp {
    int dst = 0;
    double bytes = 0;
    int tag = 0;
    bool rel = false;  ///< dst is a rank offset, resolved as rank + dst

    [[nodiscard]] int resolve_dst(int rank) const { return rel ? rank + dst : dst; }

    bool operator==(const SendOp&) const = default;
};

/// Blocking receive with FIFO (src, tag) matching.
///
/// Relative form (`rel == true`): `src` holds a signed rank offset and the
/// executing rank r matches messages from r + src (never a wildcard — a rel
/// receive always names one source per rank).
struct RecvOp {
    int src = kAnySource;
    int tag = 0;
    bool rel = false;  ///< src is a rank offset, resolved as rank + src

    [[nodiscard]] int resolve_src(int rank) const { return rel ? rank + src : src; }
    [[nodiscard]] bool is_any() const { return !rel && src == kAnySource; }

    bool operator==(const RecvOp&) const = default;
};

/// World allreduce of `bytes` per rank (the engine prices it with
/// net::CollectiveModel and synchronises all ranks).
struct AllreduceOp {
    double bytes = 8;

    bool operator==(const AllreduceOp&) const = default;
};

struct BarrierOp {
    bool operator==(const BarrierOp&) const = default;
};

/// World all-to-all with `bytes_each` per rank pair (pairwise exchange;
/// used by the distributed-FFT transposes in the CASTEP model).
struct AlltoallOp {
    double bytes_each = 0;

    bool operator==(const AlltoallOp&) const = default;
};

/// Labels subsequent work for per-phase metrics (no time cost). kNoPhase
/// (the interned empty label) clears the active mark.
struct MarkOp {
    PhaseId label_id = kNoPhase;

    bool operator==(const MarkOp&) const = default;
};

using Op =
    std::variant<ComputeOp, SendOp, RecvOp, AllreduceOp, BarrierOp, AlltoallOp, MarkOp>;

struct Program {
    std::vector<Op> ops;
    /// Distinct phase payloads referenced by ComputeOp::phase_idx. Deduped
    /// bitwise (same_cost_inputs + label) as ops are built.
    std::vector<arch::ComputePhase> phases;

    Program& compute(const arch::ComputePhase& phase) {
        return compute(phase, intern_phase_label(phase.label), arch::cost_signature(phase));
    }
    /// Pre-keyed append for callers that append one phase to many programs:
    /// `label_id` and `cost_key` must be intern_phase_label(phase.label) and
    /// arch::cost_signature(phase).
    Program& compute(const arch::ComputePhase& phase, PhaseId label_id,
                     std::uint64_t cost_key) {
        ops.emplace_back(ComputeOp{pool_phase(phase), label_id, cost_key});
        return *this;
    }
    Program& send(int dst, double bytes, int tag = 0) {
        ops.emplace_back(SendOp{dst, bytes, tag});
        return *this;
    }
    /// Relative-offset send: the executing rank r sends to r + delta.
    Program& send_rel(int delta, double bytes, int tag = 0) {
        ops.emplace_back(SendOp{delta, bytes, tag, /*rel=*/true});
        return *this;
    }
    Program& recv(int src = kAnySource, int tag = 0) {
        ops.emplace_back(RecvOp{src, tag});
        return *this;
    }
    /// Relative-offset receive: the executing rank r matches src r + delta.
    Program& recv_rel(int delta, int tag = 0) {
        ops.emplace_back(RecvOp{delta, tag, /*rel=*/true});
        return *this;
    }
    Program& allreduce(double bytes = 8) {
        ops.emplace_back(AllreduceOp{bytes});
        return *this;
    }
    Program& barrier() {
        ops.emplace_back(BarrierOp{});
        return *this;
    }
    Program& alltoall(double bytes_each) {
        ops.emplace_back(AlltoallOp{bytes_each});
        return *this;
    }
    Program& mark(std::string_view label) {
        ops.emplace_back(MarkOp{intern_phase_label(label)});
        return *this;
    }

    /// The phase payload of a compute op.
    [[nodiscard]] const arch::ComputePhase& phase_of(const ComputeOp& c) const {
        return phases[c.phase_idx];
    }

    /// Total counted FLOPs in this program.
    [[nodiscard]] double total_flops() const;
    /// Total counted main-memory bytes.
    [[nodiscard]] double total_main_bytes() const;

    /// Structural hash: equal programs hash equal (used with operator== to
    /// deduplicate structurally identical rank programs).
    [[nodiscard]] std::uint64_t structure_hash() const;

    /// Structural equality with pool-resolved phase content (bitwise cost
    /// inputs + label), so equal programs built independently compare equal
    /// regardless of pool layout.
    bool operator==(const Program& o) const;

private:
    /// Index of `phase` in `phases`, appending a copy if new.
    std::uint32_t pool_phase(const arch::ComputePhase& phase);
};

/// A set of rank programs with structural sharing: structurally identical
/// programs are stored once and every rank holds an index into the distinct
/// list. SPMD apps collapse O(ranks x ops) storage to O(distinct x ops);
/// rank-dependent apps (halo graphs, per-rank work) keep one copy per
/// distinct structure. Engine::run accepts a bundle directly.
class ProgramBundle {
public:
    ProgramBundle() = default;

    /// Deduplicate a fully materialised per-rank vector (structural hash,
    /// then deep equality — hash collisions never merge unequal programs).
    static ProgramBundle from(std::vector<Program> programs);

    /// Adopt programs that are already distinct, with rank r running
    /// `distinct[index[r]]` (simmpi::ProgramSet's class build). No hashing
    /// or comparison; throws util::Error on an index out of range.
    static ProgramBundle classes(std::vector<Program> distinct,
                                 std::vector<std::uint32_t> index);

    [[nodiscard]] int ranks() const { return static_cast<int>(index_.size()); }
    [[nodiscard]] int distinct() const { return static_cast<int>(distinct_.size()); }
    [[nodiscard]] const Program& of(int rank) const {
        return distinct_[index_[static_cast<std::size_t>(rank)]];
    }
    /// The distinct programs, and the rank -> distinct-program index.
    [[nodiscard]] const std::vector<Program>& programs() const { return distinct_; }
    [[nodiscard]] const std::vector<std::uint32_t>& index() const { return index_; }

private:
    std::vector<Program> distinct_;
    std::vector<std::uint32_t> index_;  ///< rank -> index into distinct_
};

} // namespace armstice::sim
