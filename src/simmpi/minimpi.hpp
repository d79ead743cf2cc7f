#pragma once
// MiniMpi — the program-builder facade application skeletons use to express
// their communication structure. It looks like a tiny MPI: SPMD helpers emit
// the same op into every rank's Program; halo_exchange emits the
// sends-before-receives ordering that is deadlock-free under the engine's
// eager-send semantics (mirroring nonblocking-irecv/isend/waitall codes).
//
// Building is per class of ranks, not per rank: ProgramSet keeps one Program
// per class of ranks whose programs are identical so far, plus a rank->class
// index. SPMD helpers append once per class. compute_by_rank and
// halo_exchange split a class only when its members would append different
// ops, copying the class's program once per new class. take_bundle() hands
// the classes to the engine as a sim::ProgramBundle without hashing or
// comparing programs; it equals ProgramBundle::from(take()) in programs,
// order and rank index. take() expands the classes into the full per-rank
// vector for callers that inspect individual programs.

#include "arch/phase.hpp"
#include "sim/program.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace armstice::simmpi {

class ProgramSet {
public:
    explicit ProgramSet(int ranks);

    [[nodiscard]] int ranks() const { return static_cast<int>(class_of_.size()); }
    /// True while every rank is in one class, i.e. runs one program. The
    /// engine's rank-equivalence collapse (DESIGN.md §11) keys classes on
    /// shared program identity, so a still-SPMD set collapses to one class
    /// per ExecContext class; bench_engine asserts the scale skeletons stay
    /// SPMD all the way into take_bundle().
    [[nodiscard]] bool spmd() const { return classes_.size() == 1; }

    /// SPMD: every rank executes `phase`.
    ProgramSet& compute(const arch::ComputePhase& phase);
    /// Rank-dependent phases: `make_phase(r)` is called exactly once per
    /// rank, in rank order. Ranks of one class whose phases are equal (cost
    /// inputs and label) keep sharing a program; a class splits only when its
    /// members' phases differ, so uniform "per-rank" work stays SPMD.
    ProgramSet& compute_by_rank(
        const std::function<arch::ComputePhase(int)>& make_phase);
    ProgramSet& allreduce(double bytes = 8);
    ProgramSet& barrier();
    ProgramSet& alltoall(double bytes_each);
    ProgramSet& mark(const std::string& label);

    /// Neighbour (halo) exchange: rank r sends `bytes[r][i]` to
    /// `neighbors[r][i]` and receives from each of its neighbours. Posts all
    /// sends first, then the receives (deadlock-free with eager sends).
    /// Emitted in *relative* form (send_rel/recv_rel with offset = neighbour
    /// - rank), so structurally symmetric ranks — a Cartesian halo's whole
    /// interior — share one program and stay merged through the engine's
    /// rank-equivalence collapse (DESIGN.md §11). Timings are identical to
    /// hand-rolled absolute send/recv pairs.
    ProgramSet& halo_exchange(const std::vector<std::vector<int>>& neighbors,
                              const std::vector<std::vector<double>>& bytes,
                              int tag = 0);
    /// Uniform-size convenience overload.
    ProgramSet& halo_exchange(const std::vector<std::vector<int>>& neighbors,
                              double bytes_per_neighbor, int tag = 0);

    /// Move the built programs out as a full per-rank vector (ProgramSet is
    /// then empty): one copy of its class's program per rank.
    [[nodiscard]] std::vector<sim::Program> take();

    /// Move the built programs out with structural sharing intact: one
    /// program per class, numbered by first appearance in rank order
    /// (ProgramSet is then empty). Engine results are bit-identical to the
    /// take() path.
    [[nodiscard]] sim::ProgramBundle take_bundle();

private:
    std::vector<sim::Program> classes_;    ///< one program per class of ranks
    std::vector<std::uint32_t> class_of_;  ///< rank -> index into classes_
};

/// Split n items over p parts as evenly as possible; part i gets
/// chunk_size(n,p,i) items (the first n%p parts get one extra).
long chunk_size(long n, int p, int i);
/// First item of part i under the same split.
long chunk_begin(long n, int p, int i);

/// Near-cubic process grid for p ranks in `ndims` dimensions
/// (MPI_Dims_create semantics: factors sorted descending).
std::vector<int> dims_create(int p, int ndims);

/// Neighbour lists for a Cartesian decomposition: 2*ndims face neighbours
/// per rank (non-periodic boundaries drop the missing side).
std::vector<std::vector<int>> cart_neighbors(const std::vector<int>& dims,
                                             bool periodic);

/// Neighbour lists for a 1D chain (slab) decomposition: rank r talks to
/// r-1 and r+1, chain ends have one neighbour. Only the first `active`
/// ranks participate (ranks past it get empty lists); active < 0 means all.
/// The apps' slab/block-chain halos all route through this so their
/// exchanges hit halo_exchange's relative emission with a uniform shape.
std::vector<std::vector<int>> chain_neighbors(int ranks, int active = -1);

} // namespace armstice::simmpi
