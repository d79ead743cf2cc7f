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
//
// Halo exchanges run over a HaloGraph (cart_neighbors, chain_neighbors, or a
// hand-written list), which is checked once when it is built and numbers
// each rank's shape — its ordered neighbour offsets — once. A repeated
// halo_exchange on one graph then regroups ranks by one shape id per rank
// and never re-checks or re-compares neighbour lists.

#include "arch/phase.hpp"
#include "sim/program.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace armstice::simmpi {

/// A symmetric neighbour (halo) graph, stored as one offsets array and one
/// neighbour array (CSR). It is checked once, when built, and immutable
/// afterwards. Each rank's *shape* is its ordered list of neighbour offsets
/// (neighbour - rank); ranks with equal lists share a shape id, and shape ids
/// are numbered by first appearance in rank order.
class HaloGraph {
public:
    /// Rank r's neighbours are neighbors[r], in that order. Throws
    /// util::Error on a neighbour outside [0, neighbors.size()), a neighbour
    /// listed twice in one list, or an asymmetric edge (r lists n but n does
    /// not list r).
    explicit HaloGraph(const std::vector<std::vector<int>>& neighbors);

    [[nodiscard]] int ranks() const { return static_cast<int>(shape_of_.size()); }
    [[nodiscard]] std::span<const int> neighbors(int rank) const {
        const auto r = static_cast<std::size_t>(rank);
        return {adj_.data() + begin_[r], begin_[r + 1] - begin_[r]};
    }
    [[nodiscard]] std::uint32_t shape_of(int rank) const {
        return shape_of_[static_cast<std::size_t>(rank)];
    }
    [[nodiscard]] int shapes() const { return static_cast<int>(first_of_shape_.size()); }
    /// The lowest rank with shape `shape`.
    [[nodiscard]] int representative(std::uint32_t shape) const {
        return first_of_shape_[shape];
    }

private:
    HaloGraph() = default;
    /// Checks the filled CSR arrays and numbers the shapes.
    void finish();

    friend HaloGraph cart_neighbors(const std::vector<int>& dims, bool periodic);
    friend HaloGraph chain_neighbors(int ranks, int active);

    std::vector<std::size_t> begin_ = {0};  ///< rank r's neighbours: [begin_[r], begin_[r + 1])
    std::vector<int> adj_;
    std::vector<std::uint32_t> shape_of_;   ///< rank -> shape id
    std::vector<int> first_of_shape_;       ///< shape id -> lowest rank with it
};

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

    /// Neighbour (halo) exchange: every rank sends `bytes_per_neighbor` to
    /// each of its neighbours in `graph` and receives from each of them.
    /// Posts all sends first, then the receives, both in neighbour order
    /// (deadlock-free with eager sends). Emitted in *relative* form
    /// (send_rel/recv_rel with offset = neighbour - rank), so ranks of one
    /// shape — a Cartesian halo's whole interior — share one program and stay
    /// merged through the engine's rank-equivalence collapse (DESIGN.md §11).
    /// Timings are identical to hand-rolled absolute send/recv pairs. Throws
    /// util::Error unless graph.ranks() == ranks().
    ProgramSet& halo_exchange(const HaloGraph& graph, double bytes_per_neighbor,
                              int tag = 0);
    /// Per-rank sizes: rank r sends `bytes[r]` to each of its neighbours.
    /// Throws util::Error unless bytes has one value per rank.
    ProgramSet& halo_exchange(const HaloGraph& graph, const std::vector<double>& bytes,
                              int tag = 0);

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

/// Halo graph of a Cartesian decomposition, ranks numbered with the first
/// dimension fastest: 2*ndims face neighbours per rank, ascending
/// (non-periodic boundaries drop the missing side; a periodic dimension of
/// size 2 lists its one neighbour once). Throws util::Error on a dimension
/// below 1 or a rank count above INT_MAX.
HaloGraph cart_neighbors(const std::vector<int>& dims, bool periodic);

/// Halo graph of a 1D chain (slab) decomposition: rank r talks to r-1 and
/// r+1, chain ends have one neighbour. Only the first `active` ranks
/// participate (ranks past it have no neighbours); active < 0 means all.
/// The apps' slab/block-chain halos all route through this so their
/// exchanges hit halo_exchange's relative emission with a uniform shape.
HaloGraph chain_neighbors(int ranks, int active = -1);

} // namespace armstice::simmpi
