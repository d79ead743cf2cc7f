#pragma once
// Placement — maps MPI ranks (each with a fixed OpenMP thread count) onto
// nodes, memory domains and cores. Reproduces the paper's §III.a pinning
// methodology: processes and threads are pinned; a rank's threads occupy
// consecutive cores starting at its base core.
//
// Both layouts fill every node from slot 0 up, and slot i sits on the same
// cores on every node, so a Placement stores one slot table for a node (at
// most `cores` entries), the streams each prefix of slots puts on each domain
// and each node's occupancy — never one entry per rank. loc(r) computes the
// rank's node and slot, and a node's streams are the row of its occupancy
// (DESIGN.md §4.4).

#include "arch/cost_model.hpp"
#include "arch/processor.hpp"
#include "net/collectives.hpp"

#include <vector>

namespace armstice::sim {

struct RankLoc {
    int node = 0;
    int first_core = 0;    ///< node-local core index of the rank's first thread
    int first_domain = 0;  ///< memory domain of the first core
    int domains_spanned = 1;
};

class Placement {
public:
    /// Block placement: ranks fill node 0 first (ranks_per_node ranks, each
    /// `threads` consecutive cores), then node 1, etc. Throws util::Error if
    /// a node's cores are oversubscribed.
    static Placement block(const arch::NodeSpec& node, int nodes, int ranks,
                           int threads_per_rank);

    /// Round-robin (scatter) placement: rank r lands on node r % nodes.
    /// Spreads under-populated jobs across nodes — the opposite memory-
    /// contention regime to block placement (bench/ext_placement).
    static Placement round_robin(const arch::NodeSpec& node, int nodes, int ranks,
                                 int threads_per_rank);

    [[nodiscard]] int ranks() const { return ranks_; }
    [[nodiscard]] int threads() const { return threads_; }
    [[nodiscard]] int nodes() const { return nodes_; }
    [[nodiscard]] const arch::NodeSpec& node_spec() const { return *node_; }
    /// Where rank `rank` runs, computed from its node and slot.
    [[nodiscard]] RankLoc loc(int rank) const;

    /// Ranks resident on a node.
    [[nodiscard]] int ranks_on_node(int node) const;
    /// Hardware streams (rank threads) active on a (node, domain) pair —
    /// the contention input of DESIGN.md §4.4.
    [[nodiscard]] int streams_on_domain(int node, int domain) const;

    /// Cost-model context for one rank (vec_quality supplied by caller).
    [[nodiscard]] arch::ExecContext exec_context(int rank, double vec_quality) const;

    /// Collective layout derived from the *actual* occupancy: `nodes` counts
    /// only nodes with resident ranks, `ranks_per_node` is the maximum
    /// occupancy, `min_ranks_per_node` the minimum occupied occupancy, and
    /// `total_ranks` the true rank count (DESIGN.md §4.3). Shared by
    /// sim::Engine and sim::RefEngine so both price collectives identically.
    [[nodiscard]] net::CommLayout comm_layout() const;

    /// Throws util::CapacityError when `bytes_per_rank` summed per node
    /// exceeds node memory (DESIGN.md §4.5).
    void check_capacity(double bytes_per_rank) const;

private:
    /// A slot's cores on every node: slot i holds the i-th rank of a node.
    struct Slot {
        int first_core = 0;
        int first_domain = 0;
        int domains_spanned = 1;
    };
    Placement(const arch::NodeSpec& node, int nodes, int ranks, int threads_per_rank,
              bool round_robin);

    const arch::NodeSpec* node_ = nullptr;
    int nodes_ = 0;
    int ranks_ = 0;
    int threads_ = 1;
    bool round_robin_ = false;
    int per_node_ = 1;            ///< block: ranks on each full node
    std::vector<Slot> slots_;     ///< [slot], as many as node 0 holds
    std::vector<int> occupancy_;  ///< [node] -> resident ranks
    /// [i * domains + domain] -> streams slots 0 .. i-1 put on the domain
    std::vector<int> upto_;
};

} // namespace armstice::sim
