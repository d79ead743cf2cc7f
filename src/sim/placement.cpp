#include "sim/placement.hpp"

#include "util/error.hpp"
#include "util/str.hpp"

#include <algorithm>
#include <cstddef>

namespace armstice::sim {

Placement::Placement(const arch::NodeSpec& node, int nodes, int ranks,
                     int threads_per_rank, bool round_robin)
    : node_(&node),
      nodes_(nodes),
      ranks_(ranks),
      threads_(threads_per_rank),
      round_robin_(round_robin) {
    ARMSTICE_CHECK(nodes >= 1, "placement needs >=1 node");
    ARMSTICE_CHECK(ranks >= 1, "placement needs >=1 rank");
    ARMSTICE_CHECK(threads_per_rank >= 1, "placement needs >=1 thread per rank");
    node.validate();

    // Block fills ceil(ranks / nodes) ranks per node in node order; round
    // robin deals rank r to node r % nodes. Either way node 0 holds the most
    // ranks and every node fills slots 0 .. occupancy - 1.
    occupancy_.resize(static_cast<std::size_t>(nodes));
    if (round_robin) {
        for (int k = 0; k < nodes; ++k) {
            occupancy_[static_cast<std::size_t>(k)] =
                ranks / nodes + (k < ranks % nodes ? 1 : 0);
        }
    } else {
        const long long per_node = (static_cast<long long>(ranks) + nodes - 1) / nodes;
        per_node_ = static_cast<int>(per_node);
        for (int k = 0; k < nodes; ++k) {
            occupancy_[static_cast<std::size_t>(k)] = static_cast<int>(
                std::clamp(ranks - k * per_node, 0LL, per_node));
        }
    }

    // The slot table, checked on node 0 in slot order. Slot i has the same
    // cores on every node and no node holds more slots than node 0, so the
    // first failing slot here holds the lowest rank that fails anywhere.
    // Each slot takes at least one free core, so at most `cores` slots pass
    // and the table never outgrows a node. Row i of `upto_` counts the
    // streams slots 0 .. i-1 put on each domain, so row occupancy_[k] is
    // node k's.
    const int cores = node.cores();
    const int cpd = node.cores_per_domain();
    const int domains = node.mem_domains();
    const auto dom = static_cast<std::size_t>(domains);
    std::vector<char> used(static_cast<std::size_t>(cores), 0);  // node 0's cores
    upto_.assign(dom, 0);
    for (int i = 0; i < occupancy_[0]; ++i) {
        const int first_core = round_robin
                                   ? (i % domains) * cpd + (i / domains) * threads_per_rank
                                   : i * threads_per_rank;
        const int rank = round_robin ? i * nodes : i;  // node 0's i-th rank
        ARMSTICE_CHECK(first_core + threads_per_rank <= cores,
                       util::format("placement oversubscribes cores: rank %d at core"
                                    " %d x %d threads on %d-core nodes",
                                    rank, first_core, threads_per_rank, cores));
        const std::size_t row = upto_.size();
        upto_.resize(row + dom);
        for (std::size_t d = 0; d < dom; ++d) upto_[row + d] = upto_[row - dom + d];
        for (int core = first_core; core < first_core + threads_per_rank; ++core) {
            auto& cell = used[static_cast<std::size_t>(core)];
            ARMSTICE_CHECK(!cell, util::format("placement pins two ranks to node %d"
                                               " core %d", 0, core));
            cell = 1;
            upto_[row + static_cast<std::size_t>(core / cpd)] += 1;
        }
        Slot slot;
        slot.first_core = first_core;
        slot.first_domain = first_core / cpd;
        slot.domains_spanned =
            (first_core + threads_per_rank - 1) / cpd - slot.first_domain + 1;
        slots_.push_back(slot);
    }
}

Placement Placement::block(const arch::NodeSpec& node, int nodes, int ranks,
                           int threads_per_rank) {
    return Placement(node, nodes, ranks, threads_per_rank, /*round_robin=*/false);
}

Placement Placement::round_robin(const arch::NodeSpec& node, int nodes, int ranks,
                                 int threads_per_rank) {
    return Placement(node, nodes, ranks, threads_per_rank, /*round_robin=*/true);
}

RankLoc Placement::loc(int rank) const {
    ARMSTICE_CHECK(rank >= 0 && rank < ranks_, "rank out of range");
    const int node = round_robin_ ? rank % nodes_ : rank / per_node_;
    const int slot = round_robin_ ? rank / nodes_ : rank % per_node_;
    const Slot& s = slots_[static_cast<std::size_t>(slot)];
    return RankLoc{node, s.first_core, s.first_domain, s.domains_spanned};
}

int Placement::ranks_on_node(int node) const {
    ARMSTICE_CHECK(node >= 0 && node < nodes_, "node out of range");
    return occupancy_[static_cast<std::size_t>(node)];
}

int Placement::streams_on_domain(int node, int domain) const {
    ARMSTICE_CHECK(node >= 0 && node < nodes_, "node out of range");
    ARMSTICE_CHECK(domain >= 0 && domain < node_->mem_domains(), "domain out of range");
    return upto_[static_cast<std::size_t>(occupancy_[static_cast<std::size_t>(node)]) *
                     static_cast<std::size_t>(node_->mem_domains()) +
                 static_cast<std::size_t>(domain)];
}

arch::ExecContext Placement::exec_context(int rank, double vec_quality) const {
    const RankLoc l = loc(rank);
    arch::ExecContext ctx;
    ctx.cpu = &node_->cpu;
    ctx.vec_quality = vec_quality;
    ctx.threads = threads_;
    ctx.domains_spanned = l.domains_spanned;
    // Use the rank's first domain as representative; with block placement all
    // domains a rank spans carry the same stream count.
    ctx.streams_on_domain = std::max(1, streams_on_domain(l.node, l.first_domain));
    return ctx;
}

net::CommLayout Placement::comm_layout() const {
    // Ceiling division (the old derivation) priced 48 ranks on 5 nodes as
    // 5x10=50 ranks — phantom allgather/alltoall rounds — and counted
    // allocated-but-empty nodes as collective participants. The minimum
    // occupancy feeds the distance-aware alltoall round split
    // (net/collectives.cpp): the least-populated node's ranks cross the
    // fabric most often and set the critical path.
    const int n = ranks();
    net::CommLayout layout;
    layout.total_ranks = n;
    int occupied = 0;
    int max_on_node = 0;
    int min_on_node = n;
    for (int node = 0; node < nodes_; ++node) {
        const int on = ranks_on_node(node);
        if (on > 0) {
            ++occupied;
            min_on_node = std::min(min_on_node, on);
        }
        max_on_node = std::max(max_on_node, on);
    }
    layout.nodes = std::max(1, occupied);
    layout.ranks_per_node = std::max(1, max_on_node);
    layout.min_ranks_per_node = occupied > 0 ? min_on_node : 1;
    return layout;
}

void Placement::check_capacity(double bytes_per_rank) const {
    ARMSTICE_CHECK(bytes_per_rank >= 0, "negative footprint");
    const double cap = node_->mem_capacity();
    for (int n = 0; n < nodes_; ++n) {
        const double used = bytes_per_rank * ranks_on_node(n);
        if (used > cap) {
            throw util::CapacityError(util::format(
                "node %d needs %.2f GB but has %.2f GB (%d ranks x %.2f GB)", n,
                used / 1e9, cap / 1e9, ranks_on_node(n), bytes_per_rank / 1e9));
        }
    }
}

} // namespace armstice::sim
