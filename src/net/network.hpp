#pragma once
// Network — one interconnect instance sized for a job: topology + link
// parameters + point-to-point and collective cost functions. Consumed by the
// discrete-event engine (sim/engine.cpp), which handles matching/blocking
// semantics and only asks the network "how long does this transfer take".

#include "arch/system.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"

#include <memory>

namespace armstice::net {

class Network {
public:
    /// Build the interconnect of `kind` spanning `n_nodes` nodes.
    Network(arch::NetKind kind, int n_nodes);

    [[nodiscard]] const LinkParams& params() const { return params_; }
    [[nodiscard]] const Topology& topology() const { return *topo_; }
    [[nodiscard]] arch::NetKind kind() const { return kind_; }
    [[nodiscard]] int nodes() const { return topo_->nodes(); }

    /// End-to-end time for one point-to-point message between nodes
    /// (same node -> shared-memory path): tier_time(tier(a, b), bytes).
    [[nodiscard]] double p2p_time(int node_a, int node_b, double bytes) const;

    /// Hop tier of a message between two nodes: -1 on one node, else the
    /// route's hop count. With the byte count it fixes the transfer price,
    /// so two node pairs of one tier pay bit-identical times.
    [[nodiscard]] int tier(int node_a, int node_b) const {
        return node_a == node_b ? -1 : topo_->hops(node_a, node_b);
    }
    /// End-to-end seconds of a `bytes` message at hop tier `tier`.
    [[nodiscard]] double tier_time(int tier, double bytes) const {
        if (tier < 0) {
            return params_.shm_latency_s + bytes / params_.shm_bandwidth +
                   params_.msg_overhead_s;
        }
        return params_.latency_s + tier * params_.per_hop_s + bytes / params_.bandwidth +
               params_.msg_overhead_s;
    }
    /// Seconds the sender spends injecting a `bytes` message.
    [[nodiscard]] double injection_time(double bytes) const {
        return params_.msg_overhead_s + bytes / params_.injection_bw;
    }

    /// Effective startup latency including the mean route (collectives).
    [[nodiscard]] double mean_latency() const;

private:
    arch::NetKind kind_;
    LinkParams params_;
    std::shared_ptr<const Topology> topo_;
};

std::shared_ptr<const Topology> make_topology(arch::NetKind kind, int n_nodes);

} // namespace armstice::net
