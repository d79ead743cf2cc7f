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
    /// (same node -> shared-memory path).
    [[nodiscard]] double p2p_time(int node_a, int node_b, double bytes) const;

    /// Effective startup latency including the mean route (collectives).
    [[nodiscard]] double mean_latency() const;

private:
    arch::NetKind kind_;
    LinkParams params_;
    std::shared_ptr<const Topology> topo_;
};

std::shared_ptr<const Topology> make_topology(arch::NetKind kind, int n_nodes);

} // namespace armstice::net
