#include "net/network.hpp"

#include "util/error.hpp"

namespace armstice::net {

LinkParams link_params(arch::NetKind kind) {
    using arch::NetKind;
    LinkParams p;
    switch (kind) {
        case NetKind::tofud:
            // Ajima et al. 2018: 0.49-0.54 us put, 6.8 GB/s/link, 6 TNIs.
            p.latency_s = 0.9e-6;  // MPI-level small-message latency
            p.per_hop_s = 0.08e-6;
            p.bandwidth = 6.1e9;
            p.injection_bw = 28e9;  // multiple TNIs usable by MPI
            p.msg_overhead_s = 0.20e-6;
            p.shm_bandwidth = 20e9;  // on-package CMG-to-CMG ring bus
            break;
        case NetKind::aries:
            p.latency_s = 1.2e-6;
            p.per_hop_s = 0.10e-6;
            p.bandwidth = 8.5e9;
            p.injection_bw = 10e9;
            p.msg_overhead_s = 0.25e-6;
            break;
        case NetKind::fdr_ib:
            p.latency_s = 1.1e-6;
            p.per_hop_s = 0.15e-6;
            p.bandwidth = 6.0e9;
            p.injection_bw = 6.0e9;
            p.msg_overhead_s = 0.30e-6;
            break;
        case NetKind::omnipath:
            p.latency_s = 1.3e-6;
            p.per_hop_s = 0.12e-6;
            p.bandwidth = 11.2e9;
            p.injection_bw = 11.2e9;
            p.msg_overhead_s = 0.35e-6;  // PSM2 onload stack
            break;
        case NetKind::edr_ib:
            p.latency_s = 0.9e-6;
            p.per_hop_s = 0.12e-6;
            p.bandwidth = 11.5e9;
            p.injection_bw = 11.5e9;
            p.msg_overhead_s = 0.25e-6;
            break;
    }
    return p;
}

std::shared_ptr<const Topology> make_topology(arch::NetKind kind, int n_nodes) {
    using arch::NetKind;
    ARMSTICE_CHECK(n_nodes >= 1, "network needs >=1 node");
    switch (kind) {
        case NetKind::tofud:
            return std::make_shared<TorusTopology>(TorusTopology::fit(n_nodes));
        case NetKind::aries:
            return std::make_shared<DragonflyTopology>(n_nodes);
        case NetKind::fdr_ib:
            return std::make_shared<FatTreeTopology>(n_nodes, 18);
        case NetKind::omnipath:
            return std::make_shared<FatTreeTopology>(n_nodes, 24);
        case NetKind::edr_ib:
            return std::make_shared<FatTreeTopology>(n_nodes, 18);
    }
    throw util::Error("unknown NetKind");
}

Network::Network(arch::NetKind kind, int n_nodes)
    : kind_(kind), params_(link_params(kind)), topo_(make_topology(kind, n_nodes)) {}

double Network::p2p_time(int node_a, int node_b, double bytes) const {
    ARMSTICE_CHECK(bytes >= 0, "negative message size");
    return tier_time(tier(node_a, node_b), bytes);
}

double Network::mean_latency() const {
    return params_.latency_s + topo_->mean_hops() * params_.per_hop_s;
}

} // namespace armstice::net
