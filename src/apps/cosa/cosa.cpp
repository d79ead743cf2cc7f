#include "apps/cosa/cosa.hpp"

#include "arch/calibration.hpp"
#include "arch/toolchain.hpp"
#include "util/error.hpp"

#include <cmath>

namespace armstice::apps {
namespace {

using arch::ComputePhase;
using arch::MemPattern;

/// Doubles stored per cell per HB snapshot: conservative variables, HB
/// source terms, residuals, fluxes, metric terms and the multigrid
/// hierarchy. Anchored by the paper's "~60 GB" footprint for the 800-block,
/// 3.69M-cell, 4-harmonic case: 60e9 / (3.69e6 * 9 * 8 B) = ~226.
constexpr double kDoublesPerCellPerSnapshot = 226.0;

/// Fraction of the block data streamed from main memory per solver
/// iteration. Most of the 226 doubles/cell are flux/metric temporaries that
/// stay cache-resident inside a block sweep; the per-iteration main-memory
/// traffic is roughly one visit to the solution + residual + HB source
/// state (~60% of the block). This ratio makes COSA compute-leaning, which
/// is required for Fig 4's 16-node crossover to be possible at all: were
/// COSA purely bandwidth-bound, the A64FX's HBM advantage (>4x per core)
/// could never be overcome by the 2x block-count imbalance the paper blames.
constexpr double kTouchesPerIteration = 0.6;

/// FLOPs per cell per snapshot per iteration: JST flux + HB source terms +
/// multigrid smoothing across the V-cycle.
constexpr double kFlopsPerCellPerSnapshot = 2800.0;

} // namespace

int cosa_snapshots(const CosaConfig& cfg) { return 2 * cfg.harmonics + 1; }

double cosa_bytes_per_rank(const CosaConfig& cfg, int blocks_on_rank) {
    const double cells_per_block = static_cast<double>(cfg.total_cells) / cfg.blocks;
    const double block_bytes =
        cells_per_block * cosa_snapshots(cfg) * 8.0 * kDoublesPerCellPerSnapshot;
    return blocks_on_rank * block_bytes + 30e6;  // + fixed runtime footprint
}

kern::BlockDistribution cosa_distribution(const CosaConfig& cfg, int ranks) {
    return kern::BlockDistribution::round_robin(cfg.blocks, ranks);
}

AppResult run_cosa(const arch::SystemSpec& sys, const CosaConfig& cfg) {
    ARMSTICE_CHECK(cfg.nodes >= 1, "bad cosa config");
    const int ppn = cfg.ranks_per_node > 0 ? cfg.ranks_per_node : sys.node.cores();
    const int ranks = cfg.nodes * ppn;
    const auto tc = arch::toolchain_for(sys.name, "cosa");
    const double eta = arch::calib::cosa_efficiency(sys);
    const auto dist = cosa_distribution(cfg, ranks);

    const double cells_per_block = static_cast<double>(cfg.total_cells) / cfg.blocks;
    const int snaps = cosa_snapshots(cfg);
    const double block_bytes = cells_per_block * snaps * 8.0 * kDoublesPerCellPerSnapshot;
    const double block_flops = cells_per_block * snaps * kFlopsPerCellPerSnapshot;

    // Inter-block halo: block faces exchange perimeter cells for every
    // snapshot at each of the ~3 multigrid transfer points per iteration.
    const double halo_bytes_per_block =
        std::sqrt(cells_per_block) * 4.0 * snaps * 5.0 * 8.0 * 3.0;

    // Blocks chain: block b talks to b-1/b+1; with round-robin ownership the
    // active ranks form a chain neighbourhood.
    const auto neighbors = simmpi::chain_neighbors(ranks, dist.active_ranks);
    std::vector<double> halo_bytes(static_cast<std::size_t>(ranks));
    for (std::size_t r = 0; r < halo_bytes.size(); ++r) {
        halo_bytes[r] = halo_bytes_per_block * dist.blocks_of[r];
    }

    simmpi::ProgramSet ps(ranks);
    ps.mark("cosa-hb-mg");
    for (int it = 0; it < cfg.iterations; ++it) {
        ps.compute_by_rank([&](int r) {
            const int nblocks = dist.blocks_of[static_cast<std::size_t>(r)];
            ComputePhase p;
            p.label = "hb-mg-iteration";
            p.flops = nblocks * block_flops;
            p.main_bytes = nblocks * block_bytes * kTouchesPerIteration;
            p.working_set = nblocks * block_bytes;
            p.pattern = MemPattern::stream;
            p.vector_fraction = 0.8;
            p.efficiency = eta;
            return p;
        });
        if (ranks > 1 && dist.active_ranks > 1) {
            ps.halo_exchange(neighbors, halo_bytes);
        }
        ps.allreduce(8);  // global residual monitor
    }

    // Capacity: the bottleneck node hosts the max-loaded ranks.
    AppResult out = run_on(sys, cfg.nodes, ranks, /*threads=*/1, tc.vec_quality,
                           std::move(ps),
                           cosa_bytes_per_rank(cfg, dist.max_blocks_per_rank),
                           cfg.knobs);
    return out;
}

} // namespace armstice::apps
