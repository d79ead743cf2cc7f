#include "simmpi/minimpi.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <unordered_map>
#include <utility>

namespace armstice::simmpi {
namespace {

/// Splits every class whose members disagree on a per-rank variant.
/// `variant_of(r)` is called once per rank, in rank order, and `same(a, b)`
/// compares two variants. Each rank is compared with its class's first
/// member first, so an op on which every class agrees costs one comparison
/// per rank. Members that match the first member keep the class; each
/// further variant becomes a new class whose program is a copy of the
/// class's program so far. Returns every class's variant, by class index.
/// If `variant_of` throws, the class index is restored and nothing is copied.
template <typename V, typename VariantOf, typename Same>
std::vector<V> regroup(std::vector<sim::Program>& classes,
                       std::vector<std::uint32_t>& class_of,
                       const VariantOf& variant_of, const Same& same) {
    constexpr std::uint32_t kUnseen = UINT32_MAX;
    constexpr std::uint32_t kLast = UINT32_MAX - 1;
    const auto first_new = static_cast<std::uint32_t>(classes.size());
    std::vector<V> variants(classes.size());
    // next[k]: the next class split off the same class as k (kLast ends the
    // chain); kUnseen marks a class none of whose members was seen yet.
    std::vector<std::uint32_t> next(classes.size(), kUnseen);
    std::vector<std::uint32_t> source;  // new class first_new + i copies source[i]
    try {
        for (std::size_t r = 0; r < class_of.size(); ++r) {
            const std::uint32_t c = class_of[r];
            V v = variant_of(static_cast<int>(r));
            if (next[c] == kUnseen) {
                variants[c] = std::move(v);
                next[c] = kLast;
                continue;
            }
            std::uint32_t k = c;
            while (!same(v, variants[k])) {
                if (next[k] == kLast) {
                    const auto added = static_cast<std::uint32_t>(variants.size());
                    next[k] = added;
                    variants.push_back(std::move(v));
                    next.push_back(kLast);
                    source.push_back(c);
                    k = added;
                    break;
                }
                k = next[k];
            }
            class_of[r] = k;
        }
    } catch (...) {
        for (auto& c : class_of) {
            if (c >= first_new) c = source[c - first_new];
        }
        throw;
    }
    classes.reserve(variants.size());
    for (const std::uint32_t c : source) classes.push_back(classes[c]);
    return variants;
}

/// Appends a halo exchange over `graph`; `bytes(r)` is what rank r sends to
/// each of its neighbours. Emits *relative* p2p ops (dst/src as rank
/// offsets): the offsets are the neighbour relationship itself, so every
/// interior rank of a Cartesian halo builds the same program and stays in
/// one class, and the engine's rank-equivalence collapse (DESIGN.md §11)
/// executes the whole interior as O(surface) merged classes instead of
/// O(ranks) singletons — the simulated timings are identical to the
/// absolute form either way.
template <typename Bytes>
void emit_halo(std::vector<sim::Program>& classes,
               std::vector<std::uint32_t>& class_of, const HaloGraph& graph,
               const Bytes& bytes, int tag) {
    // A rank's variant is its shape plus its byte count, compared bitwise as
    // Program::structure_hash sees it. A rank without neighbours appends
    // nothing, so its byte count must not split its class. The variant is
    // the rank itself; ranks are compared through the graph.
    const auto same = [&](int a, int b) {
        return graph.shape_of(a) == graph.shape_of(b) &&
               (graph.neighbors(a).empty() ||
                std::bit_cast<std::uint64_t>(bytes(a)) ==
                    std::bit_cast<std::uint64_t>(bytes(b)));
    };
    const std::vector<int> reps =
        regroup<int>(classes, class_of, [](int r) { return r; }, same);
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const int r = reps[c];
        const double b = bytes(r);
        // All sends first, then one receive per inbound edge.
        for (const int n : graph.neighbors(r)) classes[c].send_rel(n - r, b, tag);
        for (const int n : graph.neighbors(r)) classes[c].recv_rel(n - r, tag);
    }
}

/// Hash of a rank's ordered offset list, for numbering shapes.
struct OffsetsHash {
    std::size_t operator()(const std::vector<int>& offsets) const {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const int o : offsets) {
            h ^= static_cast<std::uint32_t>(o);
            h *= 0x100000001b3ULL;
        }
        return static_cast<std::size_t>(h);
    }
};

} // namespace

HaloGraph::HaloGraph(const std::vector<std::vector<int>>& neighbors) {
    for (const auto& nb : neighbors) {
        adj_.insert(adj_.end(), nb.begin(), nb.end());
        begin_.push_back(adj_.size());
    }
    finish();
}

void HaloGraph::finish() {
    const auto n = static_cast<int>(begin_.size() - 1);
    // Every neighbour a rank, listed once, and every edge symmetric: a rank
    // receives from everyone it sends to (the apps in this repo all use
    // symmetric halo graphs).
    for (int r = 0; r < n; ++r) {
        const auto nb = neighbors(r);
        for (auto it = nb.begin(); it != nb.end(); ++it) {
            ARMSTICE_CHECK(*it >= 0 && *it < n, "neighbor out of range");
            ARMSTICE_CHECK(std::find(nb.begin(), it, *it) == it,
                           "neighbor listed twice in one list");
            const auto back = neighbors(*it);
            ARMSTICE_CHECK(std::find(back.begin(), back.end(), r) != back.end(),
                           "halo graph must be symmetric");
        }
    }
    std::unordered_map<std::vector<int>, std::uint32_t, OffsetsHash> ids;
    std::vector<int> offsets;
    shape_of_.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        offsets.clear();
        for (const int m : neighbors(r)) offsets.push_back(m - r);
        const auto [it, added] =
            ids.try_emplace(offsets, static_cast<std::uint32_t>(first_of_shape_.size()));
        if (added) first_of_shape_.push_back(r);
        shape_of_[static_cast<std::size_t>(r)] = it->second;
    }
}

ProgramSet::ProgramSet(int ranks) {
    ARMSTICE_CHECK(ranks >= 1, "ProgramSet needs >=1 rank");
    classes_.resize(1);
    class_of_.assign(static_cast<std::size_t>(ranks), 0);
}

ProgramSet& ProgramSet::compute(const arch::ComputePhase& phase) {
    const sim::PhaseId id = sim::intern_phase_label(phase.label);
    const std::uint64_t key = arch::cost_signature(phase);
    for (auto& p : classes_) p.compute(phase, id, key);
    return *this;
}

ProgramSet& ProgramSet::compute_by_rank(
    const std::function<arch::ComputePhase(int)>& make_phase) {
    // Phase content is what ProgramBundle::from compares: cost inputs and label.
    auto phases = regroup<arch::ComputePhase>(
        classes_, class_of_, make_phase,
        [](const arch::ComputePhase& a, const arch::ComputePhase& b) {
            return arch::same_cost_inputs(a, b) && a.label == b.label;
        });
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        classes_[c].compute(phases[c]);
    }
    return *this;
}

ProgramSet& ProgramSet::allreduce(double bytes) {
    for (auto& p : classes_) p.allreduce(bytes);
    return *this;
}

ProgramSet& ProgramSet::barrier() {
    for (auto& p : classes_) p.barrier();
    return *this;
}

ProgramSet& ProgramSet::alltoall(double bytes_each) {
    for (auto& p : classes_) p.alltoall(bytes_each);
    return *this;
}

ProgramSet& ProgramSet::mark(const std::string& label) {
    const sim::PhaseId id = sim::intern_phase_label(label);
    for (auto& p : classes_) p.ops.emplace_back(sim::MarkOp{id});
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const HaloGraph& graph, double bytes_per_neighbor,
                                      int tag) {
    ARMSTICE_CHECK(graph.ranks() == ranks(), "halo graph must cover all ranks");
    emit_halo(classes_, class_of_, graph, [bytes_per_neighbor](int) { return bytes_per_neighbor; },
              tag);
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const HaloGraph& graph, const std::vector<double>& bytes,
                                      int tag) {
    ARMSTICE_CHECK(graph.ranks() == ranks(), "halo graph must cover all ranks");
    ARMSTICE_CHECK(bytes.size() == class_of_.size(), "halo bytes need one value per rank");
    emit_halo(classes_, class_of_, graph,
              [&bytes](int r) { return bytes[static_cast<std::size_t>(r)]; }, tag);
    return *this;
}

std::vector<sim::Program> ProgramSet::take() {
    std::vector<sim::Program> out;
    out.reserve(class_of_.size());
    for (const std::uint32_t c : class_of_) out.push_back(classes_[c]);
    classes_.clear();
    class_of_.clear();
    return out;
}

sim::ProgramBundle ProgramSet::take_bundle() {
    // Renumber classes by first appearance in rank order, the order
    // ProgramBundle::from(take()) would find them in. Classes are distinct
    // by construction (they split only where their programs differ), so no
    // program is hashed or compared.
    constexpr std::uint32_t kUnseen = UINT32_MAX;
    std::vector<std::uint32_t> renumber(classes_.size(), kUnseen);
    std::vector<sim::Program> distinct;
    distinct.reserve(classes_.size());
    for (std::uint32_t& c : class_of_) {
        if (renumber[c] == kUnseen) {
            renumber[c] = static_cast<std::uint32_t>(distinct.size());
            distinct.push_back(std::move(classes_[c]));
        }
        c = renumber[c];
    }
    classes_.clear();
    return sim::ProgramBundle::classes(std::move(distinct), std::exchange(class_of_, {}));
}

long chunk_size(long n, int p, int i) {
    ARMSTICE_CHECK(p >= 1 && i >= 0 && i < p, "bad chunk index");
    const long base = n / p;
    return base + (i < n % p ? 1 : 0);
}

long chunk_begin(long n, int p, int i) {
    ARMSTICE_CHECK(p >= 1 && i >= 0 && i < p, "bad chunk index");
    const long base = n / p;
    const long extra = n % p;
    return i * base + std::min<long>(i, extra);
}

std::vector<int> dims_create(int p, int ndims) {
    ARMSTICE_CHECK(p >= 1 && ndims >= 1, "bad dims_create input");
    std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
    // Collect prime factors, then greedily assign the largest remaining
    // factor to the smallest dimension (MPI_Dims_create's balanced shape:
    // 48 -> 4x4x3, not 6x4x2).
    std::vector<int> factors;
    int rest = p;
    for (int f = 2; rest > 1;) {
        if (rest % f == 0) {
            factors.push_back(f);
            rest /= f;
        } else {
            ++f;
        }
    }
    std::sort(factors.begin(), factors.end(), std::greater<int>());
    for (int f : factors) {
        *std::min_element(dims.begin(), dims.end()) *= f;
    }
    std::sort(dims.begin(), dims.end(), std::greater<int>());
    return dims;
}

HaloGraph cart_neighbors(const std::vector<int>& dims, bool periodic) {
    int p = 1;
    for (const int d : dims) {
        ARMSTICE_CHECK(d >= 1, "bad cart dims");
        ARMSTICE_CHECK(p <= INT_MAX / d, "cart dims product exceeds INT_MAX ranks");
        p *= d;
    }
    // Rank r has coordinate r / stride % d along a dim of extent d, where
    // stride is the product of the lower dims; stepping that coordinate from
    // c to w moves the rank by (w - c) * stride.
    const auto split_dims = std::count_if(dims.begin(), dims.end(), [](int d) { return d > 1; });
    HaloGraph g;
    g.begin_.reserve(static_cast<std::size_t>(p) + 1);
    g.adj_.reserve(static_cast<std::size_t>(p) * 2 * static_cast<std::size_t>(split_dims));
    for (int r = 0; r < p; ++r) {
        const auto first = static_cast<std::ptrdiff_t>(g.adj_.size());
        int stride = 1;
        for (const int d : dims) {
            const int c = r / stride % d;
            if (d > 1) {
                for (int w : {c - 1, c + 1}) {
                    if (w < 0 || w >= d) {
                        if (!periodic) continue;
                        w = (w + d) % d;
                    }
                    g.adj_.push_back(r + (w - c) * stride);
                }
            }
            stride *= d;
        }
        // Periodic dims of size 2 produce the same neighbour twice; dedupe.
        const auto nb = g.adj_.begin() + first;
        std::sort(nb, g.adj_.end());
        g.adj_.erase(std::unique(nb, g.adj_.end()), g.adj_.end());
        g.begin_.push_back(g.adj_.size());
    }
    g.finish();
    return g;
}

HaloGraph chain_neighbors(int ranks, int active) {
    ARMSTICE_CHECK(ranks >= 1, "chain_neighbors needs >=1 rank");
    if (active < 0) active = ranks;
    ARMSTICE_CHECK(active <= ranks, "active ranks exceed rank count");
    HaloGraph g;
    g.begin_.reserve(static_cast<std::size_t>(ranks) + 1);
    for (int r = 0; r < ranks; ++r) {
        if (r < active) {
            if (r > 0) g.adj_.push_back(r - 1);
            if (r + 1 < active) g.adj_.push_back(r + 1);
        }
        g.begin_.push_back(g.adj_.size());
    }
    g.finish();
    return g;
}

} // namespace armstice::simmpi
