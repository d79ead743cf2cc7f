#include "simmpi/minimpi.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <bit>
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

/// The checks every halo_exchange call makes on its graph: one neighbour
/// list per rank, every neighbour a rank, and every edge symmetric (a rank
/// receives from everyone it sends to; the apps in this repo all use
/// symmetric halo graphs).
void check_halo_graph(const std::vector<std::vector<int>>& neighbors, int ranks) {
    ARMSTICE_CHECK(static_cast<int>(neighbors.size()) == ranks,
                   "neighbor lists must cover all ranks");
    for (const auto& nb : neighbors) {
        for (const int n : nb) {
            ARMSTICE_CHECK(n >= 0 && n < ranks, "neighbor out of range");
        }
    }
    for (int r = 0; r < ranks; ++r) {
        for (const int n : neighbors[static_cast<std::size_t>(r)]) {
            const auto& back = neighbors[static_cast<std::size_t>(n)];
            ARMSTICE_CHECK(std::find(back.begin(), back.end(), r) != back.end(),
                           "halo graph must be symmetric");
        }
    }
}

/// Appends a halo exchange over an already checked graph; `bytes(r, i)` is
/// what rank r sends to neighbors[r][i]. Emits *relative* p2p ops (dst/src
/// as rank offsets): the offsets are the neighbour relationship itself, so
/// every interior rank of a Cartesian halo builds the same program and stays
/// in one class, and the engine's rank-equivalence collapse (DESIGN.md §11)
/// executes the whole interior as O(surface) merged classes instead of
/// O(ranks) singletons — the simulated timings are identical to the
/// absolute form either way.
template <typename Bytes>
void emit_halo(std::vector<sim::Program>& classes,
               std::vector<std::uint32_t>& class_of,
               const std::vector<std::vector<int>>& neighbors, const Bytes& bytes,
               int tag) {
    // A rank's variant is its ordered (offset, bytes) list, bytes compared
    // bitwise as Program::structure_hash sees them. The variant is the rank
    // itself; ranks are compared through the graph.
    const auto same = [&](int a, int b) {
        const auto& na = neighbors[static_cast<std::size_t>(a)];
        const auto& nb = neighbors[static_cast<std::size_t>(b)];
        if (na.size() != nb.size()) return false;
        for (std::size_t i = 0; i < na.size(); ++i) {
            if (na[i] - a != nb[i] - b ||
                std::bit_cast<std::uint64_t>(bytes(a, i)) !=
                    std::bit_cast<std::uint64_t>(bytes(b, i))) {
                return false;
            }
        }
        return true;
    };
    const std::vector<int> reps =
        regroup<int>(classes, class_of, [](int r) { return r; }, same);
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const int r = reps[c];
        const auto& nb = neighbors[static_cast<std::size_t>(r)];
        // All sends first, then one receive per inbound edge.
        for (std::size_t i = 0; i < nb.size(); ++i) {
            classes[c].send_rel(nb[i] - r, bytes(r, i), tag);
        }
        for (const int n : nb) classes[c].recv_rel(n - r, tag);
    }
}

} // namespace

ProgramSet::ProgramSet(int ranks) {
    ARMSTICE_CHECK(ranks >= 1, "ProgramSet needs >=1 rank");
    classes_.resize(1);
    class_of_.assign(static_cast<std::size_t>(ranks), 0);
}

ProgramSet& ProgramSet::compute(const arch::ComputePhase& phase) {
    for (auto& p : classes_) p.compute(phase);
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
        classes_[c].compute(std::move(phases[c]));
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
    for (auto& p : classes_) p.mark(label);
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const std::vector<std::vector<int>>& neighbors,
                                      const std::vector<std::vector<double>>& bytes,
                                      int tag) {
    check_halo_graph(neighbors, ranks());
    ARMSTICE_CHECK(bytes.size() == neighbors.size(), "bytes lists must match");
    for (std::size_t r = 0; r < neighbors.size(); ++r) {
        ARMSTICE_CHECK(neighbors[r].size() == bytes[r].size(),
                       "neighbor/bytes length mismatch");
    }
    emit_halo(classes_, class_of_, neighbors,
              [&bytes](int r, std::size_t i) {
                  return bytes[static_cast<std::size_t>(r)][i];
              },
              tag);
    return *this;
}

ProgramSet& ProgramSet::halo_exchange(const std::vector<std::vector<int>>& neighbors,
                                      double bytes_per_neighbor, int tag) {
    check_halo_graph(neighbors, ranks());
    emit_halo(classes_, class_of_, neighbors,
              [bytes_per_neighbor](int, std::size_t) { return bytes_per_neighbor; },
              tag);
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

std::vector<std::vector<int>> cart_neighbors(const std::vector<int>& dims,
                                             bool periodic) {
    int p = 1;
    for (int d : dims) {
        ARMSTICE_CHECK(d >= 1, "bad cart dims");
        p *= d;
    }
    // Rank r has coordinate r / stride % d along a dim of extent d, where
    // stride is the product of the lower dims; stepping that coordinate from
    // c to w moves the rank by (w - c) * stride.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
        auto& v = out[static_cast<std::size_t>(r)];
        int stride = 1;
        for (const int d : dims) {
            const int c = r / stride % d;
            if (d > 1) {
                for (int w : {c - 1, c + 1}) {
                    if (w < 0 || w >= d) {
                        if (!periodic) continue;
                        w = (w + d) % d;
                    }
                    v.push_back(r + (w - c) * stride);
                }
            }
            stride *= d;
        }
        // Periodic dims of size 2 produce the same neighbour twice; dedupe.
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    return out;
}

std::vector<std::vector<int>> chain_neighbors(int ranks, int active) {
    ARMSTICE_CHECK(ranks >= 1, "chain_neighbors needs >=1 rank");
    if (active < 0) active = ranks;
    ARMSTICE_CHECK(active <= ranks, "active ranks exceed rank count");
    std::vector<std::vector<int>> out(static_cast<std::size_t>(ranks));
    for (int r = 0; r < active; ++r) {
        if (r > 0) out[static_cast<std::size_t>(r)].push_back(r - 1);
        if (r + 1 < active) out[static_cast<std::size_t>(r)].push_back(r + 1);
    }
    return out;
}

} // namespace armstice::simmpi
