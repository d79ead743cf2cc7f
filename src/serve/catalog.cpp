#include "serve/catalog.hpp"

#include "apps/cosa/cosa.hpp"
#include "apps/minikab/minikab.hpp"
#include "apps/nekbone/nekbone.hpp"
#include "arch/system.hpp"
#include "core/app_codecs.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/str.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace armstice::serve {
namespace {

// ---- config-string parsing -------------------------------------------------
// "key=value;key=value" with strict validation: unknown keys, duplicate
// keys, empty fields, unparseable numbers and numbers the target field
// cannot hold all throw. The per-app
// canonical form writes every field in a fixed order with fixed formats, so
// canonical strings are unique per simulation.

std::map<std::string, std::string> parse_kv(const std::string& config) {
    std::map<std::string, std::string> kv;
    std::size_t pos = 0;
    while (pos < config.size()) {
        std::size_t end = config.find(';', pos);
        if (end == std::string::npos) end = config.size();
        const std::string field = config.substr(pos, end - pos);
        pos = end + 1;
        if (field.empty()) {
            throw util::Error("serve: empty config field in '" + config + "'");
        }
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == field.size()) {
            throw util::Error("serve: config field '" + field +
                              "' is not key=value");
        }
        const auto [it, inserted] =
            kv.emplace(field.substr(0, eq), field.substr(eq + 1));
        if (!inserted) {
            throw util::Error("serve: duplicate config key '" + it->first + "'");
        }
    }
    return kv;
}

/// Parse `key` as a base-10 integer into the field's type T. Values outside
/// [min_value, max of T] — including anything strtoll itself cannot hold —
/// are rejected, never wrapped or saturated into a different config.
template <class T>
T take_int(std::map<std::string, std::string>& kv, const std::string& key,
           T fallback, T min_value) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') {
        throw util::Error("serve: config key '" + key + "' has non-integer value '" +
                          s + "'");
    }
    kv.erase(it);
    constexpr long long kMax = std::numeric_limits<T>::max();
    if (errno == ERANGE || v < min_value || v > kMax) {
        throw util::Error(util::format("serve: config key '%s' must be in [%lld, %lld]",
                                       key.c_str(),
                                       static_cast<long long>(min_value), kMax));
    }
    return static_cast<T>(v);
}

/// Parse `key` as a finite double >= 0 (inf, nan and out-of-range
/// literals are rejected). -0 folds to +0, so both spellings of zero share
/// one canonical key.
double take_double(std::map<std::string, std::string>& kv, const std::string& key,
                   double fallback) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
        throw util::Error("serve: config key '" + key + "' has non-numeric value '" +
                          s + "'");
    }
    kv.erase(it);
    if (errno == ERANGE || !std::isfinite(v) || v < 0) {
        throw util::Error("serve: config key '" + key +
                          "' must be a finite number >= 0");
    }
    return v == 0.0 ? 0.0 : v;
}

void reject_leftovers(const std::map<std::string, std::string>& kv,
                      const std::string& app) {
    if (kv.empty()) return;
    std::vector<std::string> keys;
    keys.reserve(kv.size());
    for (const auto& [k, v] : kv) keys.push_back(k);
    throw util::Error("serve: unknown config key(s) for app '" + app +
                      "': " + util::join(keys, ", "));
}

// ---- per-app canonical configs ---------------------------------------------
// Each app's parse_* returns the fully-populated config struct; canonical_*
// renders it back in fixed order. The canonical string is what enters the
// SweepPoint key, so its format must never change silently (it plays the
// same role as experiments.cpp's sig_* helpers, with a distinct '='-based
// grammar so the two key families cannot collide).

apps::MinikabConfig parse_minikab(const PointSpec& spec) {
    auto kv = parse_kv(spec.config);
    apps::MinikabConfig cfg;
    cfg.rows = take_int(kv, "rows", cfg.rows, 1L);
    cfg.nnz = take_double(kv, "nnz", cfg.nnz);
    cfg.iterations = take_int(kv, "iters", cfg.iterations, 1);
    if (const auto it = kv.find("solver"); it != kv.end()) {
        if (it->second == "cg") {
            cfg.solver = apps::MinikabSolver::cg;
        } else if (it->second == "jacobi_pcg") {
            cfg.solver = apps::MinikabSolver::jacobi_pcg;
        } else if (it->second == "pipelined_cg") {
            cfg.solver = apps::MinikabSolver::pipelined_cg;
        } else {
            throw util::Error("serve: unknown minikab solver '" + it->second + "'");
        }
        kv.erase(it);
    }
    reject_leftovers(kv, spec.app);
    cfg.nodes = spec.nodes;
    cfg.ranks = spec.ranks;
    cfg.threads = spec.threads;
    return cfg;
}

std::string canonical_minikab(const apps::MinikabConfig& cfg) {
    return util::format("rows=%ld;nnz=%.17g;iters=%d;solver=%s", cfg.rows, cfg.nnz,
                        cfg.iterations, apps::minikab_solver_name(cfg.solver));
}

apps::NekboneConfig parse_nekbone(const PointSpec& spec) {
    auto kv = parse_kv(spec.config);
    apps::NekboneConfig cfg;
    cfg.elems_per_rank = take_int(kv, "elems", cfg.elems_per_rank, 1);
    cfg.nx1 = take_int(kv, "nx1", cfg.nx1, 2);
    cfg.cg_iters = take_int(kv, "iters", cfg.cg_iters, 1);
    cfg.fastmath = take_int(kv, "fastmath", cfg.fastmath ? 1 : 0, 0) != 0;
    reject_leftovers(kv, spec.app);
    cfg.nodes = spec.nodes;
    cfg.ranks = spec.ranks;
    return cfg;
}

std::string canonical_nekbone(const apps::NekboneConfig& cfg) {
    return util::format("elems=%d;nx1=%d;iters=%d;fastmath=%d", cfg.elems_per_rank,
                        cfg.nx1, cfg.cg_iters, cfg.fastmath ? 1 : 0);
}

apps::CosaConfig parse_cosa(const PointSpec& spec) {
    auto kv = parse_kv(spec.config);
    apps::CosaConfig cfg;
    cfg.blocks = take_int(kv, "blocks", cfg.blocks, 1);
    cfg.total_cells = take_int(kv, "cells", cfg.total_cells, 1L);
    cfg.harmonics = take_int(kv, "harmonics", cfg.harmonics, 0);
    cfg.iterations = take_int(kv, "iters", cfg.iterations, 1);
    reject_leftovers(kv, spec.app);
    cfg.nodes = spec.nodes;
    cfg.ranks_per_node = spec.ranks;  // spec.ranks carries ranks-per-node
    return cfg;
}

std::string canonical_cosa(const apps::CosaConfig& cfg) {
    return util::format("blocks=%d;cells=%ld;harmonics=%d;iters=%d", cfg.blocks,
                        cfg.total_cells, cfg.harmonics, cfg.iterations);
}

/// Only COSA gives 0 ranks a meaning (a full node); minikab and nekbone
/// points need at least one rank.
void check_placement(const PointSpec& spec) {
    const int min_ranks = spec.app == "cosa" ? 0 : 1;
    if (spec.nodes < 1 || spec.ranks < min_ranks || spec.threads < 1) {
        throw util::Error(util::format(
            "serve: bad placement n%d/r%d/t%d for app '%s' (nodes/threads >= 1, "
            "ranks >= %d)",
            spec.nodes, spec.ranks, spec.threads, spec.app.c_str(), min_ranks));
    }
}

/// Reject a point whose result could never be served: its per-rank stats
/// alone would exceed one frame. The codec always writes one 48-byte
/// RankStats per rank, expanding the result's runs, so the bound is exact.
/// Total ranks are spec.ranks, except for COSA, where spec.ranks is ranks
/// per node (0 = a full node).
void check_frame_bound(const PointSpec& spec, const arch::SystemSpec& sys) {
    long long ranks = spec.ranks;
    if (spec.app == "cosa") {
        ranks = static_cast<long long>(spec.nodes) *
                (spec.ranks > 0 ? spec.ranks : sys.node.cores());
    }
    constexpr long long kMaxRanks = kMaxFrame / core::kRankStatsWireBytes;
    if (ranks > kMaxRanks) {
        throw util::Error(util::format(
            "serve: point simulates %lld ranks; a served result holds at most %lld "
            "(%u bytes per rank, %u-byte frames)",
            ranks, kMaxRanks, core::kRankStatsWireBytes, kMaxFrame));
    }
}

} // namespace

const std::vector<std::string>& served_apps() {
    static const std::vector<std::string> apps_ = {"minikab", "nekbone", "cosa"};
    return apps_;
}

PointSpec canonicalize(const PointSpec& spec) {
    check_placement(spec);
    const arch::SystemSpec& sys = arch::system_by_name(spec.system);  // throws if unknown
    PointSpec out = spec;
    if (spec.app == "minikab") {
        out.config = canonical_minikab(parse_minikab(spec));
    } else if (spec.app == "nekbone") {
        out.threads = 1;  // nekbone is rank-parallel only
        out.config = canonical_nekbone(parse_nekbone(spec));
    } else if (spec.app == "cosa") {
        out.threads = 1;
        out.config = canonical_cosa(parse_cosa(spec));
    } else {
        throw util::Error("serve: unknown app '" + spec.app + "' (served: " +
                          util::join(served_apps(), ", ") + ")");
    }
    check_frame_bound(out, sys);
    return out;
}

core::SweepPoint to_sweep_point(const PointSpec& canonical) {
    return core::sweep_point(canonical.app, canonical.system, canonical.nodes,
                             canonical.ranks, canonical.threads, canonical.config);
}

apps::AppResult eval_point(const PointSpec& canonical) {
    const arch::SystemSpec& sys = arch::system_by_name(canonical.system);
    if (canonical.app == "minikab") {
        return apps::run_minikab(sys, parse_minikab(canonical));
    }
    if (canonical.app == "nekbone") {
        return apps::run_nekbone(sys, parse_nekbone(canonical));
    }
    if (canonical.app == "cosa") {
        return apps::run_cosa(sys, parse_cosa(canonical));
    }
    throw util::Error("serve: unknown app '" + canonical.app + "'");
}

std::vector<apps::AppResult> batch_eval(const std::vector<PointSpec>& specs,
                                        int jobs) {
    std::vector<PointSpec> canon;
    canon.reserve(specs.size());
    std::vector<core::SweepPoint> pts;
    pts.reserve(specs.size());
    for (const auto& s : specs) {
        canon.push_back(canonicalize(s));
        pts.push_back(to_sweep_point(canon.back()));
    }
    return core::SweepRunner(jobs).run<apps::AppResult>(
        pts, [&canon](const core::SweepPoint&, std::size_t i) {
            return eval_point(canon[i]);
        });
}

std::string encode_result(const apps::AppResult& r) {
    util::ByteWriter w;
    core::ResultTraits<apps::AppResult>::encode(w, r);
    return w.take();
}

apps::AppResult decode_result(const std::string& payload) {
    util::ByteReader r(payload);
    apps::AppResult v = core::ResultTraits<apps::AppResult>::decode(r);
    if (!r.at_end()) {
        throw util::Error("serve: malformed AppResult payload");
    }
    return v;
}

} // namespace armstice::serve
