#pragma once
// ResultTraits specialisations (core/cache_codec.hpp) for every application
// result type that flows through SweepRunner — these are what make the
// paper's sweeps persistently cacheable. Include this header in EVERY
// translation unit that instantiates SweepRunner::run with one of these
// types (experiments.cpp, score.cpp, the ext benches via bench_common.hpp,
// the cache tests): the tag and codec must be identical everywhere.
//
// Layout-change rule: any field added to / removed from AppResult,
// sim::RunResult, sim::RankStats, HpcgOutcome, CastepOutcome or ScoreEntry
// must bump the corresponding tag (e.g. "app-result" -> "app-result2");
// stale on-disk entries then miss by key instead of decoding garbage.

#include "apps/castep/castep.hpp"
#include "apps/common.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "core/cache_codec.hpp"
#include "core/score.hpp"
#include "sim/engine.hpp"

#include <cstdint>
#include <utility>

namespace armstice::core {

/// Encoded size of one sim::RankStats inside a RunResult (five f64, two
/// i32): every simulated rank adds exactly this many bytes to a result.
inline constexpr std::uint32_t kRankStatsWireBytes = 48;

namespace codec_detail {

/// Writes one RankStats per rank, expanding each RankTable run: the layout
/// predates run-length tables, so committed goldens and cached entries keep
/// their bytes and tags. Every served result is one run per rank anyway
/// (served points cannot turn OS noise off), so a run layout would save
/// nothing on the wire (DESIGN.md §7.1).
inline void encode_run_result(util::ByteWriter& w, const sim::RunResult& r) {
    w.f64(r.makespan);
    w.f64(r.total_flops);
    w.u32(static_cast<std::uint32_t>(r.ranks.size()));
    for (const auto& rs : r.ranks) {
        w.f64(rs.finish);
        w.f64(rs.compute);
        w.f64(rs.recv_wait);
        w.f64(rs.collective_wait);
        w.f64(rs.injected_bytes);
        w.i32(rs.msgs_sent);
        w.i32(rs.msgs_received);
    }
    w.u32(static_cast<std::uint32_t>(r.phase_compute.size()));
    for (const auto& [label, seconds] : r.phase_compute) {  // std::map: sorted
        w.str(label);
        w.f64(seconds);
    }
}

inline sim::RunResult decode_run_result(util::ByteReader& r) {
    sim::RunResult out;
    out.makespan = r.f64();
    out.total_flops = r.f64();
    const std::uint32_t nranks = r.u32();
    // Guard the reserve: a corrupt count must not balloon allocation. Each
    // rank costs exactly kRankStatsWireBytes, so remaining() bounds the count.
    if (static_cast<std::uint64_t>(nranks) * kRankStatsWireBytes > r.remaining()) {
        r.invalidate();
        return out;
    }
    out.ranks.reserve(nranks);
    for (std::uint32_t i = 0; i < nranks && r.ok(); ++i) {
        sim::RankStats rs;
        rs.finish = r.f64();
        rs.compute = r.f64();
        rs.recv_wait = r.f64();
        rs.collective_wait = r.f64();
        rs.injected_bytes = r.f64();
        rs.msgs_sent = r.i32();
        rs.msgs_received = r.i32();
        out.ranks.append(rs);  // equal neighbours merge
    }
    const std::uint32_t nphases = r.u32();
    for (std::uint32_t i = 0; i < nphases && r.ok(); ++i) {
        std::string label = r.str();
        const double seconds = r.f64();
        out.phase_compute.emplace(std::move(label), seconds);
    }
    return out;
}

inline void encode_app_result(util::ByteWriter& w, const apps::AppResult& v) {
    w.boolean(v.feasible);
    w.str(v.note);
    w.f64(v.seconds);
    w.f64(v.gflops);
    encode_run_result(w, v.run);
}

inline apps::AppResult decode_app_result(util::ByteReader& r) {
    apps::AppResult v;
    v.feasible = r.boolean();
    v.note = r.str();
    v.seconds = r.f64();
    v.gflops = r.f64();
    v.run = decode_run_result(r);
    return v;
}

} // namespace codec_detail

template <>
struct ResultTraits<apps::AppResult> {
    static constexpr const char* tag = "app-result";
    static void encode(util::ByteWriter& w, const apps::AppResult& v) {
        codec_detail::encode_app_result(w, v);
    }
    static apps::AppResult decode(util::ByteReader& r) {
        return codec_detail::decode_app_result(r);
    }
};

template <>
struct ResultTraits<apps::HpcgOutcome> {
    static constexpr const char* tag = "hpcg-outcome";
    static void encode(util::ByteWriter& w, const apps::HpcgOutcome& v) {
        codec_detail::encode_app_result(w, v.res);
        w.f64(v.pct_peak);
    }
    static apps::HpcgOutcome decode(util::ByteReader& r) {
        apps::HpcgOutcome v;
        v.res = codec_detail::decode_app_result(r);
        v.pct_peak = r.f64();
        return v;
    }
};

template <>
struct ResultTraits<apps::CastepOutcome> {
    static constexpr const char* tag = "castep-outcome";
    static void encode(util::ByteWriter& w, const apps::CastepOutcome& v) {
        codec_detail::encode_app_result(w, v.res);
        w.f64(v.scf_cycles_per_s);
    }
    static apps::CastepOutcome decode(util::ByteReader& r) {
        apps::CastepOutcome v;
        v.res = codec_detail::decode_app_result(r);
        v.scf_cycles_per_s = r.f64();
        return v;
    }
};

template <>
struct ResultTraits<ScoreEntry> {
    static constexpr const char* tag = "score-entry";
    static void encode(util::ByteWriter& w, const ScoreEntry& v) {
        w.str(v.artefact);
        w.i32(v.points);
        w.i32(v.within_5pct);
        w.i32(v.within_20pct);
        w.f64(v.geomean_ratio);
        w.f64(v.max_rel_err);
        w.boolean(v.shape_ok);
        w.str(v.shape_note);
    }
    static ScoreEntry decode(util::ByteReader& r) {
        ScoreEntry v;
        v.artefact = r.str();
        v.points = r.i32();
        v.within_5pct = r.i32();
        v.within_20pct = r.i32();
        v.geomean_ratio = r.f64();
        v.max_rel_err = r.f64();
        v.shape_ok = r.boolean();
        v.shape_note = r.str();
        return v;
    }
};

} // namespace armstice::core
