// Wire-protocol round-trip and fuzz tests (DESIGN.md §14.1). Two invariants:
//
//   1. decode(encode(m)) reproduces m bit-identically for every frame type —
//      asserted by re-encoding the decoded message and comparing bytes, so
//      the check covers every field without a per-type operator==.
//   2. Decoding damaged bytes — truncations at every boundary, seeded
//      bit-flips, hostile lengths — always yields a typed DecodeStatus.
//      Never UB, never an exception, never a hang. The suite runs under
//      ASan/UBSan in CI (ARMSTICE_SANITIZE=ON), which turns "never UB" from
//      a hope into a gate.

#include "serve/protocol.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace as = armstice::serve;
namespace au = armstice::util;

namespace {

as::PointSpec spec(const std::string& app, int nodes, const std::string& cfg) {
    as::PointSpec p;
    p.app = app;
    p.system = "A64FX";
    p.nodes = nodes;
    p.ranks = 8 * nodes;
    p.threads = 3;
    p.config = cfg;
    return p;
}

/// One exemplar message per frame type, with every field non-default so a
/// dropped field cannot round-trip by accident.
std::vector<as::Message> corpus() {
    std::vector<as::Message> msgs;

    as::Message m;
    m.req_id = 7;
    m.body = as::Hello{1, 4, as::kMaxFrame};
    msgs.push_back(m);

    m.req_id = 0xdeadbeef;
    m.body = as::SweepRequest{{spec("minikab", 2, "rows=100000;iters=25"),
                               spec("nekbone", 4, "elems=8;nx1=10"),
                               spec("cosa", 1, "")}};
    msgs.push_back(m);

    m.req_id = 3;
    m.body = as::FigureRequest{5};
    msgs.push_back(m);

    m.req_id = 4;
    m.body = as::ScorecardRequest{};
    msgs.push_back(m);

    m.req_id = 5;
    m.body = as::StatsRequest{};
    msgs.push_back(m);

    m.req_id = 6;
    as::PointResult pr;
    pr.index = 17;
    pr.origin = as::PointOrigin::kCoalesced;
    pr.ok = true;
    pr.payload = std::string("\x00\x01\xff payload with NULs", 22);
    m.body = pr;
    msgs.push_back(m);

    m.req_id = 8;
    m.body = as::SweepDone{32, 5, 20, 7, 1};
    msgs.push_back(m);

    m.req_id = 9;
    m.body = as::FigureResult{2, "nodes,paper,model\n1,2.5,2.625\n"};
    msgs.push_back(m);

    m.req_id = 10;
    m.body = as::ScorecardResult{"== scorecard ==\nall good\n"};
    msgs.push_back(m);

    m.req_id = 11;
    as::StatsResult st;
    st.requests = 100;
    st.sweep_requests = 60;
    st.figure_requests = 20;
    st.scorecard_requests = 10;
    st.stats_requests = 10;
    st.points = 240;
    st.cache_hits = 100;
    st.coalesced = 80;
    st.computed = 55;
    st.point_errors = 5;
    st.retries = 3;
    st.protocol_errors = 2;
    st.sessions_opened = 12;
    st.sessions_active = 4;
    st.inflight = 6;
    st.uptime_s = 12.75;       // exactly representable: bit-exact round trip
    st.qps = 7.84375;
    st.rss_bytes = 123456789;
    m.body = st;
    msgs.push_back(m);

    m.req_id = 12;
    m.body = as::ErrorMsg{as::ErrorCode::kBadRequest, "unknown app 'hpl'"};
    msgs.push_back(m);

    m.req_id = 13;
    m.body = as::RetryLater{64, 64};
    msgs.push_back(m);

    return msgs;
}

} // namespace

TEST(ServeProtocol, EveryFrameTypeRoundTripsBitIdentical) {
    const auto msgs = corpus();
    ASSERT_EQ(msgs.size(), 12u) << "corpus must cover every FrameType";
    for (const auto& m : msgs) {
        const std::string bytes = as::encode_message(m);
        as::Message back;
        ASSERT_EQ(as::decode_message(bytes, back), as::DecodeStatus::kOk)
            << "frame type " << static_cast<int>(m.type());
        EXPECT_EQ(back.req_id, m.req_id);
        EXPECT_EQ(back.type(), m.type());
        // Re-encoding the decode must reproduce the original bytes exactly:
        // every field of every body survived.
        EXPECT_EQ(as::encode_message(back), bytes)
            << "frame type " << static_cast<int>(m.type());
    }
}

TEST(ServeProtocol, FrameTypeNumberingMatchesVariantOrder) {
    const auto msgs = corpus();
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(msgs[i].type()), i + 1);
    }
}

TEST(ServeProtocol, EmptyPayloadIsTyped) {
    as::Message out;
    EXPECT_EQ(as::decode_message("", out), as::DecodeStatus::kEmptyFrame);
}

TEST(ServeProtocol, UnknownFrameTypeIsTyped) {
    for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{13},
                                    std::uint8_t{200}, std::uint8_t{255}}) {
        std::string bytes;
        bytes.push_back(static_cast<char>(type));
        bytes += std::string(4, '\0');  // req_id
        as::Message out;
        EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kUnknownType)
            << "type byte " << static_cast<int>(type);
    }
}

TEST(ServeProtocol, TrailingBytesAreTyped) {
    for (const auto& m : corpus()) {
        as::Message out;
        EXPECT_EQ(as::decode_message(as::encode_message(m) + '\0', out),
                  as::DecodeStatus::kTrailingBytes)
            << "frame type " << static_cast<int>(m.type());
    }
}

TEST(ServeProtocol, EveryTruncationIsTyped) {
    // Chop every message at every byte boundary: each prefix must decode to
    // a typed error (usually kTruncated; a 0-byte prefix is kEmptyFrame) —
    // and must not touch `out`.
    for (const auto& m : corpus()) {
        const std::string bytes = as::encode_message(m);
        for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
            as::Message out;
            out.req_id = 0xabad1dea;
            const as::DecodeStatus st =
                as::decode_message(bytes.substr(0, keep), out);
            EXPECT_NE(st, as::DecodeStatus::kOk)
                << "frame type " << static_cast<int>(m.type()) << " kept "
                << keep << "/" << bytes.size();
            EXPECT_EQ(out.req_id, 0xabad1dea) << "out mutated on failure";
        }
    }
}

TEST(ServeProtocol, SeededBitFlipsNeverEscapeTheTypedStatus) {
    // 2000 seeded mutations per frame type: flip 1-4 bits/bytes anywhere in
    // the payload. Decode must return *some* status; when it claims kOk the
    // decoded message must re-encode cleanly (i.e. it is a real message).
    // ASan/UBSan turn any out-of-bounds read or UB into a test failure.
    au::Rng rng(0xf1Ae5);
    for (const auto& m : corpus()) {
        const std::string bytes = as::encode_message(m);
        for (int trial = 0; trial < 2000; ++trial) {
            std::string mutated = bytes;
            const int flips = 1 + static_cast<int>(rng.next_below(4));
            for (int f = 0; f < flips; ++f) {
                const std::size_t pos =
                    static_cast<std::size_t>(rng.next_below(mutated.size()));
                mutated[pos] = static_cast<char>(
                    static_cast<unsigned char>(mutated[pos]) ^
                    (1u << rng.next_below(8)));
            }
            as::Message out;
            const as::DecodeStatus st = as::decode_message(mutated, out);
            if (st == as::DecodeStatus::kOk) {
                const std::string re = as::encode_message(out);
                EXPECT_EQ(re.size(), mutated.size());
            }
        }
    }
}

TEST(ServeProtocol, SeededTruncationPlusFlipCorpus) {
    // Combined damage: truncate to a random prefix, then flip a byte inside
    // what remains. The decoder must stay inside the typed-status contract.
    au::Rng rng(0x70ca7e);
    for (const auto& m : corpus()) {
        const std::string bytes = as::encode_message(m);
        for (int trial = 0; trial < 500; ++trial) {
            const std::size_t keep =
                static_cast<std::size_t>(rng.next_below(bytes.size() + 1));
            std::string mutated = bytes.substr(0, keep);
            if (!mutated.empty()) {
                const std::size_t pos =
                    static_cast<std::size_t>(rng.next_below(mutated.size()));
                mutated[pos] = static_cast<char>(
                    static_cast<unsigned char>(mutated[pos]) ^
                    (1u << rng.next_below(8)));
            }
            as::Message out;
            const as::DecodeStatus st = as::decode_message(mutated, out);
            if (st == as::DecodeStatus::kOk) {
                EXPECT_EQ(as::encode_message(out).size(), mutated.size());
            }
        }
    }
}

TEST(ServeProtocol, HostilePointCountCannotDriveAllocation) {
    // A SweepRequest claiming 2^32-1 points trips the hard per-request bound
    // before anything is reserved.
    std::string bytes;
    bytes.push_back(static_cast<char>(as::FrameType::kSweepRequest));
    bytes += std::string(4, '\0');                       // req_id
    bytes += std::string("\xff\xff\xff\xff", 4);         // point count
    as::Message out;
    EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kBadValue);

    // An in-bounds count whose specs cannot possibly fit the buffer trips
    // the allocation guard instead: the reserve() is bounded by what the
    // bytes can actually hold.
    const std::uint32_t n = as::kMaxPointsPerRequest;
    std::string guard;
    guard.push_back(static_cast<char>(as::FrameType::kSweepRequest));
    guard += std::string(4, '\0');
    for (int i = 0; i < 4; ++i) {
        guard.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
    }
    EXPECT_EQ(as::decode_message(guard, out), as::DecodeStatus::kTruncated);
}

TEST(ServeProtocol, ZeroAndOversizedPointCountsAreBadValues) {
    {
        std::string bytes;
        bytes.push_back(static_cast<char>(as::FrameType::kSweepRequest));
        bytes += std::string(4, '\0');    // req_id
        bytes += std::string(4, '\0');    // point count 0
        as::Message out;
        EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kBadValue);
    }
    {
        // kMaxPointsPerRequest+1, with enough buffer that the allocation
        // guard is not what trips first.
        const std::uint32_t n = as::kMaxPointsPerRequest + 1;
        std::string bytes;
        bytes.push_back(static_cast<char>(as::FrameType::kSweepRequest));
        bytes += std::string(4, '\0');
        for (int i = 0; i < 4; ++i) {
            bytes.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
        }
        bytes += std::string(static_cast<std::size_t>(n) * 22, '\0');
        as::Message out;
        EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kBadValue);
    }
}

TEST(ServeProtocol, ImpossibleEnumValuesAreBadValues) {
    {
        // PointResult with origin byte 3 (> kComputed).
        as::Message m;
        m.req_id = 1;
        as::PointResult pr;
        pr.index = 0;
        pr.origin = as::PointOrigin::kCached;
        pr.payload = "x";
        m.body = pr;
        std::string bytes = as::encode_message(m);
        bytes[5 + 4] = 3;  // header(5) + index(4) -> origin byte
        as::Message out;
        EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kBadValue);
    }
    {
        // ErrorMsg with code 0 and code kInternal+1.
        for (const std::uint32_t code : {0u, 6u}) {
            as::Message m;
            m.req_id = 1;
            m.body = as::ErrorMsg{as::ErrorCode::kBadFrame, "text"};
            std::string bytes = as::encode_message(m);
            for (int i = 0; i < 4; ++i) {
                bytes[5 + i] = static_cast<char>((code >> (8 * i)) & 0xff);
            }
            as::Message out;
            EXPECT_EQ(as::decode_message(bytes, out), as::DecodeStatus::kBadValue)
                << "code " << code;
        }
    }
}

TEST(ServeProtocol, OversizedPayloadIsTyped) {
    // decode_message itself enforces kMaxFrame for callers that bypass
    // read_frame's early rejection.
    const std::string big(as::kMaxFrame + 1, 'x');
    as::Message out;
    EXPECT_EQ(as::decode_message(big, out), as::DecodeStatus::kOversized);
}

TEST(ServeProtocol, LargestPointPayloadFillsExactlyOneFrame) {
    as::Message m;
    m.req_id = 7;
    as::PointResult pr;
    pr.payload.assign(as::kMaxPointPayload, 'x');
    m.body = pr;
    EXPECT_EQ(as::encode_message(m).size(), as::kMaxFrame);
}
