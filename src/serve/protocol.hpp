#pragma once
// Wire protocol of the serve daemon (DESIGN.md §14): length-prefixed binary
// frames over a stream socket, built on the same util::ByteWriter/ByteReader
// the persistent cache uses — fixed little-endian layout, bit-exact doubles.
//
//   frame    := u32 payload_len | payload           (len excludes itself)
//   payload  := u8 frame_type | u32 req_id | body   (body per frame type)
//
// Hard framing rules (enforced before any body parsing, tested by
// tests/serve/test_protocol.cpp):
//   * payload_len == 0 is malformed (every payload has >= 5 header bytes);
//   * payload_len > kMaxFrame is malformed and the body is never read, so a
//     hostile length cannot drive allocation;
//   * decode of a complete payload must consume it exactly — truncation and
//     trailing bytes are both typed errors, never UB, never an exception.
//
// Every message owns its bytes; decode(encode(m)) round-trips bit-identical
// for all frame types (the protocol round-trip tests assert byte equality
// of re-encoding). req_id is chosen by the client and echoed by the server
// on every frame belonging to that request.

#include "serve/catalog.hpp"
#include "util/serialize.hpp"
#include "util/socket.hpp"

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace armstice::serve {

/// Protocol version spoken by this build; bumped on any wire layout change.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Largest accepted payload (frame minus length prefix). Result payloads
/// are ~50 B/rank, so this comfortably fits multi-thousand-rank results
/// while capping what a malformed length prefix can make the peer allocate.
/// The server never sends a larger frame: canonicalize rejects points whose
/// per-rank stats alone would not fit, and a result that still does not fit
/// is streamed as a failed point.
inline constexpr std::uint32_t kMaxFrame = 8u << 20;

/// Largest PointResult payload that still fits one frame: kMaxFrame minus
/// the frame header (u8 type, u32 req_id) and the PointResult fields around
/// the payload (u32 index, u8 origin, u8 ok, u32 payload length).
inline constexpr std::uint32_t kMaxPointPayload = kMaxFrame - 15;

/// Points a single sweep request may carry (admission sanity bound).
inline constexpr std::uint32_t kMaxPointsPerRequest = 4096;

enum class FrameType : std::uint8_t {
    kHello = 1,             ///< server -> client, once per connection
    kSweepRequest = 2,      ///< client -> server
    kFigureRequest = 3,     ///< client -> server
    kScorecardRequest = 4,  ///< client -> server
    kStatsRequest = 5,      ///< client -> server
    kPointResult = 6,       ///< server -> client, one per sweep point (streamed)
    kSweepDone = 7,         ///< server -> client, closes a sweep stream
    kFigureResult = 8,      ///< server -> client
    kScorecardResult = 9,   ///< server -> client
    kStatsResult = 10,      ///< server -> client
    kError = 11,            ///< server -> client, typed request/protocol error
    kRetryLater = 12,       ///< server -> client, admission-control pushback
};

/// Typed decode failures. Decoding NEVER throws and never reads out of
/// bounds — damaged bytes yield one of these.
enum class DecodeStatus : std::uint8_t {
    kOk = 0,
    kEmptyFrame,     ///< zero-length payload
    kOversized,      ///< length prefix exceeds kMaxFrame
    kUnknownType,    ///< frame_type byte not in FrameType
    kTruncated,      ///< body shorter than its own counts/lengths claim
    kTrailingBytes,  ///< body longer than the message it encodes
    kBadValue,       ///< semantically impossible field (e.g. point count 0)
};

const char* decode_status_name(DecodeStatus s);

/// Error codes carried by kError frames.
enum class ErrorCode : std::uint16_t {
    kBadFrame = 1,      ///< malformed frame (echoes the DecodeStatus in text)
    kBadRequest = 2,    ///< well-formed frame, invalid request (bad spec, ...)
    kShuttingDown = 3,  ///< server is stopping
    kSessionLimit = 4,  ///< too many concurrent connections
    kInternal = 5,      ///< evaluation failed unexpectedly
};

// ---- message bodies --------------------------------------------------------

struct Hello {
    std::uint32_t protocol = kProtocolVersion;
    std::uint32_t model_version = 0;  ///< arch::kModelVersion of the server
    std::uint32_t max_frame = kMaxFrame;
};

struct SweepRequest {
    std::vector<PointSpec> points;
};

struct FigureRequest {
    std::int32_t figure = 0;  ///< 1..5
};

struct ScorecardRequest {};

struct StatsRequest {};

/// How a streamed point was satisfied (mirrors the coalescing map states).
enum class PointOrigin : std::uint8_t {
    kCached = 0,    ///< completed entry already in the serve cache
    kCoalesced = 1, ///< joined a computation another request started
    kComputed = 2,  ///< this request's computation
};

struct PointResult {
    std::uint32_t index = 0;  ///< position in the request's point list
    PointOrigin origin = PointOrigin::kComputed;
    bool ok = true;
    std::string payload;  ///< encoded AppResult when ok, error text otherwise
};

struct SweepDone {
    std::uint32_t points = 0;
    std::uint32_t cached = 0;
    std::uint32_t coalesced = 0;
    std::uint32_t computed = 0;
    std::uint32_t errors = 0;
};

struct FigureResult {
    std::int32_t figure = 0;
    std::string csv;  ///< exactly core::figN_csv bytes
};

struct ScorecardResult {
    std::string text;  ///< exactly core::render_scorecard bytes
};

/// Server counters. The integer fields are deterministic functions of the
/// request history (golden-tested); uptime/qps/rss are measurements.
struct StatsResult {
    std::uint64_t requests = 0;
    std::uint64_t sweep_requests = 0;
    std::uint64_t figure_requests = 0;
    std::uint64_t scorecard_requests = 0;
    std::uint64_t stats_requests = 0;
    std::uint64_t points = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t computed = 0;
    std::uint64_t point_errors = 0;
    std::uint64_t retries = 0;          ///< RETRY_LATER frames sent
    std::uint64_t protocol_errors = 0;  ///< malformed frames seen
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_active = 0;
    std::uint64_t inflight = 0;  ///< fresh computations queued or running
    double uptime_s = 0;
    double qps = 0;  ///< requests / uptime
    std::uint64_t rss_bytes = 0;
};

struct ErrorMsg {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
};

struct RetryLater {
    std::uint32_t inflight = 0;  ///< fresh computations currently admitted
    std::uint32_t limit = 0;     ///< admission bound that was hit
};

/// One decoded frame: type tag + request id + typed body.
struct Message {
    std::uint32_t req_id = 0;
    std::variant<Hello, SweepRequest, FigureRequest, ScorecardRequest,
                 StatsRequest, PointResult, SweepDone, FigureResult,
                 ScorecardResult, StatsResult, ErrorMsg, RetryLater>
        body;

    [[nodiscard]] FrameType type() const;
};

// ---- codec -----------------------------------------------------------------

/// Serialize to payload bytes (no length prefix).
std::string encode_message(const Message& m);

/// Parse payload bytes. On any failure `out` is untouched and the status
/// says what was wrong. Enforces kEmptyFrame/kOversized for degenerate
/// sizes; socket readers should reject oversized lengths *before* reading
/// the body (see read_frame).
DecodeStatus decode_message(std::string_view payload, Message& out);

// ---- socket framing --------------------------------------------------------

/// Write one frame (length prefix + payload). False when the peer is gone.
bool write_frame(util::Socket& s, const Message& m);

/// Outcome of read_frame: clean frames, clean disconnects and protocol
/// damage are three different things.
enum class ReadStatus : std::uint8_t {
    kOk = 0,
    kClosed,    ///< EOF before/inside a frame — peer hung up
    kMalformed, ///< framing or decode violation; see the DecodeStatus
};

/// Read one frame. On kMalformed, `status` holds the specific violation;
/// oversized length prefixes are rejected without reading (or allocating)
/// the claimed body.
ReadStatus read_frame(util::Socket& s, Message& out, DecodeStatus& status);

} // namespace armstice::serve
