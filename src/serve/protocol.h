#ifndef FARMER_SERVE_PROTOCOL_H_
#define FARMER_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/types.h"
#include "serve/index.h"
#include "util/status.h"

namespace farmer {
namespace serve {

/// Wire protocols of the rule-group server. Two framings share one
/// request/response model, auto-detected per connection from its first
/// bytes (see DetectProtocol):
///
/// 1. Line-delimited JSON (the original protocol, kept for
///    compatibility). One request object per line in, one response
///    object per line out:
///      {"op":"ping"}
///      {"op":"stats"}
///      {"op":"topk","metric":"confidence"|"chi_square","k":10}
///      {"op":"contains","items":[3,17]}
///      {"op":"cover","items":[1,2,5,9]}
///      {"op":"filter","minsup":5,"minconf":0.9}
///      {"op":"reload"}
///      {"op":"metrics"}
///    Optional on any request: "limit" (result cap, default 100, max
///    10000), "id" (opaque string echoed back), "deadline_ms"
///    (per-request budget). Responses: {"ok":true,...,"cached":false}
///    or {"ok":false,"error":"<code>","message":"..."}.
///
/// 2. FQP1 binary framing. A connection opts in by sending the 4-byte
///    preamble "FQP1" immediately after connect; every subsequent
///    request is a length-prefixed frame, and every response comes back
///    as one. Frames need no newline scanning, pipeline trivially, and
///    carry a fixed-width header the server parses without touching a
///    JSON parser. See the Frame* declarations below for the layout.
///
/// Both framings allow any number of pipelined requests per connection;
/// responses are always delivered in arrival order.
///
/// A third, read-only surface rides on the same detector: a connection
/// whose first bytes are "GET " is a plain-HTTP scrape. The server
/// answers `GET /metrics` with Prometheus text exposition and closes —
/// enough HTTP for curl and a Prometheus scraper, with no new listener
/// required (see docs/OBSERVABILITY.md).

/// A parsed, validated request (either framing).
struct QueryRequest {
  enum class Op {
    kPing,
    kStats,
    kTopkConfidence,
    kTopkChiSquare,
    kContains,
    kCover,
    kFilter,
    kReload,
    kMetrics,
  };

  Op op = Op::kPing;
  std::size_t k = 10;           // topk
  ItemVector items;             // contains / cover (sorted, deduped)
  std::size_t min_support = 0;  // filter
  double min_confidence = 0.0;  // filter
  std::size_t limit = 100;      // all group-returning ops
  double deadline_ms = 0.0;     // 0 = server default
  std::string id;               // JSON echo id ("" = absent)
  std::uint64_t bin_id = 0;     // FQP1 echo id (0 = absent)
};

/// Caps keeping hostile requests bounded.
inline constexpr std::size_t kMaxRequestBytes = 1 << 16;
inline constexpr std::size_t kMaxResultLimit = 10000;
inline constexpr std::size_t kMaxQueryItems = 4096;

// ---------------------------------------------------------------------
// FQP1 binary framing.
//
// Preamble (client -> server, once, immediately after connect):
//   "FQP1" (4 bytes)
//
// Request frame (client -> server):
//   u32 length   bytes that follow the length field (opcode + payload)
//   u8  opcode   FrameOp
//   payload      common header, then op-specific fields:
//     u64 req_id        echoed in the response frame
//     f64 deadline_ms   0 = server default
//     u32 limit         result cap (<= kMaxResultLimit)
//     -- op kTopk:            u8 metric (0 = confidence, 1 = chi_square),
//                             u32 k
//     -- op kContains/kCover: u32 count, count x u32 item ids
//     -- op kFilter:          u64 minsup, f64 minconf
//     -- op kPing/kStats/kReload: nothing
//
// Response frame (server -> client):
//   u32 length   bytes that follow the length field
//   u8  status   FrameStatus (0 = ok, else the error class)
//   u64 req_id   echoed from the request (0 for connection-level errors)
//   payload      the JSON response text the line protocol would have
//                sent (no trailing newline) — so both framings share the
//                renderer and the response cache byte-for-byte.
//
// All integers little-endian; f64 is the IEEE-754 bit pattern. A frame
// whose length field is 0 or exceeds 1 + kMaxFramePayload is a framing
// error and closes the connection.

inline constexpr char kBinaryPreamble[4] = {'F', 'Q', 'P', '1'};
inline constexpr std::size_t kBinaryPreambleSize = 4;
/// Payload bound (excludes the opcode byte), mirroring the JSON cap.
inline constexpr std::size_t kMaxFramePayload = kMaxRequestBytes;

enum class FrameOp : std::uint8_t {
  kPing = 0x01,
  kStats = 0x02,
  kTopk = 0x03,
  kContains = 0x04,
  kCover = 0x05,
  kFilter = 0x06,
  kReload = 0x10,
  kMetrics = 0x11,
};

enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,
  kOverloaded = 2,
  kDeadlineExceeded = 3,
  kShuttingDown = 4,
  kIdleTimeout = 5,
  kInternal = 6,
};

/// The wire error-code string for a non-ok status ("bad_request", ...).
const char* FrameStatusCode(FrameStatus status);

/// The HTTP-scrape preamble ("GET " — method plus its space).
inline constexpr char kHttpPreamble[4] = {'G', 'E', 'T', ' '};
inline constexpr std::size_t kHttpPreambleSize = 4;

/// Result of scanning a connection's first bytes.
enum class ProtocolDetect {
  kNeedMore,  // Prefix of a preamble so far; read more.
  kJson,      // Neither preamble: line-delimited JSON.
  kBinary,    // The full FQP1 preamble: binary frames follow it.
  kHttp,      // "GET ": a plain-HTTP metrics scrape.
};

/// Decides the framing from the first bytes of a connection. Returns
/// kBinary only on the exact 4-byte FQP1 preamble and kHttp only on
/// the exact "GET " prefix; any first bytes that can no longer become
/// either preamble select JSON (where a non-object line is answered
/// with bad_request, keeping the boundary total).
ProtocolDetect DetectProtocol(std::string_view prefix);

/// Result of trying to cut one frame off a buffer.
enum class FrameExtract {
  kComplete,  // *opcode/*payload set, *consumed bytes were used.
  kNeedMore,  // The buffer holds a prefix of a valid frame.
  kError,     // Unfixable framing (zero/oversized length): close.
};

/// Extracts the first complete frame from `buffer`. On kComplete sets
/// *consumed to the frame's total size, *opcode to its opcode byte and
/// *payload to a view into `buffer` (valid until the buffer mutates).
/// On kError fills *error.
FrameExtract ExtractFrame(std::string_view buffer, std::size_t* consumed,
                          std::uint8_t* opcode, std::string_view* payload,
                          std::string* error);

/// Parses and validates a binary request payload (the bytes after the
/// opcode). Strict like the JSON path: truncated or trailing bytes,
/// unknown opcodes, out-of-range counts all come back InvalidArgument.
/// Items are sorted and deduplicated, mirroring the JSON parser.
Status ParseBinaryRequest(std::uint8_t opcode, std::string_view payload,
                          QueryRequest* out);

/// Renders `request` as a complete FQP1 request frame (length field
/// included) — the exact inverse of ParseBinaryRequest for in-range
/// requests. Used by farmer_query --binary, the tests, and the fuzz
/// seed corpus.
std::string EncodeBinaryRequest(const QueryRequest& request);

/// Renders a complete FQP1 response frame wrapping the JSON text.
std::string EncodeResponseFrame(FrameStatus status, std::uint64_t req_id,
                                std::string_view json);

/// The first 13 bytes of that frame (length, status, req_id): sent
/// ahead of `json_size` bytes of JSON, they make the same frame without
/// copying the JSON.
std::string EncodeResponseFrameHeader(FrameStatus status,
                                      std::uint64_t req_id,
                                      std::size_t json_size);

/// Splits a response frame body (the bytes after the length field) back
/// into status / req_id / JSON text. InvalidArgument when too short.
Status DecodeResponseFrame(std::string_view body, FrameStatus* status,
                           std::uint64_t* req_id, std::string* json);

// ---------------------------------------------------------------------
// Shared request/response model.

/// The wire spelling of an op ("ping", "topk_confidence", ...).
const char* OpName(QueryRequest::Op op);

/// Parses one JSON request line. InvalidArgument on anything malformed:
/// bad JSON, unknown op or field, wrong type, out-of-range value. Never
/// crashes on arbitrary bytes.
Status ParseRequest(const std::string& line, QueryRequest* out);

/// Deterministic cache key: the request re-rendered with fields in fixed
/// order, excluding "id"/"req_id" and "deadline_ms" (which don't affect
/// the answer). Two requests with equal keys have byte-identical
/// payloads against one snapshot version; the server additionally keys
/// its cache by the snapshot version so entries die on hot swap.
std::string CanonicalKey(const QueryRequest& request);

/// True when responses to `request` are cacheable (everything except
/// ping/stats/reload/metrics, whose answers are trivial or
/// time-varying).
bool IsCacheable(const QueryRequest& request);

/// Renders the payload of a successful group-returning response, WITHOUT
/// the trailing "cached" field and closing brace — the server appends
/// `,"cached":true}` or `,"cached":false}` so one cached payload serves
/// both cases. `ids` are group indices into the index's snapshot.
std::string RenderGroupsPayload(const QueryRequest& request,
                                const RuleGroupIndex& index,
                                const std::vector<std::uint32_t>& ids);

/// Live serve-side values surfaced in the "stats" op, so JSON clients
/// see the server's health without the metrics endpoint. Filled by the
/// server from its own counters; everything here is available whether
/// or not a MetricsRegistry is attached.
struct ServeLiveStats {
  std::uint64_t requests = 0;
  std::size_t active_connections = 0;
  /// Connections currently owned by each shard, indexed by shard id.
  std::vector<std::size_t> shard_connections;
  std::uint64_t overloaded = 0;
  std::uint64_t slow_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;
};

/// Payload of a "stats" response (store size, params, fingerprint, the
/// serving snapshot version). When `live` is non-null a "serve" object
/// with the live server-side values is included.
std::string RenderStatsPayload(const QueryRequest& request,
                               const RuleGroupIndex& index,
                               std::uint64_t version,
                               const ServeLiveStats* live = nullptr);

/// Payload of a "metrics" response: the Prometheus text exposition as
/// one JSON string field ("exposition").
std::string RenderMetricsPayload(const std::string& exposition);

/// Payload of a "ping" response.
std::string RenderPingPayload(const QueryRequest& request);

/// Payload of a successful "reload" response: the new snapshot version
/// and the group count now being served.
std::string RenderReloadPayload(std::uint64_t version, std::size_t groups);

/// A complete (self-closed) error response line, no trailing newline.
std::string RenderError(const std::string& code, const std::string& message,
                        const std::string& id = "");

/// Appends the cached flag and the request's echo id to a payload from
/// the Render*Payload functions, producing a complete response line (no
/// newline). The id lives here, not in the payload, so one cached
/// payload can serve requests that differ only in their ids.
std::string FinishResponse(const std::string& payload, bool cached,
                           const std::string& id = "");
/// The same, finishing `payload` in place instead of copying it.
std::string FinishResponse(std::string&& payload, bool cached,
                           const std::string& id = "");

}  // namespace serve
}  // namespace farmer

#endif  // FARMER_SERVE_PROTOCOL_H_
