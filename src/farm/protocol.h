#ifndef FARMER_FARM_PROTOCOL_H_
#define FARMER_FARM_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace farmer {
namespace farm {

/// FMP1 — the farm mining protocol between one coordinator and its
/// worker processes. A connection opts in by sending the 4-byte
/// preamble "FMP1" immediately after connect; everything after it is
/// length-prefixed binary frames on the shared wire layout
/// (util/wire.h):
///
///   u32 length | u8 opcode | payload (length - 1 bytes)
///
/// Conversation (worker -> coordinator unless noted):
///
///   kHello          version, dataset fingerprint, mining params, SIMD
///                   level, worker name. The coordinator rejects a
///                   worker whose fingerprint or params differ from its
///                   own — a mismatched worker would upload segments
///                   from a different search space.
///   kHelloAck  (c)  accepted flag, assigned worker id, reject reason.
///   kLeaseRequest   ask for work. A worker sends it right behind its
///                   kResult, in the same write.
///   kLeaseGrant (c) lease id + the root row of the subtree to mine.
///                   A request that finds no pending row waits for one
///                   (or for kDone) instead of being answered at once.
///   kNoWork    (c)  every lease is out but not yet merged; retry soon.
///                   Not sent by this coordinator; workers still honour
///                   it, for coordinators that poll.
///   kDone      (c)  the mine is complete; the worker should exit.
///   kHeartbeat      periodic liveness + progress (lease id, nodes,
///                   nodes/s, deepest frontier, live group count).
///   kResult         the mined lease: its segments (CRC-guarded) plus
///                   summary stats.
///   kResultAck (c)  fresh flag — 0 when the upload was a duplicate of
///                   an already-merged lease (re-leased after a timeout,
///                   then both workers finished). Duplicates are
///                   discarded deterministically: first upload wins.
///   kRevoke    (c)  the named lease was re-leased (its holder missed
///                   heartbeats); the worker must abandon it.
///
/// A connection whose first bytes are "GET " instead of the preamble is
/// a plain-HTTP Prometheus scrape of the coordinator's metrics, exactly
/// like the serve listener's third surface.
///
/// All integers little-endian; strings are u32-length-prefixed bytes;
/// f64 is the IEEE-754 bit pattern. Every decoder is strict: truncated
/// payloads, trailing bytes, out-of-range counts and CRC mismatches
/// come back InvalidArgument and never crash, hang, or over-allocate —
/// the property fuzz_farm_frame drives.

inline constexpr char kFarmPreamble[4] = {'F', 'M', 'P', '1'};
inline constexpr std::size_t kFarmPreambleSize = 4;
inline constexpr std::uint32_t kFarmProtocolVersion = 1;

/// Result uploads carry whole mined subtrees, so the farm cap is far
/// above the serve protocol's query-sized cap.
inline constexpr std::size_t kMaxFarmFramePayload = std::size_t{1} << 24;

enum class FarmOp : std::uint8_t {
  kHello = 0x01,
  kHelloAck = 0x02,
  kLeaseRequest = 0x03,
  kLeaseGrant = 0x04,
  kNoWork = 0x05,
  kDone = 0x06,
  kHeartbeat = 0x07,
  kResult = 0x08,
  kResultAck = 0x09,
  kRevoke = 0x0A,
};

struct HelloMsg {
  std::uint32_t version = kFarmProtocolVersion;
  serve::SnapshotFingerprint fingerprint;
  serve::SnapshotParams params;
  std::string simd_level;   // The worker's active kernel tier (info).
  std::string worker_name;  // Free-form label for logs/metrics.
};

struct HelloAckMsg {
  bool accepted = false;
  std::uint32_t worker_id = 0;
  std::string reason;  // Empty when accepted.
};

struct LeaseGrantMsg {
  std::uint64_t lease_id = 0;
  std::uint32_t root_row = 0;
};

struct HeartbeatMsg {
  std::uint64_t lease_id = 0;      // 0 = idle (between leases).
  std::uint64_t nodes = 0;         // Enumeration nodes so far (this lease).
  double nodes_per_sec = 0.0;
  std::uint32_t depth = 0;         // Deepest frontier so far.
  std::uint64_t groups = 0;        // Live (pre-merge) group count.
};

struct ResultMsg {
  std::uint64_t lease_id = 0;
  std::uint32_t root_row = 0;
  std::uint64_t nodes_visited = 0;
  double mine_seconds = 0.0;
  /// EncodeSegments() bytes. Guarded by `crc` (CRC32, util/crc32.h):
  /// DecodeResult refuses a payload whose segment bytes do not match.
  std::string segments_wire;
  std::uint32_t crc = 0;
};

struct ResultAckMsg {
  std::uint64_t lease_id = 0;
  bool fresh = false;  // False: duplicate upload, discarded.
};

struct RevokeMsg {
  std::uint64_t lease_id = 0;
};

// ---------------------------------------------------------------------
// Segment serialization (the body of a result upload).
//
//   u32 segment_count
//   per segment:  u32 id_len | id_len x u32
//                 u32 group_count
//   per group:    u32 antecedent_len | antecedent_len x u32 (item ids)
//                 u32 row_count | row_count x u32 (ascending row ids)
//                 u64 support_pos | u64 support_neg
//                 f64 confidence | f64 chi_square
//
// Lower bounds are never shipped: FinalizeFarm runs MineLB on the
// merged winners, so shipping per-group bounds would be wasted bytes.

std::string EncodeSegments(const std::vector<MineSegment>& segments);

/// Strict inverse of EncodeSegments. `num_rows` bounds every row id and
/// sizes the rebuilt row bitsets. Allocation is bounded by the payload
/// size before any reserve happens.
Status DecodeSegments(std::string_view data, std::size_t num_rows,
                      std::vector<MineSegment>* out);

// ---------------------------------------------------------------------
// Frame codecs. Encode* return a complete frame (length prefix
// included); Decode* take the payload (the bytes after the opcode) and
// are strict inverses.

std::string EncodeHello(const HelloMsg& msg);
Status DecodeHello(std::string_view payload, HelloMsg* out);

std::string EncodeHelloAck(const HelloAckMsg& msg);
Status DecodeHelloAck(std::string_view payload, HelloAckMsg* out);

/// kLeaseRequest, kNoWork and kDone carry no payload.
std::string EncodeEmptyFrame(FarmOp op);

std::string EncodeLeaseGrant(const LeaseGrantMsg& msg);
Status DecodeLeaseGrant(std::string_view payload, LeaseGrantMsg* out);

std::string EncodeHeartbeat(const HeartbeatMsg& msg);
Status DecodeHeartbeat(std::string_view payload, HeartbeatMsg* out);

/// EncodeResult stamps msg.crc from msg.segments_wire itself; the
/// caller only fills the other fields. DecodeResult re-checks it.
std::string EncodeResult(ResultMsg msg);
Status DecodeResult(std::string_view payload, ResultMsg* out);

std::string EncodeResultAck(const ResultAckMsg& msg);
Status DecodeResultAck(std::string_view payload, ResultAckMsg* out);

std::string EncodeRevoke(const RevokeMsg& msg);
Status DecodeRevoke(std::string_view payload, RevokeMsg* out);

// ---------------------------------------------------------------------
// Connection classification (mirrors serve::DetectProtocol).

enum class FarmDetect {
  kNeedMore,  // Prefix of a preamble so far; read more.
  kFarm,      // The full FMP1 preamble: frames follow it.
  kHttp,      // "GET ": a plain-HTTP metrics scrape.
  kUnknown,   // Neither — close the connection.
};

FarmDetect DetectFarmProtocol(std::string_view prefix);

}  // namespace farm
}  // namespace farmer

#endif  // FARMER_FARM_PROTOCOL_H_
