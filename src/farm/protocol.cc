#include "farm/protocol.h"

#include <utility>

#include "util/crc32.h"
#include "util/wire.h"

namespace farmer {
namespace farm {

namespace {

using wire::PutF64;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::PutU8;

std::string Frame(FarmOp op, std::string_view payload) {
  std::string out;
  wire::AppendFrame(&out, static_cast<std::uint8_t>(op), payload);
  return out;
}

}  // namespace

std::string EncodeSegments(const std::vector<MineSegment>& segments) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(segments.size()));
  for (const MineSegment& seg : segments) {
    PutU32(&out, static_cast<std::uint32_t>(seg.id.size()));
    for (std::uint32_t part : seg.id) PutU32(&out, part);
    PutU32(&out, static_cast<std::uint32_t>(seg.groups.size()));
    for (const RuleGroup& g : seg.groups) {
      PutU32(&out, static_cast<std::uint32_t>(g.antecedent.size()));
      for (ItemId item : g.antecedent) PutU32(&out, item);
      PutU32(&out, static_cast<std::uint32_t>(g.rows.Count()));
      g.rows.ForEach([&out](std::size_t row) {
        PutU32(&out, static_cast<std::uint32_t>(row));
      });
      PutU64(&out, g.support_pos);
      PutU64(&out, g.support_neg);
      PutF64(&out, g.confidence);
      PutF64(&out, g.chi_square);
    }
  }
  return out;
}

Status DecodeSegments(std::string_view data, std::size_t num_rows,
                      std::vector<MineSegment>* out) {
  wire::Reader reader(data);
  std::vector<MineSegment> segments;
  std::uint32_t segment_count = 0;
  if (!reader.ReadU32(&segment_count)) {
    return Status::InvalidArgument("segments: truncated count");
  }
  // Every count below is re-bounded against the bytes actually left
  // (each counted element is >= 4 bytes), so a hostile count cannot
  // drive an allocation past the payload size.
  if (segment_count > reader.remaining() / 4) {
    return Status::InvalidArgument("segments: count exceeds payload");
  }
  segments.reserve(segment_count);
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    MineSegment seg;
    std::uint32_t id_len = 0;
    if (!reader.ReadU32(&id_len) || id_len > reader.remaining() / 4) {
      return Status::InvalidArgument("segments: bad id length");
    }
    seg.id.reserve(id_len);
    for (std::uint32_t i = 0; i < id_len; ++i) {
      std::uint32_t part = 0;
      if (!reader.ReadU32(&part)) {
        return Status::InvalidArgument("segments: truncated id");
      }
      seg.id.push_back(part);
    }
    std::uint32_t group_count = 0;
    if (!reader.ReadU32(&group_count) ||
        group_count > reader.remaining() / 4) {
      return Status::InvalidArgument("segments: bad group count");
    }
    seg.groups.reserve(group_count);
    for (std::uint32_t gi = 0; gi < group_count; ++gi) {
      RuleGroup g;
      std::uint32_t ant_len = 0;
      if (!reader.ReadU32(&ant_len) || ant_len > reader.remaining() / 4) {
        return Status::InvalidArgument("segments: bad antecedent length");
      }
      g.antecedent.reserve(ant_len);
      for (std::uint32_t i = 0; i < ant_len; ++i) {
        std::uint32_t item = 0;
        if (!reader.ReadU32(&item)) {
          return Status::InvalidArgument("segments: truncated antecedent");
        }
        g.antecedent.push_back(item);
      }
      std::uint32_t row_count = 0;
      if (!reader.ReadU32(&row_count) ||
          row_count > reader.remaining() / 4) {
        return Status::InvalidArgument("segments: bad row count");
      }
      g.rows.Resize(num_rows);
      std::uint64_t prev = 0;
      bool have_prev = false;
      for (std::uint32_t i = 0; i < row_count; ++i) {
        std::uint32_t row = 0;
        if (!reader.ReadU32(&row)) {
          return Status::InvalidArgument("segments: truncated row set");
        }
        if (row >= num_rows) {
          return Status::InvalidArgument("segments: row id out of range");
        }
        if (have_prev && row <= prev) {
          return Status::InvalidArgument("segments: rows not ascending");
        }
        prev = row;
        have_prev = true;
        g.rows.Set(row);
      }
      if (!reader.ReadU64(&g.support_pos) ||
          !reader.ReadU64(&g.support_neg) ||
          !reader.ReadF64(&g.confidence) || !reader.ReadF64(&g.chi_square)) {
        return Status::InvalidArgument("segments: truncated group tail");
      }
      if (g.support_pos + g.support_neg != row_count) {
        return Status::InvalidArgument(
            "segments: support counts disagree with the row set");
      }
      seg.groups.push_back(std::move(g));
    }
    segments.push_back(std::move(seg));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("segments: trailing bytes");
  }
  *out = std::move(segments);
  return Status::Ok();
}

std::string EncodeHello(const HelloMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.version);
  PutU64(&payload, msg.fingerprint.dataset_hash);
  PutU64(&payload, msg.fingerprint.num_rows);
  PutU64(&payload, msg.fingerprint.num_items);
  PutU32(&payload, msg.params.consequent);
  PutU64(&payload, msg.params.min_support);
  PutF64(&payload, msg.params.min_confidence);
  PutF64(&payload, msg.params.min_chi_square);
  PutU64(&payload, msg.params.top_k);
  PutU8(&payload, msg.params.mine_lower_bounds ? 1 : 0);
  PutU8(&payload, msg.params.report_all_rule_groups ? 1 : 0);
  PutString(&payload, msg.simd_level);
  PutString(&payload, msg.worker_name);
  return Frame(FarmOp::kHello, payload);
}

Status DecodeHello(std::string_view payload, HelloMsg* out) {
  wire::Reader reader(payload);
  HelloMsg msg;
  std::uint32_t consequent = 0;
  std::uint64_t min_support = 0;
  std::uint64_t top_k = 0;
  std::uint8_t mine_lb = 0;
  std::uint8_t report_all = 0;
  std::string_view simd_level;
  std::string_view worker_name;
  if (!reader.ReadU32(&msg.version) ||
      !reader.ReadU64(&msg.fingerprint.dataset_hash) ||
      !reader.ReadU64(&msg.fingerprint.num_rows) ||
      !reader.ReadU64(&msg.fingerprint.num_items) ||
      !reader.ReadU32(&consequent) || !reader.ReadU64(&min_support) ||
      !reader.ReadF64(&msg.params.min_confidence) ||
      !reader.ReadF64(&msg.params.min_chi_square) ||
      !reader.ReadU64(&top_k) || !reader.ReadU8(&mine_lb) ||
      !reader.ReadU8(&report_all) || !reader.ReadString(&simd_level) ||
      !reader.ReadString(&worker_name) || !reader.AtEnd()) {
    return Status::InvalidArgument("hello: malformed payload");
  }
  if (consequent > 0xFF) {
    return Status::InvalidArgument("hello: consequent out of range");
  }
  msg.params.consequent = static_cast<ClassLabel>(consequent);
  msg.params.min_support = static_cast<std::size_t>(min_support);
  msg.params.top_k = static_cast<std::size_t>(top_k);
  msg.params.mine_lower_bounds = mine_lb != 0;
  msg.params.report_all_rule_groups = report_all != 0;
  msg.simd_level.assign(simd_level);
  msg.worker_name.assign(worker_name);
  *out = std::move(msg);
  return Status::Ok();
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  std::string payload;
  PutU8(&payload, msg.accepted ? 1 : 0);
  PutU32(&payload, msg.worker_id);
  PutString(&payload, msg.reason);
  return Frame(FarmOp::kHelloAck, payload);
}

Status DecodeHelloAck(std::string_view payload, HelloAckMsg* out) {
  wire::Reader reader(payload);
  HelloAckMsg msg;
  std::uint8_t accepted = 0;
  std::string_view reason;
  if (!reader.ReadU8(&accepted) || !reader.ReadU32(&msg.worker_id) ||
      !reader.ReadString(&reason) || !reader.AtEnd()) {
    return Status::InvalidArgument("hello_ack: malformed payload");
  }
  msg.accepted = accepted != 0;
  msg.reason.assign(reason);
  *out = std::move(msg);
  return Status::Ok();
}

std::string EncodeEmptyFrame(FarmOp op) { return Frame(op, {}); }

std::string EncodeLeaseGrant(const LeaseGrantMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.lease_id);
  PutU32(&payload, msg.root_row);
  return Frame(FarmOp::kLeaseGrant, payload);
}

Status DecodeLeaseGrant(std::string_view payload, LeaseGrantMsg* out) {
  wire::Reader reader(payload);
  LeaseGrantMsg msg;
  if (!reader.ReadU64(&msg.lease_id) || !reader.ReadU32(&msg.root_row) ||
      !reader.AtEnd()) {
    return Status::InvalidArgument("lease_grant: malformed payload");
  }
  *out = msg;
  return Status::Ok();
}

std::string EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.lease_id);
  PutU64(&payload, msg.nodes);
  PutF64(&payload, msg.nodes_per_sec);
  PutU32(&payload, msg.depth);
  PutU64(&payload, msg.groups);
  return Frame(FarmOp::kHeartbeat, payload);
}

Status DecodeHeartbeat(std::string_view payload, HeartbeatMsg* out) {
  wire::Reader reader(payload);
  HeartbeatMsg msg;
  if (!reader.ReadU64(&msg.lease_id) || !reader.ReadU64(&msg.nodes) ||
      !reader.ReadF64(&msg.nodes_per_sec) || !reader.ReadU32(&msg.depth) ||
      !reader.ReadU64(&msg.groups) || !reader.AtEnd()) {
    return Status::InvalidArgument("heartbeat: malformed payload");
  }
  *out = msg;
  return Status::Ok();
}

std::string EncodeResult(ResultMsg msg) {
  msg.crc = Crc32(msg.segments_wire.data(), msg.segments_wire.size());
  std::string payload;
  PutU64(&payload, msg.lease_id);
  PutU32(&payload, msg.root_row);
  PutU64(&payload, msg.nodes_visited);
  PutF64(&payload, msg.mine_seconds);
  PutU32(&payload, msg.crc);
  PutString(&payload, msg.segments_wire);
  return Frame(FarmOp::kResult, payload);
}

Status DecodeResult(std::string_view payload, ResultMsg* out) {
  wire::Reader reader(payload);
  ResultMsg msg;
  std::string_view segments_wire;
  if (!reader.ReadU64(&msg.lease_id) || !reader.ReadU32(&msg.root_row) ||
      !reader.ReadU64(&msg.nodes_visited) ||
      !reader.ReadF64(&msg.mine_seconds) || !reader.ReadU32(&msg.crc) ||
      !reader.ReadString(&segments_wire) || !reader.AtEnd()) {
    return Status::InvalidArgument("result: malformed payload");
  }
  if (Crc32(segments_wire.data(), segments_wire.size()) != msg.crc) {
    return Status::InvalidArgument("result: segment CRC mismatch");
  }
  msg.segments_wire.assign(segments_wire);
  *out = std::move(msg);
  return Status::Ok();
}

std::string EncodeResultAck(const ResultAckMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.lease_id);
  PutU8(&payload, msg.fresh ? 1 : 0);
  return Frame(FarmOp::kResultAck, payload);
}

Status DecodeResultAck(std::string_view payload, ResultAckMsg* out) {
  wire::Reader reader(payload);
  ResultAckMsg msg;
  std::uint8_t fresh = 0;
  if (!reader.ReadU64(&msg.lease_id) || !reader.ReadU8(&fresh) ||
      !reader.AtEnd()) {
    return Status::InvalidArgument("result_ack: malformed payload");
  }
  msg.fresh = fresh != 0;
  *out = msg;
  return Status::Ok();
}

std::string EncodeRevoke(const RevokeMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.lease_id);
  return Frame(FarmOp::kRevoke, payload);
}

Status DecodeRevoke(std::string_view payload, RevokeMsg* out) {
  wire::Reader reader(payload);
  RevokeMsg msg;
  if (!reader.ReadU64(&msg.lease_id) || !reader.AtEnd()) {
    return Status::InvalidArgument("revoke: malformed payload");
  }
  *out = msg;
  return Status::Ok();
}

FarmDetect DetectFarmProtocol(std::string_view prefix) {
  using wire::PreambleMatch;
  const PreambleMatch farm = wire::MatchPreamble(
      prefix, std::string_view(kFarmPreamble, kFarmPreambleSize));
  const PreambleMatch http = wire::MatchPreamble(prefix, "GET ");
  if (farm == PreambleMatch::kFull) return FarmDetect::kFarm;
  if (http == PreambleMatch::kFull) return FarmDetect::kHttp;
  if (farm == PreambleMatch::kPartial || http == PreambleMatch::kPartial) {
    return FarmDetect::kNeedMore;
  }
  return FarmDetect::kUnknown;
}

}  // namespace farm
}  // namespace farmer
