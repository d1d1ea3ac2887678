#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/simd/simd.h"
#include "util/wire.h"

namespace farmer {
namespace serve {

namespace {

/// Appends the decimal digits of `v`.
template <typename Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

/// Appends `ids` as comma-separated decimals ("3,17,42").
void AppendIdList(std::string* out, const ItemVector& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendDecimal(out, ids[i]);
  }
}

// ---------------------------------------------------------------------
// Minimal strict JSON parser. Supports exactly what the wire protocol
// needs — objects, arrays, strings, numbers, booleans, null — with a
// recursion depth cap so deeply nested hostile input cannot blow the
// stack. Parse failures carry no position info; the server answers
// "bad_request" either way.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

constexpr int kMaxJsonDepth = 8;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();  // No trailing garbage.
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return false;
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        out->type = JsonValue::Type::kNumber;
        return ParseNumber(&out->number);
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return false;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_ + k];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogates rejected — the
          // protocol never needs them).
          if (code >= 0xD800 && code <= 0xDFFF) return false;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // Unterminated.
  }

  bool ParseNumber(double* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return errno == 0 && end == token.c_str() + token.size() &&
           std::isfinite(*out);
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['.
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipSpace();
      if (!ParseValue(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'.
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      if (out->object.count(key) != 0) return false;  // Duplicate key.
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Request validation.

Status BadRequest(const std::string& msg) {
  return Status::InvalidArgument(msg);
}

bool GetSize(const JsonValue& v, std::size_t max, std::size_t* out) {
  if (v.type != JsonValue::Type::kNumber) return false;
  if (v.number < 0 || v.number > static_cast<double>(max) ||
      v.number != std::floor(v.number)) {
    return false;
  }
  *out = static_cast<std::size_t>(v.number);
  return true;
}

bool GetItems(const JsonValue& v, ItemVector* out) {
  if (v.type != JsonValue::Type::kArray) return false;
  if (v.array.size() > kMaxQueryItems) return false;
  out->clear();
  out->reserve(v.array.size());
  for (const JsonValue& e : v.array) {
    std::size_t item = 0;
    if (!GetSize(e, 0xFFFFFFFFu, &item)) return false;
    out->push_back(static_cast<ItemId>(item));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

// ---------------------------------------------------------------------
// Little-endian scalar encoding shared by the FQP1 frame functions:
// one implementation in util/wire, shared with the farm protocol
// (FMP1), so both protocols run the same fuzzed codec.

using wire::PutF64;
using wire::PutU32;
using wire::PutU64;
using PayloadReader = wire::Reader;

}  // namespace

const char* OpName(QueryRequest::Op op) {
  switch (op) {
    case QueryRequest::Op::kPing: return "ping";
    case QueryRequest::Op::kStats: return "stats";
    case QueryRequest::Op::kTopkConfidence: return "topk_confidence";
    case QueryRequest::Op::kTopkChiSquare: return "topk_chi_square";
    case QueryRequest::Op::kContains: return "contains";
    case QueryRequest::Op::kCover: return "cover";
    case QueryRequest::Op::kFilter: return "filter";
    case QueryRequest::Op::kReload: return "reload";
    case QueryRequest::Op::kMetrics: return "metrics";
  }
  return "unknown";
}

const char* FrameStatusCode(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kBadRequest: return "bad_request";
    case FrameStatus::kOverloaded: return "overloaded";
    case FrameStatus::kDeadlineExceeded: return "deadline_exceeded";
    case FrameStatus::kShuttingDown: return "shutting_down";
    case FrameStatus::kIdleTimeout: return "idle_timeout";
    case FrameStatus::kInternal: return "internal";
  }
  return "internal";
}

ProtocolDetect DetectProtocol(std::string_view prefix) {
  using wire::PreambleMatch;
  const PreambleMatch binary = wire::MatchPreamble(
      prefix, std::string_view(kBinaryPreamble, kBinaryPreambleSize));
  const PreambleMatch http = wire::MatchPreamble(
      prefix, std::string_view(kHttpPreamble, kHttpPreambleSize));
  if (binary == PreambleMatch::kFull) return ProtocolDetect::kBinary;
  if (http == PreambleMatch::kFull) return ProtocolDetect::kHttp;
  if (binary == PreambleMatch::kPartial || http == PreambleMatch::kPartial) {
    return ProtocolDetect::kNeedMore;
  }
  return ProtocolDetect::kJson;
}

FrameExtract ExtractFrame(std::string_view buffer, std::size_t* consumed,
                          std::uint8_t* opcode, std::string_view* payload,
                          std::string* error) {
  switch (wire::ExtractFrame(buffer, kMaxFramePayload, consumed, opcode,
                             payload, error)) {
    case wire::FrameExtract::kComplete:
      return FrameExtract::kComplete;
    case wire::FrameExtract::kNeedMore:
      return FrameExtract::kNeedMore;
    case wire::FrameExtract::kError:
      break;
  }
  return FrameExtract::kError;
}

Status ParseBinaryRequest(std::uint8_t opcode, std::string_view payload,
                          QueryRequest* out) {
  QueryRequest req;
  switch (static_cast<FrameOp>(opcode)) {
    case FrameOp::kPing: req.op = QueryRequest::Op::kPing; break;
    case FrameOp::kStats: req.op = QueryRequest::Op::kStats; break;
    case FrameOp::kTopk: req.op = QueryRequest::Op::kTopkConfidence; break;
    case FrameOp::kContains: req.op = QueryRequest::Op::kContains; break;
    case FrameOp::kCover: req.op = QueryRequest::Op::kCover; break;
    case FrameOp::kFilter: req.op = QueryRequest::Op::kFilter; break;
    case FrameOp::kReload: req.op = QueryRequest::Op::kReload; break;
    case FrameOp::kMetrics: req.op = QueryRequest::Op::kMetrics; break;
    default:
      return Status::InvalidArgument("unknown frame opcode " +
                                     std::to_string(opcode));
  }

  PayloadReader reader(payload);
  std::uint32_t limit = 0;
  if (!reader.ReadU64(&req.bin_id) || !reader.ReadF64(&req.deadline_ms) ||
      !reader.ReadU32(&limit)) {
    return Status::InvalidArgument("truncated frame header");
  }
  if (!(req.deadline_ms >= 0) || !std::isfinite(req.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be finite and >= 0");
  }
  if (limit > kMaxResultLimit) {
    return Status::InvalidArgument("limit exceeds " +
                                   std::to_string(kMaxResultLimit));
  }
  req.limit = limit;

  switch (req.op) {
    case QueryRequest::Op::kPing:
    case QueryRequest::Op::kStats:
    case QueryRequest::Op::kReload:
    case QueryRequest::Op::kMetrics:
      break;
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare: {
      std::uint8_t metric = 0;
      std::uint32_t k = 0;
      if (!reader.ReadU8(&metric) || !reader.ReadU32(&k)) {
        return Status::InvalidArgument("truncated topk frame");
      }
      if (metric > 1) {
        return Status::InvalidArgument("unknown topk metric " +
                                       std::to_string(metric));
      }
      if (k > kMaxResultLimit) {
        return Status::InvalidArgument("k exceeds " +
                                       std::to_string(kMaxResultLimit));
      }
      req.op = metric == 0 ? QueryRequest::Op::kTopkConfidence
                           : QueryRequest::Op::kTopkChiSquare;
      req.k = k;
      break;
    }
    case QueryRequest::Op::kContains:
    case QueryRequest::Op::kCover: {
      std::uint32_t count = 0;
      if (!reader.ReadU32(&count)) {
        return Status::InvalidArgument("truncated items frame");
      }
      if (count > kMaxQueryItems) {
        return Status::InvalidArgument("item count exceeds " +
                                       std::to_string(kMaxQueryItems));
      }
      req.items.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t item = 0;
        if (!reader.ReadU32(&item)) {
          return Status::InvalidArgument("truncated item list");
        }
        req.items.push_back(static_cast<ItemId>(item));
      }
      std::sort(req.items.begin(), req.items.end());
      req.items.erase(std::unique(req.items.begin(), req.items.end()),
                      req.items.end());
      break;
    }
    case QueryRequest::Op::kFilter: {
      std::uint64_t minsup = 0;
      if (!reader.ReadU64(&minsup) || !reader.ReadF64(&req.min_confidence)) {
        return Status::InvalidArgument("truncated filter frame");
      }
      if (minsup > static_cast<std::uint64_t>(
                       static_cast<std::size_t>(-1) / 2)) {
        return Status::InvalidArgument("minsup out of range");
      }
      if (!std::isfinite(req.min_confidence)) {
        return Status::InvalidArgument("minconf must be finite");
      }
      req.min_support = static_cast<std::size_t>(minsup);
      break;
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after frame payload");
  }
  *out = std::move(req);
  return Status::Ok();
}

std::string EncodeBinaryRequest(const QueryRequest& request) {
  FrameOp opcode = FrameOp::kPing;
  switch (request.op) {
    case QueryRequest::Op::kPing: opcode = FrameOp::kPing; break;
    case QueryRequest::Op::kStats: opcode = FrameOp::kStats; break;
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare:
      opcode = FrameOp::kTopk;
      break;
    case QueryRequest::Op::kContains: opcode = FrameOp::kContains; break;
    case QueryRequest::Op::kCover: opcode = FrameOp::kCover; break;
    case QueryRequest::Op::kFilter: opcode = FrameOp::kFilter; break;
    case QueryRequest::Op::kReload: opcode = FrameOp::kReload; break;
    case QueryRequest::Op::kMetrics: opcode = FrameOp::kMetrics; break;
  }

  std::string body;
  body.push_back(static_cast<char>(opcode));
  PutU64(&body, request.bin_id);
  PutF64(&body, request.deadline_ms);
  PutU32(&body, static_cast<std::uint32_t>(request.limit));
  switch (request.op) {
    case QueryRequest::Op::kPing:
    case QueryRequest::Op::kStats:
    case QueryRequest::Op::kReload:
    case QueryRequest::Op::kMetrics:
      break;
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare:
      body.push_back(
          request.op == QueryRequest::Op::kTopkConfidence ? '\0' : '\1');
      PutU32(&body, static_cast<std::uint32_t>(request.k));
      break;
    case QueryRequest::Op::kContains:
    case QueryRequest::Op::kCover:
      PutU32(&body, static_cast<std::uint32_t>(request.items.size()));
      for (ItemId item : request.items) {
        PutU32(&body, static_cast<std::uint32_t>(item));
      }
      break;
    case QueryRequest::Op::kFilter:
      PutU64(&body, static_cast<std::uint64_t>(request.min_support));
      PutF64(&body, request.min_confidence);
      break;
  }

  std::string frame;
  frame.reserve(4 + body.size());
  PutU32(&frame, static_cast<std::uint32_t>(body.size()));
  frame += body;
  return frame;
}

std::string EncodeResponseFrameHeader(FrameStatus status,
                                      std::uint64_t req_id,
                                      std::size_t json_size) {
  std::string header;
  header.reserve(4 + 9);
  PutU32(&header, static_cast<std::uint32_t>(9 + json_size));
  header.push_back(static_cast<char>(status));
  PutU64(&header, req_id);
  return header;
}

std::string EncodeResponseFrame(FrameStatus status, std::uint64_t req_id,
                                std::string_view json) {
  std::string frame = EncodeResponseFrameHeader(status, req_id, json.size());
  frame.append(json.data(), json.size());
  return frame;
}

Status DecodeResponseFrame(std::string_view body, FrameStatus* status,
                           std::uint64_t* req_id, std::string* json) {
  if (body.size() < 9) {
    return Status::InvalidArgument("response frame shorter than 9 bytes");
  }
  *status = static_cast<FrameStatus>(static_cast<std::uint8_t>(body[0]));
  PayloadReader reader(body.substr(1, 8));
  if (!reader.ReadU64(req_id)) {
    return Status::InvalidArgument("truncated response id");
  }
  json->assign(body.substr(9));
  return Status::Ok();
}

Status ParseRequest(const std::string& line, QueryRequest* out) {
  if (line.size() > kMaxRequestBytes) {
    return BadRequest("request exceeds " +
                      std::to_string(kMaxRequestBytes) + " bytes");
  }
  JsonValue root;
  if (!JsonParser(line).Parse(&root) ||
      root.type != JsonValue::Type::kObject) {
    return BadRequest("request is not a JSON object");
  }
  const auto find = [&root](const char* key) -> const JsonValue* {
    auto it = root.object.find(key);
    return it == root.object.end() ? nullptr : &it->second;
  };

  const JsonValue* op = find("op");
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    return BadRequest("missing string field 'op'");
  }
  QueryRequest req;
  bool wants_metric = false;
  if (op->string == "ping") {
    req.op = QueryRequest::Op::kPing;
  } else if (op->string == "stats") {
    req.op = QueryRequest::Op::kStats;
  } else if (op->string == "topk") {
    req.op = QueryRequest::Op::kTopkConfidence;
    wants_metric = true;
  } else if (op->string == "contains") {
    req.op = QueryRequest::Op::kContains;
  } else if (op->string == "cover") {
    req.op = QueryRequest::Op::kCover;
  } else if (op->string == "filter") {
    req.op = QueryRequest::Op::kFilter;
  } else if (op->string == "reload") {
    req.op = QueryRequest::Op::kReload;
  } else if (op->string == "metrics") {
    req.op = QueryRequest::Op::kMetrics;
  } else {
    return BadRequest("unknown op '" + op->string + "'");
  }

  for (const auto& [key, value] : root.object) {
    if (key == "op") continue;
    if (key == "id") {
      if (value.type != JsonValue::Type::kString ||
          value.string.size() > 256) {
        return BadRequest("'id' must be a short string");
      }
      req.id = value.string;
    } else if (key == "deadline_ms") {
      if (value.type != JsonValue::Type::kNumber || value.number < 0) {
        return BadRequest("'deadline_ms' must be a non-negative number");
      }
      req.deadline_ms = value.number;
    } else if (key == "limit") {
      if (!GetSize(value, kMaxResultLimit, &req.limit)) {
        return BadRequest("'limit' must be an integer in [0, " +
                          std::to_string(kMaxResultLimit) + "]");
      }
    } else if (key == "k" && wants_metric) {
      if (!GetSize(value, kMaxResultLimit, &req.k)) {
        return BadRequest("'k' must be an integer in [0, " +
                          std::to_string(kMaxResultLimit) + "]");
      }
    } else if (key == "metric" && wants_metric) {
      if (value.type != JsonValue::Type::kString) {
        return BadRequest("'metric' must be a string");
      }
      if (value.string == "confidence") {
        req.op = QueryRequest::Op::kTopkConfidence;
      } else if (value.string == "chi_square") {
        req.op = QueryRequest::Op::kTopkChiSquare;
      } else {
        return BadRequest("unknown metric '" + value.string + "'");
      }
    } else if (key == "items" && (req.op == QueryRequest::Op::kContains ||
                                  req.op == QueryRequest::Op::kCover)) {
      if (!GetItems(value, &req.items)) {
        return BadRequest("'items' must be an array of at most " +
                          std::to_string(kMaxQueryItems) + " item ids");
      }
    } else if (key == "minsup" && req.op == QueryRequest::Op::kFilter) {
      if (!GetSize(value, static_cast<std::size_t>(-1) / 2,
                   &req.min_support)) {
        return BadRequest("'minsup' must be a non-negative integer");
      }
    } else if (key == "minconf" && req.op == QueryRequest::Op::kFilter) {
      if (value.type != JsonValue::Type::kNumber) {
        return BadRequest("'minconf' must be a number");
      }
      req.min_confidence = value.number;
    } else {
      return BadRequest("unknown field '" + key + "' for op '" +
                        op->string + "'");
    }
  }
  *out = std::move(req);
  return Status::Ok();
}

std::string CanonicalKey(const QueryRequest& request) {
  std::string key;
  key.reserve(48 + 8 * request.items.size());
  key += OpName(request.op);
  switch (request.op) {
    case QueryRequest::Op::kPing:
    case QueryRequest::Op::kStats:
    case QueryRequest::Op::kReload:
    case QueryRequest::Op::kMetrics:
      break;
    case QueryRequest::Op::kTopkConfidence:
    case QueryRequest::Op::kTopkChiSquare:
      key += " k=";
      AppendDecimal(&key, request.k);
      break;
    case QueryRequest::Op::kContains:
    case QueryRequest::Op::kCover:
      key += " items=";
      AppendIdList(&key, request.items);
      break;
    case QueryRequest::Op::kFilter:
      key += " minsup=";
      AppendDecimal(&key, request.min_support);
      key += " minconf=";
      obs::AppendJsonNumber(&key, request.min_confidence);
      break;
  }
  key += " limit=";
  AppendDecimal(&key, request.limit);
  return key;
}

bool IsCacheable(const QueryRequest& request) {
  return request.op != QueryRequest::Op::kPing &&
         request.op != QueryRequest::Op::kStats &&
         request.op != QueryRequest::Op::kReload &&
         request.op != QueryRequest::Op::kMetrics;
}

std::string RenderGroupsPayload(const QueryRequest& request,
                                const RuleGroupIndex& index,
                                const std::vector<std::uint32_t>& ids) {
  // One buffer, sized up front: an over-estimate of the digits, plus
  // room for the ",\"cached\":false}" and the line protocol's newline,
  // which FinishResponse and the server append without reallocating.
  std::size_t estimate = 96;
  for (std::uint32_t id : ids) {
    const RuleGroup& g = index.group(id);
    estimate += 160 + 8 * g.antecedent.size();
    for (const ItemVector& lb : g.lower_bounds) estimate += 3 + 8 * lb.size();
  }
  std::string out;
  out.reserve(estimate);
  out += "{\"ok\":true,\"op\":\"";
  out += OpName(request.op);
  out += "\",\"count\":";
  AppendDecimal(&out, ids.size());
  out += ",\"groups\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const RuleGroup& g = index.group(ids[i]);
    if (i > 0) out += ',';
    out += "{\"index\":";
    AppendDecimal(&out, ids[i]);
    out += ",\"support_pos\":";
    AppendDecimal(&out, g.support_pos);
    out += ",\"support_neg\":";
    AppendDecimal(&out, g.support_neg);
    out += ",\"confidence\":";
    obs::AppendJsonNumber(&out, g.confidence);
    out += ",\"chi_square\":";
    obs::AppendJsonNumber(&out, g.chi_square);
    out += ",\"antecedent\":[";
    AppendIdList(&out, g.antecedent);
    out += "],\"lower_bounds\":[";
    for (std::size_t lb = 0; lb < g.lower_bounds.size(); ++lb) {
      if (lb > 0) out += ',';
      out += '[';
      AppendIdList(&out, g.lower_bounds[lb]);
      out += ']';
    }
    out += "]}";
  }
  out += ']';
  return out;
}

std::string RenderStatsPayload(const QueryRequest& request,
                               const RuleGroupIndex& index,
                               std::uint64_t version,
                               const ServeLiveStats* live) {
  (void)request;
  const RuleGroupSnapshot& snap = index.snapshot();
  std::string out = "{\"ok\":true,\"op\":\"stats\"";
  out += ",\"version\":" + std::to_string(version);
  out += std::string(",\"simd_level\":\"") +
         simd::LevelName(simd::ActiveLevel()) + "\"";
  out += ",\"groups\":" + std::to_string(snap.groups.size());
  out += ",\"num_rows\":" + std::to_string(snap.num_rows);
  out += ",\"params\":{\"consequent\":" +
         std::to_string(snap.params.consequent);
  out += ",\"min_support\":" + std::to_string(snap.params.min_support);
  out += ",\"min_confidence\":" + obs::JsonNumber(snap.params.min_confidence);
  out += ",\"min_chi_square\":" + obs::JsonNumber(snap.params.min_chi_square);
  out += ",\"top_k\":" + std::to_string(snap.params.top_k);
  out += std::string(",\"mine_lower_bounds\":") +
         (snap.params.mine_lower_bounds ? "true" : "false");
  out += "},\"fingerprint\":{\"dataset_hash\":" +
         std::to_string(snap.fingerprint.dataset_hash);
  out += ",\"num_rows\":" + std::to_string(snap.fingerprint.num_rows);
  out += ",\"num_items\":" + std::to_string(snap.fingerprint.num_items);
  out += "}";
  if (live != nullptr) {
    const std::uint64_t looked_up = live->cache_hits + live->cache_misses;
    const double hit_ratio =
        looked_up == 0
            ? 0.0
            : static_cast<double>(live->cache_hits) /
                  static_cast<double>(looked_up);
    out += ",\"serve\":{\"requests\":" + std::to_string(live->requests);
    out += ",\"active_connections\":" +
           std::to_string(live->active_connections);
    out += ",\"shard_connections\":[";
    for (std::size_t i = 0; i < live->shard_connections.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(live->shard_connections[i]);
    }
    out += "],\"overloaded\":" + std::to_string(live->overloaded);
    out += ",\"slow_queries\":" + std::to_string(live->slow_queries);
    out += ",\"cache\":{\"hits\":" + std::to_string(live->cache_hits);
    out += ",\"misses\":" + std::to_string(live->cache_misses);
    out += ",\"hit_ratio\":" + obs::JsonNumber(hit_ratio);
    out += ",\"entries\":" + std::to_string(live->cache_entries);
    out += ",\"bytes\":" + std::to_string(live->cache_bytes);
    out += ",\"evictions\":" + std::to_string(live->cache_evictions);
    out += "}}";
  }
  return out;
}

std::string RenderMetricsPayload(const std::string& exposition) {
  return "{\"ok\":true,\"op\":\"metrics\",\"exposition\":\"" +
         obs::JsonEscape(exposition) + "\"";
}

std::string RenderPingPayload(const QueryRequest& request) {
  (void)request;
  return "{\"ok\":true,\"op\":\"ping\"";
}

std::string RenderReloadPayload(std::uint64_t version, std::size_t groups) {
  return "{\"ok\":true,\"op\":\"reload\",\"version\":" +
         std::to_string(version) + ",\"groups\":" + std::to_string(groups);
}

std::string RenderError(const std::string& code, const std::string& message,
                        const std::string& id) {
  std::string out = "{\"ok\":false,\"error\":\"" + obs::JsonEscape(code) +
                    "\",\"message\":\"" + obs::JsonEscape(message) + "\"";
  if (!id.empty()) out += ",\"id\":\"" + obs::JsonEscape(id) + "\"";
  out += "}";
  return out;
}

std::string FinishResponse(const std::string& payload, bool cached,
                           const std::string& id) {
  return FinishResponse(std::string(payload), cached, id);
}

std::string FinishResponse(std::string&& payload, bool cached,
                           const std::string& id) {
  std::string out = std::move(payload);
  out += cached ? ",\"cached\":true" : ",\"cached\":false";
  if (!id.empty()) out += ",\"id\":\"" + obs::JsonEscape(id) + "\"";
  out += "}";
  return out;
}

}  // namespace serve
}  // namespace farmer
