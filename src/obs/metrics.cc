#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace farmer {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  FARMER_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  FARMER_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must ascend";
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(double v) {
  // NaN fits no bucket and would poison the running sum forever; the
  // observation is dropped. Infinities are ordered, so they land in
  // the overflow (or first) bucket like any other out-of-range value.
  if (std::isnan(v)) return;
  // lower_bound makes the edges inclusive: Observe(b) lands in the
  // bucket whose upper edge is b, as documented in the header.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.bounds = h->bounds();
    hv.buckets.reserve(h->num_buckets());
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      hv.buckets.push_back(h->bucket_count(i));
    }
    hv.count = h->count();
    hv.sum = h->sum();
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan.
    out->push_back('0');
    return;
  }
  // The standard defines general format at a precision as printf's %g
  // at that precision in the C locale, so this is "%.9g" without the
  // format-string parse.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 9);
  out->append(buf, res.ptr);
}

std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(&out, v);
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += '"' + JsonEscape(counters[i].name) +
           "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += '"' + JsonEscape(gauges[i].name) +
           "\": " + JsonNumber(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += '"' + JsonEscape(h.name) + "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += JsonNumber(h.bounds[b]);
    }
    out += "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.buckets[b]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + JsonNumber(h.sum) + "}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace farmer
