#ifndef FARMER_OBS_METRICS_H_
#define FARMER_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/sync.h"

namespace farmer {
namespace obs {

/// Lock-free observability primitives for the mining pipeline.
///
/// A MetricsRegistry hands out named Counters, Gauges, and Histograms
/// with stable addresses: callers resolve the pointer once (under the
/// registry mutex) and then update it with plain relaxed atomics, so the
/// hot path never locks and never allocates. A Snapshot() can be taken
/// at any time — including while other threads keep updating — and
/// renders to JSON for the CLI's `--metrics-out` and the benches.

/// A monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-writer-wins double value (plus an atomic-max variant for
/// watermarks such as the deepest enumeration node seen).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v),
                std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if `v` is larger than the current value.
  void SetMax(double v) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (std::bit_cast<double>(cur) < v &&
           !bits_.compare_exchange_weak(
               cur, std::bit_cast<std::uint64_t>(v),
               std::memory_order_relaxed)) {
    }
  }

  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// A fixed-bucket histogram: `bounds` are the inclusive upper edges of
/// the finite buckets; one overflow bucket catches everything above the
/// last bound. Observe() is two relaxed atomic adds plus a CAS loop for
/// the running sum — no locks, no allocation. NaN observations are
/// dropped (they fit no bucket and would poison the sum); -inf lands in
/// the first bucket, +inf in the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  std::size_t num_buckets() const { return counts_.size(); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const {
    return std::bit_cast<double>(
        sum_bits_.load(std::memory_order_relaxed));
  }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  // Ascending upper edges.
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds + overflow.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double bits, CAS-updated.
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries.
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;    // Sorted by name.
  std::vector<GaugeValue> gauges;        // Sorted by name.
  std::vector<HistogramValue> histograms;  // Sorted by name.

  /// Renders the snapshot as one JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  std::string ToJson() const;
};

/// Name -> metric directory. Registration locks; updates through the
/// returned pointers are lock-free. Metric objects live as long as the
/// registry, so cached pointers never dangle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. Repeated calls with the same name return the same object.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  /// `bounds` must be non-empty and ascending; it is fixed on first
  /// registration and ignored on later lookups of the same name.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Writes ToJson() to `path` (atomically enough for CI consumers:
  /// single write + close).
  Status WriteJsonFile(const std::string& path) const;

 private:
  mutable Mutex mutex_;
  // The maps are guarded; the metric objects they own are not (their
  // updates are lock-free by design — FARMER_PT_GUARDED_BY would be
  // wrong here, and is why the pointers may be cached by callers).
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FARMER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      FARMER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FARMER_GUARDED_BY(mutex_);
};

/// Shared JSON-string escaping for the obs exporters (metrics + trace).
std::string JsonEscape(const std::string& s);

/// Formats a double the way the obs JSON exporters do: shortest form
/// that round-trips reasonably ("%.17g" is overkill for telemetry). The
/// text is exactly printf("%.9g") in the C locale; non-finite values,
/// which JSON cannot spell, render as "0".
std::string JsonNumber(double v);

/// Appends JsonNumber(v) to *out without a temporary string.
void AppendJsonNumber(std::string* out, double v);

}  // namespace obs
}  // namespace farmer

#endif  // FARMER_OBS_METRICS_H_
