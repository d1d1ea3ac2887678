// Observability subsystem (src/obs/): event-ring overflow semantics,
// lock-free metrics under contention, Chrome-Trace-Format validity of a
// multi-threaded mining trace, progress counters/reporter, and the
// guarantee that enabling none of it leaves the mined groups
// byte-identical.

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/farmer.h"
#include "core/miner_options.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace farmer {
namespace {

using testing_util::RandomDataset;

// ---------------------------------------------------------------------
// A minimal JSON reader, just enough to validate the obs exporters
// without external dependencies. Parses objects, arrays, strings,
// numbers, booleans and null into a tagged tree.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue missing;
    auto it = fields.find(key);
    return it == fields.end() ? missing : it->second;
  }
  bool Has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->text);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return Literal("true", 4);
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return Literal("false", 5);
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return Literal("null", 4);
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // Good enough for validation: skip the 4 hex digits.
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->fields.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue v;
  EXPECT_TRUE(JsonParser(text).Parse(&v)) << "invalid JSON: " << text;
  return v;
}

// ---------------------------------------------------------------------
// EventRing.

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::EventRing(5).capacity(), 8u);
  EXPECT_EQ(obs::EventRing(8).capacity(), 8u);
  EXPECT_EQ(obs::EventRing(1).capacity(), 2u);
}

TEST(EventRingTest, OverflowKeepsNewestAndCountsDrops) {
  obs::EventRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::TraceEvent e;
    e.name = "e";
    e.ts_ns = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<obs::TraceEvent> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 8u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    // The newest 8 of the 20 pushes survive, oldest first: 12..19.
    EXPECT_EQ(kept[i].ts_ns, 12 + i);
  }
}

TEST(EventRingTest, NoOverflowReportsZeroDrops) {
  obs::EventRing ring(16);
  for (int i = 0; i < 10; ++i) ring.Push(obs::TraceEvent{});
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.Snapshot().size(), 10u);
}

// ---------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.counter");
  obs::Histogram* hist =
      registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Sum of observations: kPerThread * (0 + 1 + 2 + 3).
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, kPerThread * 6.0);
}

TEST(MetricsTest, GaugeSetMaxIsMonotone) {
  obs::Gauge gauge;
  gauge.SetMax(3.0);
  gauge.SetMax(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.SetMax(7.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
}

TEST(MetricsTest, HistogramBucketsPartitionByUpperEdge) {
  obs::Histogram hist({1.0, 10.0});
  hist.Observe(0.5);   // <= 1
  hist.Observe(1.0);   // <= 1 (inclusive edge)
  hist.Observe(5.0);   // <= 10
  hist.Observe(99.0);  // overflow
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.count(), 4u);
}

TEST(MetricsTest, HistogramDropsNaNObservations) {
  obs::Histogram hist({1.0});
  hist.Observe(0.5);
  hist.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5);
}

TEST(MetricsTest, HistogramPlacesInfinitiesAndNegatives) {
  obs::Histogram hist({0.0, 1.0});
  hist.Observe(-std::numeric_limits<double>::infinity());  // First bucket.
  hist.Observe(-5.0);                                      // First bucket.
  hist.Observe(std::numeric_limits<double>::infinity());   // Overflow.
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 0u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.count(), 3u);
  // -inf + +inf would be NaN; the sum only has to stay a double. All
  // three observations must be counted regardless of what it holds.
  EXPECT_TRUE(std::isinf(hist.sum()) || std::isnan(hist.sum()));
}

TEST(MetricsTest, HistogramSnapshotConsistentUnderConcurrentObserve) {
  // Snapshots cut while observers run must stay internally sane:
  // bucket sums never exceed the number of observations started, and
  // once the writers join, everything is exact.
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("race.hist", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        hist->Observe(i % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  go.store(true, std::memory_order_release);
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  for (int round = 0; round < 50; ++round) {
    obs::MetricsSnapshot snap = registry.Snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const auto& h = snap.histograms[0];
    ASSERT_EQ(h.buckets.size(), 2u);
    std::uint64_t in_buckets = h.buckets[0] + h.buckets[1];
    EXPECT_LE(in_buckets, total);
    EXPECT_LE(h.count, total);
  }
  for (std::thread& t : writers) t.join();
  obs::MetricsSnapshot snap = registry.Snapshot();
  const auto& h = snap.histograms[0];
  EXPECT_EQ(h.count, total);
  EXPECT_EQ(h.buckets[0] + h.buckets[1], total);
  EXPECT_EQ(h.buckets[0], total / 2);
  EXPECT_DOUBLE_EQ(h.sum, total / 2 * 0.25 + total / 2 * 0.75);
}

TEST(MetricsTest, JsonExportIsValidAndComplete) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(42);
  registry.GetGauge("g.two")->Set(2.5);
  registry.GetHistogram("h.three", {1.0, 2.0})->Observe(1.5);
  JsonValue root = ParseJsonOrDie(registry.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_DOUBLE_EQ(root.at("counters").at("c.one").number, 42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("g.two").number, 2.5);
  const JsonValue& h = root.at("histograms").at("h.three");
  ASSERT_EQ(h.at("buckets").items.size(), 3u);
  EXPECT_DOUBLE_EQ(h.at("count").number, 1.0);
}

// JsonNumber's text is printf("%.9g") in the C locale, for every finite
// double, and "0" for the values JSON cannot spell.
std::string PrintfNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

TEST(MetricsTest, JsonNumberMatchesPrintf) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      0.5e-323,
      123456789.0,
      1234567895.0,
      999999999.5,
      0.1,
  };
  // Every confidence a dataset of up to 400 rows can produce.
  for (int n = 1; n <= 400; ++n) {
    for (int k = 0; k <= n; ++k) {
      values.push_back(static_cast<double>(k) / static_cast<double>(n));
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.NextU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    // Subnormals: a random mantissa under a zero exponent.
    const std::uint64_t sub = bits & ((std::uint64_t{1} << 63) |
                                      ((std::uint64_t{1} << 52) - 1));
    std::memcpy(&v, &sub, sizeof(v));
    values.push_back(v);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    const std::string got = obs::JsonNumber(v);
    if (got != PrintfNumber(v) && ++mismatches <= 10) {
      ADD_FAILURE() << "JsonNumber gave " << got << ", printf gave "
                    << PrintfNumber(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);

  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(obs::JsonNumber(v), "0");
  }
  std::string appended = "x=";
  obs::AppendJsonNumber(&appended, 2.0 / 3.0);
  EXPECT_EQ(appended, "x=0.666666667");
}

// ---------------------------------------------------------------------
// Tracing a real parallel mining run.

struct TracedRun {
  FarmerResult result;
  JsonValue trace;
  std::uint64_t merge_segments = 0;
};

TracedRun MineWithTrace(std::size_t threads) {
  BinaryDataset ds = RandomDataset(40, 24, 0.4, 99);
  obs::TraceSession session(threads + 1);
  obs::MetricsRegistry metrics;
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 2;
  opts.mine_lower_bounds = true;
  opts.num_threads = threads;
  opts.trace = &session;
  opts.metrics = &metrics;
  TracedRun out;
  out.result = MineFarmer(ds, opts);
  out.trace = ParseJsonOrDie(session.ToJson());
  out.merge_segments = metrics.GetCounter("farmer.merge.segments")->value();
  return out;
}

TEST(TraceTest, FourThreadRunEmitsValidChromeTraceFormat) {
  TracedRun run = MineWithTrace(4);
  ASSERT_EQ(run.trace.kind, JsonValue::kObject);
  const JsonValue& events = run.trace.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_FALSE(events.items.empty());

  std::size_t merge_spans = 0;
  std::set<std::string> names;
  for (const JsonValue& e : events.items) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    ASSERT_TRUE(e.Has("name"));
    ASSERT_TRUE(e.Has("ph"));
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("tid"));
    const std::string& ph = e.at("ph").text;
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    if (ph == "M") continue;  // Metadata events carry no timestamp args.
    ASSERT_TRUE(e.Has("ts"));
    names.insert(e.at("name").text);
    if (ph == "X") {
      ASSERT_TRUE(e.Has("dur"));
      EXPECT_GE(e.at("dur").number, 0.0);
      if (e.at("name").text == "merge") {
        ++merge_spans;
        EXPECT_DOUBLE_EQ(e.at("tid").number, 0.0);  // Control lane.
      }
    }
  }
  // The phase spans and at least one task must be present.
  EXPECT_TRUE(names.count("mine"));
  EXPECT_TRUE(names.count("task"));
  EXPECT_TRUE(names.count("remap"));
  // Exactly one merge span per replayed segment (the metrics counter is
  // incremented in the same loop).
  EXPECT_GT(merge_spans, 0u);
  EXPECT_EQ(merge_spans, run.merge_segments);
}

TEST(TraceTest, StealInstantsMatchStealCounter) {
  // Steals are timing-dependent, so assert consistency, not a count:
  // every steal the pool observed must have produced one instant.
  TracedRun run = MineWithTrace(4);
  std::size_t steal_events = 0;
  for (const JsonValue& e : run.trace.at("traceEvents").items) {
    if (e.at("name").text == "steal") ++steal_events;
  }
  EXPECT_EQ(steal_events, run.result.stats.task_steals);
}

TEST(TraceTest, FarmPlanAndLeasesEmitOneTaskEach) {
  // The plan and every lease run through the same executor as pool
  // tasks, so each gets one `task` span and one task-time observation.
  BinaryDataset ds = RandomDataset(30, 20, 0.4, 5);
  obs::TraceSession session(1);
  obs::MetricsRegistry metrics;
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = 2;
  opts.trace = &session;
  opts.metrics = &metrics;
  internal::FarmerMiner miner(ds, opts);
  const internal::FarmerMiner::FarmPlan& plan = miner.PlanFarm();
  ASSERT_FALSE(plan.lease_rows.empty());
  for (const std::uint32_t row : plan.lease_rows) {
    miner.MineFarmLease(row, nullptr, nullptr);
  }
  const std::size_t tasks = plan.lease_rows.size() + 1;

  const JsonValue trace = ParseJsonOrDie(session.ToJson());
  std::size_t task_spans = 0;
  for (const JsonValue& e : trace.at("traceEvents").items) {
    if (e.at("ph").text == "X" && e.at("name").text == "task") ++task_spans;
  }
  EXPECT_EQ(task_spans, tasks);
  EXPECT_EQ(metrics.GetHistogram("farmer.task.seconds", {1.0})->count(),
            tasks);
}

TEST(TraceTest, MetadataNamesEveryLane) {
  obs::TraceSession session(3);  // Control + 2 workers.
  session.Instant(0, "x");
  JsonValue root = ParseJsonOrDie(session.ToJson());
  std::set<std::string> thread_names;
  for (const JsonValue& e : root.at("traceEvents").items) {
    if (e.at("ph").text == "M" && e.at("name").text == "thread_name") {
      thread_names.insert(e.at("args").at("name").text);
    }
  }
  EXPECT_TRUE(thread_names.count("main"));
  EXPECT_EQ(thread_names.size(), 3u);
}

TEST(TraceTest, ScopedSpanWithNullSessionIsNoop) {
  obs::ScopedSpan span(nullptr, 0, "nothing");
  span.Arg("a", 1);
  span.Arg("b", 2);
  span.Arg("c", 3);  // Third arg ignored, not UB.
}

// ---------------------------------------------------------------------
// Zero-overhead guarantee: no obs pointers -> identical results.

void ExpectIdenticalGroups(const FarmerResult& want,
                           const FarmerResult& got) {
  ASSERT_EQ(want.groups.size(), got.groups.size());
  for (std::size_t i = 0; i < want.groups.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    EXPECT_EQ(want.groups[i].antecedent, got.groups[i].antecedent);
    EXPECT_EQ(want.groups[i].rows, got.groups[i].rows);
    EXPECT_EQ(want.groups[i].support_pos, got.groups[i].support_pos);
    EXPECT_EQ(want.groups[i].support_neg, got.groups[i].support_neg);
    EXPECT_EQ(want.groups[i].confidence, got.groups[i].confidence);
    EXPECT_EQ(want.groups[i].lower_bounds, got.groups[i].lower_bounds);
  }
}

TEST(ObsIntegrationTest, InstrumentationDoesNotChangeResults) {
  BinaryDataset ds = RandomDataset(36, 20, 0.45, 3);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MinerOptions plain;
    plain.consequent = 1;
    plain.min_support = 2;
    plain.num_threads = threads;
    FarmerResult bare = MineFarmer(ds, plain);

    obs::TraceSession session(threads + 1);
    obs::MetricsRegistry metrics;
    obs::ProgressCounters progress;
    MinerOptions instrumented = plain;
    instrumented.trace = &session;
    instrumented.metrics = &metrics;
    instrumented.progress = &progress;
    FarmerResult traced = MineFarmer(ds, instrumented);

    ExpectIdenticalGroups(bare, traced);
    EXPECT_EQ(bare.stats.nodes_visited, traced.stats.nodes_visited);
  }
}

// ---------------------------------------------------------------------
// Progress counters and reporter.

TEST(ProgressTest, CountersMatchFinalStats) {
  BinaryDataset ds = RandomDataset(36, 20, 0.45, 17);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::ProgressCounters progress;
    MinerOptions opts;
    opts.consequent = 1;
    opts.min_support = 2;
    opts.num_threads = threads;
    opts.progress = &progress;
    FarmerResult r = MineFarmer(ds, opts);
    // Every per-task flush lands before the pool drains, so the final
    // counters agree exactly with the merged statistics.
    EXPECT_EQ(progress.nodes.load(), r.stats.nodes_visited);
    EXPECT_EQ(progress.rows_absorbed.load(), r.stats.rows_absorbed);
    EXPECT_EQ(progress.pruned_backscan.load(),
              r.stats.pruned_by_backscan);
    EXPECT_EQ(progress.minelb_done.load(), r.groups.size());
    if (threads > 1) {
      // Spawned tasks + the root task all completed.
      EXPECT_EQ(progress.tasks_completed.load(),
                r.stats.tasks_spawned + 1);
      EXPECT_EQ(progress.tasks_spawned.load(),
                r.stats.tasks_spawned + 1);
    }
  }
}

TEST(ProgressTest, ReporterEmitsLinesAndStops) {
  obs::ProgressCounters counters;
  counters.nodes.store(123456);
  counters.groups.store(42);
  counters.root_total.store(10);
  counters.root_done.store(5);
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  obs::ProgressReporter::Options opts;
  opts.interval_seconds = 0.01;
  opts.sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mutex);
    lines.push_back(line);
  };
  obs::ProgressReporter reporter(&counters, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  reporter.Stop();
  reporter.Stop();  // Idempotent.
  std::lock_guard<std::mutex> lock(lines_mutex);
  ASSERT_FALSE(lines.empty());
  // Every line reports the node count and the completion estimate.
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("nodes"), std::string::npos) << line;
  }
}

TEST(ProgressTest, FormatSampleMentionsKeyFields) {
  obs::ProgressCounters counters;
  counters.nodes.store(1000);
  counters.groups.store(7);
  obs::ProgressReporter::Options opts;
  opts.interval_seconds = 3600.0;  // Never fires on its own.
  opts.sink = [](const std::string&) {};
  obs::ProgressReporter reporter(&counters, opts);
  const std::string line = reporter.FormatSample();
  EXPECT_NE(line.find("nodes"), std::string::npos) << line;
  EXPECT_NE(line.find("groups"), std::string::npos) << line;
  reporter.Stop();
}

TEST(ProgressTest, RaiseMaxDepthIsMonotoneUnderContention) {
  obs::ProgressCounters counters;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counters, t] {
      for (std::uint64_t d = 0; d < 1000; ++d) {
        counters.RaiseMaxDepth(d * 4 + t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counters.max_depth.load(), 999u * 4 + 3);
}

}  // namespace
}  // namespace farmer
