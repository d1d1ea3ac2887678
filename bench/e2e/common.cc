#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "bench/e2e/e2e.h"
#include "core/farmer.h"
#include "dataset/expression_matrix.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/simd/simd.h"

namespace farmer {
namespace e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"cpu_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"dataset.csv_parse_s", "s"},
      {"dataset.discretize_s", "s"},
      {"core.build_s", "s"},
      {"core.enum_s", "s"},
      {"core.nodes", "count"},
      {"core.nodes_per_s", "1/s"},
      {"core.prune_ratio", "ratio"},
      {"core.groups", "count"},
      {"core.task_busy_s", "s"},
      {"core.worker_util", "ratio"},
      {"core.task_s.p50", "s"},
      {"core.task_s.max", "s"},
      {"core.tasks_spawned", "count"},
      {"core.steals", "count"},
      {"core.merge_s", "s"},
      {"core.merge_segments", "count"},
      {"core.minelb_s", "s"},
      {"core.minelb_group_us.p50", "us"},
      {"core.minelb_group_us.p99", "us"},
      {"core.minelb_truncated", "count"},
      {"core.remap_s", "s"},
      {"core.serialize_s", "s"},
      {"farm.plan_s", "s"},
      {"farm.wait_s", "s"},
      {"farm.finalize_s", "s"},
      {"farm.bytes_in", "B"},
      {"farm.bytes_out", "B"},
      {"farm.leases", "count"},
      {"farm.releases", "count"},
      {"farm.duplicates", "count"},
      {"farm.lease_s.p50", "s"},
      {"farm.lease_s.max", "s"},
      {"farm.lease_skew", "ratio"},
      {"farm.worker_util", "ratio"},
      {"serve.snapshot_load_s", "s"},
      {"serve.index_build_s", "s"},
      {"serve.start_s", "s"},
      {"serve.parse_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.reload_s.p50", "s"},
      {"serve.reload_s.max", "s"},
      {"serve.index_us.p50", "us"},
      {"serve.index_us.p99", "us"},
      {"serve.encode_us.p50", "us"},
      {"serve.encode_us.p99", "us"},
      {"serve.bytes_out_per_req", "B"},
      {"serve.loop_busy_ratio", "ratio"},
      {"serve.wakeups_per_req", "ratio"},
      {"serve.write_stalls", "count"},
      {"serve.overloaded", "count"},
      {"serve.deadline_exceeded", "count"},
      {"loadgen.late_ms.p99", "ms"},
      {"loadgen.backlog_max", "count"},
      {"trace.overhead", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.dropped_events", "count"},
  };
  return kMetrics;
}

// ---- Report -------------------------------------------------------------

Report::Report(const Config& config) : config_(config) {
  for (const MetricDef& m :
       config.trace ? LayerMetrics() : EndToEndMetrics()) {
    metrics_.push_back({m.name, Value{0.0, m.unit}});
  }
}

void Report::Set(const std::string& name, double value) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v.value = value;
      return;
    }
  }
  std::fprintf(stderr, "bench_e2e: undeclared metric %s\n", name.c_str());
  std::abort();
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, Value{value, unit}});
}

void Report::Fail(const std::string& what) { FailMany(1, what); }

void Report::FailMany(std::size_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "bench_e2e: %s: FAILED x%zu: %s\n",
               config_.workload.c_str(), n, what.c_str());
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += obs::JsonEscape(s);
  out += '"';
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void Report::Print() const {
  const auto block = [](const auto& entries) {
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(entries[i].first) + ": {\"value\": " +
             Number(entries[i].second.value) +
             ", \"unit\": " + Quoted(entries[i].second.unit) + "}";
    }
    return out + "}";
  };
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::string out = "{\"workload\": " + Quoted(config_.workload);
  out += ", \"seed\": " + std::to_string(config_.seed);
  out += ", \"trace\": " + std::string(config_.trace ? "1" : "0");
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": " + block(metrics_);
  out += ", \"info\": " + block(info_);
  out += ", \"host\": {\"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + Quoted(CpuModel());
  out += ", \"simd\": " +
         Quoted(simd::LevelName(simd::DetectBestLevel()));
  out += ", \"compiler\": " + Quoted(Compiler());
  out += ", \"build_type\": " + Quoted(FARMER_E2E_BUILD_TYPE) + "}";
  out += ", \"simd_active\": " +
         Quoted(simd::LevelName(simd::ActiveLevel())) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- Statistics and resources ------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double CpuOf(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}
}  // namespace

double ProcessCpuSeconds() { return CpuOf(RUSAGE_SELF); }
double ThreadCpuSeconds() { return CpuOf(RUSAGE_THREAD); }

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // The value is in kB.
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void InfoQuartiles(Report* report, const std::string& name,
                   const std::vector<double>& values,
                   const std::string& unit) {
  report->Info(name + ".p25", Quantile(values, 0.25), unit);
  report->Info(name + ".p50", Quantile(values, 0.50), unit);
  report->Info(name + ".p75", Quantile(values, 0.75), unit);
  report->Info(name + ".n", static_cast<double>(values.size()), "count");
}

// ---- Inputs -------------------------------------------------------------

const MineShape* ShapeOf(const std::string& workload, bool smoke) {
  // BC: 97 rows, the paper's Fig. 10 setting (MineLB dominates). PC: 136
  // rows, minsup 4 without lower bounds (enumeration and merge dominate).
  // The mined shapes are small enough for ~40 mines per run, so the last
  // mine overshoots the run's time budget by little. The served store is
  // the larger BC twin.
  static const MineShape kLb = {"BC", 0.025, 5, true};
  static const MineShape kDense = {"PC", 0.03, 4, false};
  static const MineShape kStore = {"BC", 0.05, 5, true};
  static const MineShape kLbSmoke = {"BC", 0.01, 5, true};
  static const MineShape kDenseSmoke = {"PC", 0.01, 4, false};
  if (workload == "mine-lb") return smoke ? &kLbSmoke : &kLb;
  if (workload == "serve-cover" || workload == "serve-analyst") {
    return smoke ? &kLbSmoke : &kStore;
  }
  if (workload == "mine-dense" || workload == "farm-dense") {
    return smoke ? &kDenseSmoke : &kDense;
  }
  return nullptr;
}

MineInput WriteMineInput(const MineShape& shape, std::uint64_t seed,
                         const std::string& dir) {
  const ExpressionMatrix base =
      GenerateSynthetic(PaperDatasetSpec(shape.dataset, shape.column_scale));
  MineInput input;
  input.base_gene.resize(base.num_genes());
  for (std::size_t g = 0; g < base.num_genes(); ++g) {
    input.base_gene[g] = static_cast<std::uint32_t>(g);
  }
  Rng rng(seed);
  for (std::size_t g = input.base_gene.size(); g > 1; --g) {
    std::swap(input.base_gene[g - 1], input.base_gene[rng.NextBelow(g)]);
  }
  ExpressionMatrix permuted(base.num_rows(), base.num_genes());
  std::vector<std::string> names(base.num_genes());
  for (std::size_t c = 0; c < base.num_genes(); ++c) {
    names[c] = base.GeneName(input.base_gene[c]);
    for (std::size_t r = 0; r < base.num_rows(); ++r) {
      permuted.at(r, c) = base.at(r, input.base_gene[c]);
    }
  }
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    permuted.set_label(r, base.label(r));
  }
  permuted.set_gene_names(std::move(names));
  input.csv_path = dir + "/" + shape.dataset + "-" +
                   std::to_string(base.num_genes()) + "-" +
                   std::to_string(seed) + ".csv";
  const Status saved = SaveExpressionCsv(permuted, input.csv_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "bench_e2e: cannot write %s: %s\n",
                 input.csv_path.c_str(), saved.ToString().c_str());
    std::exit(2);
  }
  return input;
}

LoadedInput LoadMineInput(const std::string& csv_path,
                          obs::TraceSession* trace, std::size_t lane) {
  LoadedInput in;
  ExpressionMatrix matrix;
  double t = Now();
  {
    obs::ScopedSpan span(trace, lane, "dataset.load_csv");
    const Status loaded = LoadExpressionCsv(csv_path, &matrix);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bench_e2e: cannot load %s: %s\n",
                   csv_path.c_str(), loaded.ToString().c_str());
      std::exit(2);
    }
  }
  in.parse_s = Now() - t;
  t = Now();
  {
    obs::ScopedSpan span(trace, lane, "dataset.discretize");
    in.disc = Discretization::FitEqualDepth(matrix, 10);
    in.data = in.disc.Apply(matrix);
  }
  in.discretize_s = Now() - t;
  return in;
}

MinerOptions MinerOptionsFor(const MineShape& shape, std::size_t threads) {
  MinerOptions opts;
  opts.consequent = 1;
  opts.min_support = shape.min_support;
  opts.mine_lower_bounds = shape.lower_bounds;
  opts.num_threads = threads;
  return opts;
}

namespace {

class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace

std::string CanonicalDigest(const std::vector<RuleGroup>& groups,
                            const Discretization& disc,
                            const std::vector<std::uint32_t>& base_gene) {
  const auto canonical = [&](const ItemVector& items) {
    std::vector<std::uint64_t> out;
    out.reserve(items.size());
    for (ItemId it : items) {
      out.push_back(std::uint64_t{base_gene[disc.GeneOfItem(it)]} << 8 |
                    disc.BinOfItem(it));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  Fnv h;
  h.Add(groups.size());
  for (const RuleGroup& g : groups) {
    h.Add(g.rows.Count());
    g.rows.ForEach([&](std::size_t r) { h.Add(r); });
    h.Add(g.support_pos);
    h.Add(g.support_neg);
    h.Add(std::bit_cast<std::uint64_t>(g.confidence));
    h.Add(std::bit_cast<std::uint64_t>(g.chi_square));
    const std::vector<std::uint64_t> ante = canonical(g.antecedent);
    h.Add(ante.size());
    for (std::uint64_t v : ante) h.Add(v);
    std::vector<std::vector<std::uint64_t>> bounds;
    for (const ItemVector& lb : g.lower_bounds) bounds.push_back(canonical(lb));
    std::sort(bounds.begin(), bounds.end());
    h.Add(bounds.size());
    for (const auto& lb : bounds) {
      h.Add(lb.size());
      for (std::uint64_t v : lb) h.Add(v);
    }
    h.Add(g.lower_bounds_truncated ? 1 : 0);
  }
  return h.Hex();
}

std::string ReferenceDigest(const MineShape& shape, const MineInput& input) {
  const LoadedInput in = LoadMineInput(input.csv_path, nullptr, 0);
  const FarmerResult result = MineFarmer(in.data, MinerOptionsFor(shape, 1));
  return CanonicalDigest(result.groups, in.disc, input.base_gene);
}

// ---- Trace analysis -----------------------------------------------------

double SpanStats::Total(const std::string& name) const {
  const auto it = durations.find(name);
  return it == durations.end() ? 0.0 : Sum(it->second);
}

double SpanStats::Self(const std::string& name) const {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

std::vector<double> SpanStats::Durations(const std::string& name) const {
  const auto it = durations.find(name);
  return it == durations.end() ? std::vector<double>{} : it->second;
}

SpanStats AnalyzeTrace(const obs::TraceSession& session) {
  SpanStats stats;
  struct Open {
    const obs::TraceEvent* e;
    std::uint64_t end;
    std::uint64_t children = 0;
  };
  for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
    std::vector<obs::TraceEvent> events = session.ring(lane).Snapshot();
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const obs::TraceEvent& e) {
                                  return e.phase != 'X';
                                }),
                 events.end());
    // Parents first: earlier start, and the longer span on equal starts.
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                return a.dur_ns > b.dur_ns;
              });
    std::vector<Open> stack;
    const auto close = [&]() {
      const Open& o = stack.back();
      const double self =
          static_cast<double>(o.e->dur_ns - std::min(o.children, o.e->dur_ns));
      stats.self[o.e->name] += self * 1e-9;
      stack.pop_back();
    };
    for (const obs::TraceEvent& e : events) {
      while (!stack.empty() && stack.back().end <= e.ts_ns) close();
      if (!stack.empty()) stack.back().children += e.dur_ns;
      stats.durations[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-9);
      stack.push_back(Open{&e, e.ts_ns + e.dur_ns});
    }
    while (!stack.empty()) close();
  }
  return stats;
}

}  // namespace e2e
}  // namespace farmer
