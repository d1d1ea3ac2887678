#ifndef FARMER_BENCH_E2E_E2E_H_
#define FARMER_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark (bench_e2e): configuration,
// the result record, timing and resource helpers, the seeded inputs, the
// canonical group digest, and self-time analysis of trace rings.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/miner_options.h"
#include "core/rule.h"
#include "dataset/dataset.h"
#include "dataset/discretize.h"
#include "obs/trace.h"

namespace farmer {
namespace e2e {

/// One run of one workload, as given on the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time budget of the run (set-up and warm-up excluded).
  double seconds = 10.0;
  /// Per-layer run: tracing on, layer metrics reported.
  bool trace = false;
  /// Tiny inputs, one iteration, short serve phases.
  bool smoke = false;
  /// Where the generated inputs and trace files go.
  std::string work_dir = ".";
  /// Canonical digest the mined groups must reproduce. Empty: compare
  /// against a 1-thread in-process reference mine, made after the peak
  /// RSS has been read.
  std::string expect_digest;
  /// Open-loop request rate of the serve workloads.
  double nominal_qps = 0.0;
};

/// Mining threads of every mine (the benchmark host has 4 CPUs).
inline constexpr std::size_t kThreads = 4;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The bounded end-to-end metrics (untraced runs) and the per-layer
/// metrics (traced runs). BENCHMARK.json lists the same names; run.py
/// refuses a result whose names differ.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

/// The result record of one run. Every metric of the run's kind starts
/// at 0, so a layer the workload never reaches still appears (as 0).
class Report {
 public:
  explicit Report(const Config& config);

  /// Sets a declared metric; aborts on an undeclared name.
  void Set(const std::string& name, double value);
  /// An unbounded, informational value (quartiles, counts, rates).
  void Info(const std::string& name, double value, const std::string& unit);
  void Attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records one failed operation; `what` goes to stderr.
  void Fail(const std::string& what);
  /// Adds `n` failed operations at once.
  void FailMany(std::size_t n, const std::string& what);
  std::size_t failed() const { return failed_; }

  /// Prints the record as one JSON line on stdout.
  void Print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  const Config& config_;
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, Value>> info_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- Statistics and resources ----------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
/// 0 for an empty sample.
double Min(const std::vector<double>& values);
double Max(const std::vector<double>& values);

/// Seconds on the steady clock since an arbitrary origin.
double Now();
/// User + system CPU seconds of the whole process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// Peak resident set size of the process since the last ResetPeakRss()
/// (since start when the kernel cannot reset it), MiB. The reset first
/// returns free heap pages to the kernel, so each operation starts from
/// the same resident set whatever earlier iterations left behind.
void ResetPeakRss();
double PeakRssMb();

/// Reports median, quartiles and n of `values` as informational values
/// `<name>.p25/.p50/.p75/.n`.
void InfoQuartiles(Report* report, const std::string& name,
                   const std::vector<double>& values,
                   const std::string& unit);

// ---- Inputs -----------------------------------------------------------

/// The shape of a mining input: a paper dataset's synthetic twin at a
/// column scale, equal-depth discretized into 10 buckets.
struct MineShape {
  const char* dataset;
  double column_scale;
  std::size_t min_support;
  bool lower_bounds;
};

/// The CSV a run mines. The expression matrix is the generator's fixed
/// twin of the shape; the seed permutes its gene columns. A column
/// permutation relabels items without changing the row-enumeration tree,
/// so every seed gives different bytes but the same work, and the
/// canonical digest (items mapped back to generator genes) is the same
/// for every seed.
struct MineInput {
  std::string csv_path;
  /// Generator gene index of each CSV gene column.
  std::vector<std::uint32_t> base_gene;
};

MineInput WriteMineInput(const MineShape& shape, std::uint64_t seed,
                         const std::string& dir);

/// A parsed and discretized input with its two set-up timings.
struct LoadedInput {
  BinaryDataset data;
  Discretization disc;
  double parse_s = 0.0;
  double discretize_s = 0.0;
};

/// LoadExpressionCsv + Discretization::FitEqualDepth/Apply. `trace`
/// (nullable) receives dataset.* spans on `lane`.
LoadedInput LoadMineInput(const std::string& csv_path,
                          obs::TraceSession* trace, std::size_t lane);

MinerOptions MinerOptionsFor(const MineShape& shape, std::size_t threads);

/// FNV-1a digest (16 hex digits) of the groups in output order: row
/// sets, counts, measures, and antecedents and lower bounds with every
/// item mapped to (generator gene, bucket) and re-sorted.
std::string CanonicalDigest(const std::vector<RuleGroup>& groups,
                            const Discretization& disc,
                            const std::vector<std::uint32_t>& base_gene);

/// Digest of a 1-thread MineFarmer run on the input: the reference every
/// multi-threaded and farm run must reproduce.
std::string ReferenceDigest(const MineShape& shape, const MineInput& input);

// ---- Trace analysis ---------------------------------------------------

/// Span durations and self times per span name, over every lane. A span's
/// self time is its duration minus the durations of the spans directly
/// nested in it on the same lane.
struct SpanStats {
  std::map<std::string, std::vector<double>> durations;  // Seconds.
  std::map<std::string, double> self;                   // Seconds.

  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  std::vector<double> Durations(const std::string& name) const;
};

SpanStats AnalyzeTrace(const obs::TraceSession& session);

// ---- Workloads --------------------------------------------------------

/// mine-lb, mine-dense.
void RunMine(const Config& config, Report* report);
/// farm-dense.
void RunFarm(const Config& config, Report* report);
/// serve-cover, serve-analyst.
void RunServe(const Config& config, Report* report);

/// The input shape a workload mines (for a serve workload, the store it
/// serves). Null for an unknown workload.
const MineShape* ShapeOf(const std::string& workload, bool smoke);

}  // namespace e2e
}  // namespace farmer

#endif  // FARMER_BENCH_E2E_E2E_H_
