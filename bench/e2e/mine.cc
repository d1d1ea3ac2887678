// The mining workloads: mine-lb and mine-dense (one process, a 4-thread
// MineFarmer per iteration) and farm-dense (a Coordinator and three
// Workers over loopback FMP1 per iteration).
//
// An iteration is: parse the CSV and discretize it (set-up), then mine
// and serialize the snapshot (the timed operation), then check the
// canonical digest of the groups (untimed).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "core/farmer.h"
#include "farm/coordinator.h"
#include "farm/worker.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace farmer {
namespace e2e {
namespace {

using LayerValues = std::map<std::string, double>;

constexpr std::size_t kFarmWorkers = 3;
// Traced iterations use a fresh session each; one lane holds a whole
// mine's events (MineLB spans one per group).
constexpr std::size_t kEventsPerLane = std::size_t{1} << 17;

struct Sample {
  double setup_s = 0.0;
  double parse_s = 0.0;
  double discretize_s = 0.0;
  double mine_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string digest;
};

/// Builds the FSNP snapshot of the mined groups and serializes it; the
/// groups stay in `result`.
std::string Serialize(FarmerResult* result, const BinaryDataset& data,
                      const MinerOptions& opts, obs::TraceSession* trace,
                      std::size_t lane) {
  obs::ScopedSpan span(trace, lane, "core.serialize");
  serve::RuleGroupSnapshot snap;
  snap.groups = std::move(result->groups);
  snap.num_rows = data.num_rows();
  snap.params = serve::SnapshotParams::FromMinerOptions(opts);
  snap.fingerprint = serve::SnapshotFingerprint::FromDataset(data);
  std::string bytes = serve::SerializeSnapshot(snap);
  result->groups = std::move(snap.groups);
  return bytes;
}

double PrunedNodes(const MinerStats& s) {
  return static_cast<double>(s.pruned_by_backscan + s.pruned_by_support +
                             s.pruned_by_confidence + s.pruned_by_chi +
                             s.pruned_by_extension);
}

/// Layer values every mining workload shares.
void FillCommonLayers(const SpanStats& s, const FarmerResult& result,
                      const obs::TraceSession& trace, LayerValues* l) {
  const double nodes = static_cast<double>(result.stats.nodes_visited);
  (*l)["dataset.csv_parse_s"] = s.Total("dataset.load_csv");
  (*l)["dataset.discretize_s"] = s.Total("dataset.discretize");
  (*l)["core.build_s"] = s.Total("core.build");
  (*l)["core.nodes"] = nodes;
  (*l)["core.prune_ratio"] = nodes > 0 ? PrunedNodes(result.stats) / nodes
                                       : 0.0;
  (*l)["core.groups"] = static_cast<double>(result.groups.size());
  const std::vector<double> merges = s.Durations("merge");
  (*l)["core.merge_s"] = Sum(merges);
  (*l)["core.merge_segments"] = static_cast<double>(merges.size());
  (*l)["core.minelb_s"] = s.Total("minelb_phase");
  const std::vector<double> lbs = s.Durations("minelb");
  (*l)["core.minelb_group_us.p50"] = Quantile(lbs, 0.50) * 1e6;
  (*l)["core.minelb_group_us.p99"] = Quantile(lbs, 0.99) * 1e6;
  double truncated = 0.0;
  for (const RuleGroup& g : result.groups) {
    truncated += g.lower_bounds_truncated ? 1.0 : 0.0;
  }
  (*l)["core.minelb_truncated"] = truncated;
  (*l)["core.remap_s"] = s.Total("remap");
  (*l)["core.serialize_s"] = s.Total("core.serialize");
  (*l)["trace.dropped_events"] = static_cast<double>(trace.total_dropped());
}

/// One mine-lb / mine-dense iteration. With `trace` set, fills `layers`.
Sample MineIteration(const MineShape& shape, const MineInput& input,
                     obs::TraceSession* trace, LayerValues* layers) {
  const std::size_t lane = kThreads + 1;  // Written by no miner thread.
  Sample out;
  const double t0 = Now();
  const LoadedInput in = LoadMineInput(input.csv_path, trace, lane);
  const double t1 = Now();
  obs::MetricsRegistry metrics;
  MinerOptions opts = MinerOptionsFor(shape, kThreads);
  opts.trace = trace;
  opts.metrics = trace != nullptr ? &metrics : nullptr;
  ResetPeakRss();
  const double cpu0 = ProcessCpuSeconds();
  FarmerResult result;
  std::string bytes;
  {
    obs::ScopedSpan total(trace, lane, "e2e.mine");
    std::unique_ptr<internal::FarmerMiner> miner;
    {
      obs::ScopedSpan span(trace, lane, "core.build");
      miner = std::make_unique<internal::FarmerMiner>(in.data, opts);
    }
    result = miner->Mine();
    bytes = Serialize(&result, in.data, opts, trace, lane);
  }
  out.mine_s = Now() - t1;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  out.setup_s = t1 - t0;
  out.parse_s = in.parse_s;
  out.discretize_s = in.discretize_s;
  out.digest = bytes.empty() ? "empty-snapshot"
                             : CanonicalDigest(result.groups, in.disc,
                                               input.base_gene);
  if (trace == nullptr) return out;

  const SpanStats s = AnalyzeTrace(*trace);
  LayerValues& l = *layers;
  FillCommonLayers(s, result, *trace, &l);
  const double enum_s = s.Self("mine");
  l["core.enum_s"] = enum_s;
  l["core.nodes_per_s"] = enum_s > 0 ? l["core.nodes"] / enum_s : 0.0;
  const std::vector<double> tasks = s.Durations("task");
  l["core.task_busy_s"] = Sum(tasks);
  l["core.worker_util"] =
      enum_s > 0 ? Sum(tasks) / (static_cast<double>(kThreads) * enum_s)
                 : 0.0;
  l["core.task_s.p50"] = Median(tasks);
  l["core.task_s.max"] = Max(tasks);
  l["core.tasks_spawned"] = static_cast<double>(result.stats.tasks_spawned);
  l["core.steals"] = static_cast<double>(result.stats.task_steals);
  const double covered = s.Total("core.build") + s.Total("mine") +
                         s.Total("minelb_phase") + s.Total("remap") +
                         s.Total("core.serialize");
  const double span = s.Total("e2e.mine");
  l["trace.coverage"] = span > 0 ? covered / span : 0.0;
  return out;
}

/// One farm-dense iteration. Building the workers is left out of the
/// timed interval: in a real farm each worker process builds its miner
/// before it connects, in parallel with the others.
Sample FarmIteration(const MineShape& shape, const MineInput& input,
                     obs::TraceSession* trace, LayerValues* layers) {
  const std::size_t lane = 1;  // Lane 0 is the coordinator's miner.
  Sample out;
  const double t0 = Now();
  const LoadedInput in = LoadMineInput(input.csv_path, trace, lane);
  const double t1 = Now();
  obs::MetricsRegistry metrics;
  MinerOptions opts = MinerOptionsFor(shape, 1);
  farm::Coordinator::Options copts;
  if (trace != nullptr) copts.metrics = &metrics;
  MinerOptions coordinator_opts = opts;
  coordinator_opts.trace = trace;

  ResetPeakRss();
  double cpu0 = ProcessCpuSeconds();
  std::unique_ptr<farm::Coordinator> coordinator;
  {
    obs::ScopedSpan span(trace, lane, "core.build");
    coordinator =
        std::make_unique<farm::Coordinator>(in.data, coordinator_opts, copts);
  }
  Status started;
  {
    obs::ScopedSpan span(trace, lane, "farm.plan");
    started = coordinator->Start();
  }
  double timed = Now() - t1;
  double cpu = ProcessCpuSeconds() - cpu0;
  if (!started.ok()) {
    out.digest = "coordinator-start: " + started.ToString();
    return out;
  }

  std::vector<std::unique_ptr<farm::Worker>> workers;
  for (std::size_t w = 0; w < kFarmWorkers; ++w) {
    farm::Worker::Options wopts;
    wopts.port = coordinator->port();
    wopts.name = "e2e-w" + std::to_string(w);
    wopts.no_work_poll_s = 0.005;
    workers.push_back(std::make_unique<farm::Worker>(in.data, opts, wopts));
  }

  const double t2 = Now();
  cpu0 = ProcessCpuSeconds();
  FarmerResult result;
  std::string bytes;
  bool completed = false;
  {
    obs::ScopedSpan span(trace, lane, "farm.wait");
    std::vector<Status> statuses(kFarmWorkers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kFarmWorkers; ++w) {
      threads.emplace_back(
          [&workers, &statuses, w] { statuses[w] = workers[w]->Run(); });
    }
    // Workers return on the coordinator's kDone broadcast, so joining
    // them first keeps Finalize from cutting that broadcast off.
    for (std::thread& t : threads) t.join();
    completed = coordinator->WaitForCompletion(60.0);
    for (const Status& st : statuses) completed = completed && st.ok();
  }
  if (completed) {
    {
      obs::ScopedSpan span(trace, lane, "farm.finalize");
      result = coordinator->Finalize();
    }
    bytes = Serialize(&result, in.data, opts, trace, lane);
  }
  timed += Now() - t2;
  cpu += ProcessCpuSeconds() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  out.mine_s = timed;
  out.cpu_s = cpu;
  out.setup_s = t1 - t0;
  out.parse_s = in.parse_s;
  out.discretize_s = in.discretize_s;
  if (!completed) {
    coordinator->Stop();
    out.digest = "farm-incomplete";
    return out;
  }
  out.digest = bytes.empty() ? "empty-snapshot"
                             : CanonicalDigest(result.groups, in.disc,
                                               input.base_gene);
  if (trace == nullptr) return out;

  const SpanStats s = AnalyzeTrace(*trace);
  LayerValues& l = *layers;
  FillCommonLayers(s, result, *trace, &l);
  const farm::Coordinator::Stats st = coordinator->stats();
  l["farm.plan_s"] = s.Total("farm.plan");
  l["farm.wait_s"] = s.Total("farm.wait");
  l["farm.finalize_s"] = s.Total("farm.finalize");
  l["farm.bytes_in"] =
      static_cast<double>(metrics.GetCounter("farm.bytes_in")->value());
  l["farm.bytes_out"] =
      static_cast<double>(metrics.GetCounter("farm.bytes_out")->value());
  l["farm.leases"] = static_cast<double>(st.leases_granted);
  l["farm.releases"] = static_cast<double>(st.releases);
  l["farm.duplicates"] = static_cast<double>(st.duplicate_results);
  const double covered = s.Total("core.build") + s.Total("farm.plan") +
                         s.Total("farm.wait") + s.Total("farm.finalize") +
                         s.Total("core.serialize");
  l["trace.coverage"] = timed > 0 ? covered / timed : 0.0;
  return out;
}

/// In-process replay of the farm decomposition: every lease mined
/// serially through PlanFarm / MineFarmLease / FinalizeFarm, timed per
/// lease. The spread of lease times is what bounds a farm's speedup.
void ReplayFarm(const MineShape& shape, const MineInput& input,
                const std::string& expect, Report* report, LayerValues* l) {
  const LoadedInput in = LoadMineInput(input.csv_path, nullptr, 0);
  internal::FarmerMiner miner(in.data, MinerOptionsFor(shape, 1));
  const internal::FarmerMiner::FarmPlan& plan = miner.PlanFarm();
  std::vector<MineSegment> segments = plan.root_segments;
  MinerStats stats = plan.root_stats;
  std::vector<double> lease_s;
  for (const std::uint32_t row : plan.lease_rows) {
    const double t = Now();
    MinerStats lease_stats;
    std::vector<MineSegment> out = miner.MineFarmLease(row, nullptr,
                                                       &lease_stats);
    lease_s.push_back(Now() - t);
    stats.MergeFrom(lease_stats);
    for (MineSegment& seg : out) segments.push_back(std::move(seg));
  }
  const FarmerResult result =
      miner.FinalizeFarm(std::move(segments), stats);
  report->Attempt();
  const std::string digest =
      CanonicalDigest(result.groups, in.disc, input.base_gene);
  if (digest != expect) {
    report->Fail("farm replay digest " + digest + " != " + expect);
  }
  // Leases are granted in ascending row order to whichever worker asks
  // next: greedy list scheduling onto kFarmWorkers workers.
  std::vector<double> free_at(kFarmWorkers, 0.0);
  for (double d : lease_s) {
    *std::min_element(free_at.begin(), free_at.end()) += d;
  }
  const double makespan = Max(free_at);
  const double mean = lease_s.empty() ? 0.0 : Sum(lease_s) / lease_s.size();
  (*l)["farm.lease_s.p50"] = Median(lease_s);
  (*l)["farm.lease_s.max"] = Max(lease_s);
  (*l)["farm.lease_skew"] = mean > 0 ? Max(lease_s) / mean : 0.0;
  (*l)["farm.worker_util"] =
      makespan > 0 ? Sum(lease_s) / (kFarmWorkers * makespan) : 0.0;
}

using IterationFn = Sample (*)(const MineShape&, const MineInput&,
                               obs::TraceSession*, LayerValues*);

void CheckDigests(const std::vector<Sample>& samples,
                  const std::string& expect, Report* report) {
  for (const Sample& s : samples) {
    report->Attempt();
    if (s.digest != expect) {
      report->Fail("digest " + s.digest + " != expected " + expect);
    }
  }
}

/// `fastest`: report the fastest iteration's mine time and CPU, else the
/// median's. A single-process mine does the same work every iteration,
/// so the shared host's slow stretches only add time and the fastest
/// iteration is the program's cost. A farm mine's time also depends on
/// which worker leases which subtree; its fastest iteration is a lucky
/// schedule, its median the typical one.
void RunMining(const Config& config, IterationFn iteration,
               std::size_t trace_lanes, bool fastest, Report* report) {
  const auto statistic = [fastest](const std::vector<double>& v) {
    return fastest ? Min(v) : Median(v);
  };
  const MineShape& shape = *ShapeOf(config.workload, config.smoke);
  const MineInput input =
      WriteMineInput(shape, config.seed, config.work_dir);
  const std::size_t min_iters = config.smoke ? 1 : 3;

  std::vector<Sample> samples;
  samples.push_back(iteration(shape, input, nullptr, nullptr));  // Warm-up.
  // Untraced iterations: the measurement, or in a traced run the
  // baseline the tracing overhead is taken against.
  std::vector<Sample> timed;
  const double start = Now();
  const std::size_t max_timed =
      config.trace || config.smoke ? min_iters : 1000;
  while (timed.size() < max_timed &&
         (timed.size() < min_iters || Now() - start < config.seconds)) {
    timed.push_back(iteration(shape, input, nullptr, nullptr));
  }

  std::vector<LayerValues> traced;
  std::vector<double> traced_mine_s;
  if (config.trace) {
    for (std::size_t i = 0; i < min_iters; ++i) {
      obs::TraceSession session(trace_lanes, kEventsPerLane);
      LayerValues layers;
      const Sample s = iteration(shape, input, &session, &layers);
      samples.push_back(s);
      traced_mine_s.push_back(s.mine_s);
      traced.push_back(std::move(layers));
      if (i + 1 == min_iters) {
        const std::string path =
            config.work_dir + "/trace_" + config.workload + ".json";
        const Status written = session.WriteJsonFile(path);
        if (!written.ok()) report->Fail("trace write: " + written.ToString());
      }
    }
  }

  const std::string expect = config.expect_digest.empty()
                                 ? ReferenceDigest(shape, input)
                                 : config.expect_digest;
  samples.insert(samples.end(), timed.begin(), timed.end());
  CheckDigests(samples, expect, report);

  std::vector<double> setup, parse, disc, mine, cpu, rss;
  for (const Sample& s : timed) {
    setup.push_back(s.setup_s);
    parse.push_back(s.parse_s);
    disc.push_back(s.discretize_s);
    mine.push_back(s.mine_s);
    cpu.push_back(s.cpu_s);
    rss.push_back(s.peak_rss_mb);
  }
  if (!config.trace) {
    // Parsing and discretizing are the same work in every iteration.
    report->Set("setup_s", Min(setup));
    report->Set("latency_ms", statistic(mine) * 1e3);
    report->Set("cpu_ms", statistic(cpu) * 1e3);
    report->Set("peak_rss_mb", Median(rss));
    InfoQuartiles(report, "mine_s", mine, "s");
    InfoQuartiles(report, "cpu_s", cpu, "s");
    InfoQuartiles(report, "setup_s", setup, "s");
    report->Info("dataset.csv_parse_s", Median(parse), "s");
    report->Info("dataset.discretize_s", Median(disc), "s");
    return;
  }

  LayerValues merged;
  for (const LayerValues& l : traced) {
    for (const auto& [name, value] : l) merged[name] = 0.0;
  }
  for (auto& [name, value] : merged) {
    std::vector<double> per_iteration;
    for (const LayerValues& l : traced) {
      const auto it = l.find(name);
      per_iteration.push_back(it == l.end() ? 0.0 : it->second);
    }
    value = name == "trace.dropped_events" ? Max(per_iteration)
                                           : Median(per_iteration);
  }
  if (config.workload == "farm-dense") {
    ReplayFarm(shape, input, expect, report, &merged);
  }
  merged["trace.overhead"] =
      statistic(mine) > 0 ? statistic(traced_mine_s) / statistic(mine) : 0.0;
  for (const auto& [name, value] : merged) report->Set(name, value);
}

}  // namespace

void RunMine(const Config& config, Report* report) {
  RunMining(config, &MineIteration, kThreads + 2, /*fastest=*/true, report);
}

void RunFarm(const Config& config, Report* report) {
  RunMining(config, &FarmIteration, 2, /*fastest=*/false, report);
}

}  // namespace e2e
}  // namespace farmer
