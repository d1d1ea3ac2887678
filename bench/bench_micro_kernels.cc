// Micro benchmarks of the library's hot kernels: bitset algebra,
// chi-square bounds, tidset intersection, and a full small FARMER run.
// The word-parallel miner kernels (AndCount / AndCountPrefix) are
// benchmarked against the sorted-vector + binary_search loops they
// replaced, and a SIMD sweep times every kernel under each supported
// instruction-set tier (scalar / sse42 / avx2 / avx512) with speedups
// against the scalar tier.
//
// Results are also written to BENCH_micro_kernels.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "core/farmer.h"
#include "core/measures.h"
#include "dataset/discretize.h"
#include "dataset/synthetic.h"
#include "dataset/transpose.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/simd/simd.h"

namespace {

using namespace farmer;

// A random (bitset, sorted vector) pair over the same positions, the two
// representations the old and new kernels consume.
struct DualSet {
  Bitset bits;
  std::vector<std::size_t> sorted;
};

DualSet MakeDualSet(std::size_t bits, double density, Rng& rng) {
  DualSet d;
  d.bits.Resize(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) {
      d.bits.Set(i);
      d.sorted.push_back(i);
    }
  }
  return d;
}

void BM_BitsetIntersectCount(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Bitset a(bits), b(bits);
  Rng rng(1);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(0.5)) a.Set(i);
    if (rng.NextBool(0.5)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
}
BENCHMARK(BM_BitsetIntersectCount)->Arg(128)->Arg(1024)->Arg(8192);

void BM_BitsetSupersetCheck(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Bitset small(bits), big(bits);
  Rng rng(2);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(0.3)) {
      small.Set(i);
      big.Set(i);
    } else if (rng.NextBool(0.3)) {
      big.Set(i);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.IsSubsetOf(big));
  }
}
BENCHMARK(BM_BitsetSupersetCheck)->Arg(128)->Arg(1024);

void BM_ChiSquareUpperBound(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    const std::size_t n = 100, m = 46;
    const std::size_t y = rng.NextBelow(m + 1);
    const std::size_t x = y + rng.NextBelow(n - m + 1);
    benchmark::DoNotOptimize(ChiSquareUpperBound(x, y, n, m));
  }
}
BENCHMARK(BM_ChiSquareUpperBound);

void BM_TransposeBuild(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_rows = 60;
  spec.num_genes = static_cast<std::size_t>(state.range(0));
  spec.num_class1 = 30;
  spec.seed = 4;
  ExpressionMatrix m = GenerateSynthetic(spec);
  BinaryDataset ds = Discretization::FitEqualDepth(m, 10).Apply(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransposedTable::Build(ds));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.num_genes));
}
BENCHMARK(BM_TransposeBuild)->Arg(200)->Arg(800);

void BM_FarmerSmallRun(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_rows = 40;
  spec.num_genes = static_cast<std::size_t>(state.range(0));
  spec.num_class1 = 20;
  spec.seed = 5;
  ExpressionMatrix m = GenerateSynthetic(spec);
  BinaryDataset ds = Discretization::FitEqualDepth(m, 10).Apply(m);
  MinerOptions opts;
  opts.min_support = 10;
  opts.min_confidence = 0.9;
  opts.mine_lower_bounds = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineFarmer(ds, opts));
  }
}
BENCHMARK(BM_FarmerSmallRun)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

// --- New word-parallel kernels vs the binary_search loops they replaced.

// Old: count |a ∩ b| by walking a's sorted list and binary-searching b's.
void BM_AndCount_BinarySearch(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  DualSet a = MakeDualSet(bits, 0.4, rng);
  DualSet b = MakeDualSet(bits, 0.4, rng);
  for (auto _ : state) {
    std::size_t count = 0;
    for (std::size_t pos : a.sorted) {
      if (std::binary_search(b.sorted.begin(), b.sorted.end(), pos)) ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_AndCount_BinarySearch)->Arg(128)->Arg(1024)->Arg(8192);

// New: one popcount pass over the words.
void BM_AndCount_Bitset(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  DualSet a = MakeDualSet(bits, 0.4, rng);
  DualSet b = MakeDualSet(bits, 0.4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.bits.AndCount(b.bits));
  }
}
BENCHMARK(BM_AndCount_Bitset)->Arg(128)->Arg(1024)->Arg(8192);

// Old: count class-C members of a tuple's candidate list by walking the
// sorted candidates, binary-searching the tuple, stopping at the class
// boundary.
void BM_AndCountPrefix_BinarySearch(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const std::size_t m = bits / 2;
  Rng rng(12);
  DualSet tuple = MakeDualSet(bits, 0.5, rng);
  DualSet cand = MakeDualSet(bits, 0.5, rng);
  for (auto _ : state) {
    std::size_t count = 0;
    for (std::size_t pos : cand.sorted) {
      if (pos >= m) break;
      if (std::binary_search(tuple.sorted.begin(), tuple.sorted.end(),
                             pos)) {
        ++count;
      }
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_AndCountPrefix_BinarySearch)->Arg(128)->Arg(1024)->Arg(8192);

// New: masked popcount over the prefix words.
void BM_AndCountPrefix_Bitset(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const std::size_t m = bits / 2;
  Rng rng(12);
  DualSet tuple = MakeDualSet(bits, 0.5, rng);
  DualSet cand = MakeDualSet(bits, 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuple.bits.AndCountPrefix(cand.bits, m));
  }
}
BENCHMARK(BM_AndCountPrefix_Bitset)->Arg(128)->Arg(1024)->Arg(8192);

// --- Per-(kernel, SIMD tier) sweep ----------------------------------
//
// Forces each supported kernel tier in turn and times the dispatching
// Bitset entry points on 8192-bit sets, emitting one JSON row per
// (kernel, level) with the speedup against the scalar tier. Two
// conditions exit nonzero: a forced level that silently fell back to
// another tier (the dispatcher must refuse unsupported levels, never
// degrade quietly), and a widest vector tier that fails to reach 1.5x
// over scalar on AndCount / AndCountPrefix. A host with no vector tier
// prints a skip for the speedup gate instead of failing.

constexpr std::size_t kSweepBits = 8192;

// Median of 5 timed repetitions, iteration count calibrated so each
// repetition runs for at least ~5 ms.
template <typename Body>
double MedianNsPerOp(Body&& body) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_for = [&](std::size_t iters) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::size_t iters = 64;
  while (seconds_for(iters) < 5e-3 && iters < (std::size_t{1} << 26)) {
    iters *= 4;
  }
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    reps.push_back(seconds_for(iters) * 1e9 / static_cast<double>(iters));
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

int RunSimdLevelSweep(farmer::bench::JsonWriter* json) {
  Rng rng(21);
  Bitset a(kSweepBits), b(kSweepBits);
  for (std::size_t i = 0; i < kSweepBits; ++i) {
    if (rng.NextBool(0.5)) a.Set(i);
    if (rng.NextBool(0.5)) b.Set(i);
  }
  Bitset out(kSweepBits), acc(kSweepBits);
  std::size_t sink = 0;

  struct SweepKernel {
    const char* name;
    std::function<void()> run;
  };
  const std::vector<SweepKernel> kernels = {
      {"AndCount", [&] { sink += a.AndCount(b); }},
      {"AndCountPrefix",
       [&] { sink += a.AndCountPrefix(b, kSweepBits / 2); }},
      {"Count", [&] { sink += a.Count(); }},
      {"AndInto", [&] { Bitset::AndInto(a, b, &out); }},
      {"OrAnd", [&] { acc.OrAnd(a, b); }},
  };

  const simd::Level prior = simd::ActiveLevel();
  std::map<std::string, double> scalar_ns;
  std::map<std::string, double> widest_speedup;
  simd::Level widest = simd::Level::kScalar;
  int rc = 0;

  for (int l = 0; l < simd::kNumLevels && rc == 0; ++l) {
    const auto level = static_cast<simd::Level>(l);
    if (!simd::LevelSupported(level)) {
      std::printf("simd sweep: %-6s unsupported here, skipped\n",
                  simd::LevelName(level));
      continue;
    }
    if (!simd::ForceLevel(level) || simd::ActiveLevel() != level) {
      std::fprintf(stderr,
                   "simd sweep: forcing %s silently fell back to %s\n",
                   simd::LevelName(level),
                   simd::LevelName(simd::ActiveLevel()));
      rc = 1;
      break;
    }
    widest = level;
    for (const SweepKernel& k : kernels) {
      const double ns = MedianNsPerOp(k.run);
      if (level == simd::Level::kScalar) scalar_ns[k.name] = ns;
      const double speedup = scalar_ns.count(k.name) != 0 && ns > 0.0
                                 ? scalar_ns[k.name] / ns
                                 : 0.0;
      widest_speedup[k.name] = speedup;
      std::printf("simd sweep: %-14s %-6s %8.1f ns/op  %5.2fx vs scalar\n",
                  k.name, simd::LevelName(level), ns, speedup);
      // JsonWriter::Add also stamps the row with the active level as
      // "simd_level"; "level" is kept explicit so the row is
      // self-describing even if the telemetry fields change.
      json->Add(farmer::bench::JsonRecord()
                    .Str("bench", "micro_kernels")
                    .Str("name", std::string("SimdSweep/") + k.name)
                    .Str("level", simd::LevelName(level))
                    .Num("ns_per_op", ns)
                    .Num("speedup_vs_scalar", speedup)
                    .Int("bits", static_cast<long long>(kSweepBits)));
    }
  }
  benchmark::DoNotOptimize(sink);

  if (rc == 0) {
    if (widest == simd::Level::kScalar) {
      std::printf(
          "simd sweep: no vector tier on this host; 1.5x gate skipped\n");
    } else {
      for (const char* name : {"AndCount", "AndCountPrefix"}) {
        const double speedup = widest_speedup[name];
        if (speedup < 1.5) {
          std::fprintf(stderr,
                       "simd sweep: %s at %s reached only %.2fx vs scalar "
                       "(need >= 1.5x)\n",
                       name, simd::LevelName(widest), speedup);
          rc = 1;
        }
      }
    }
  }

  if (!simd::ForceLevel(prior)) rc = 1;
  json->Flush();
  return rc;
}

// Reporter that mirrors the console output into BENCH_micro_kernels.json.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonMirrorReporter(farmer::bench::JsonWriter* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      json_->Add(farmer::bench::JsonRecord()
                     .Str("bench", "micro_kernels")
                     .Str("name", run.benchmark_name())
                     .Num("seconds",
                          run.iterations > 0
                              ? run.real_accumulated_time / run.iterations
                              : 0.0)
                     .Int("iterations",
                          static_cast<long long>(run.iterations))
                     .Int("threads", static_cast<long long>(run.threads)));
    }
    json_->Flush();
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  farmer::bench::JsonWriter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  farmer::bench::JsonWriter json("micro_kernels");
  const int sweep_rc = RunSimdLevelSweep(&json);
  JsonMirrorReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  std::printf("json: %s\n", json.path().c_str());
  return sweep_rc;
}
