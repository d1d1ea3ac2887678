// bench_e2e: runs one workload of the end-to-end benchmark and prints
// its result record as the last line of stdout. run.py builds this
// binary, passes the frozen reference values, and checks the record.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--expect-digest HEX] [--nominal-qps R]
//             [--smoke] [--reference]
//
// --reference prints the canonical digest of a 1-thread mine of the
// workload's input and exits (how the digests in reference.json were
// made).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/e2e/e2e.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "mine-lb|mine-dense|farm-dense|serve-cover|serve-analyst "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--expect-digest HEX] [--nominal-qps R] [--smoke] "
               "[--reference]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace farmer::e2e;
  Config config;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      config.workload = value();
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      config.trace = value() == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value();
    } else if (flag == "--expect-digest") {
      config.expect_digest = value();
    } else if (flag == "--nominal-qps") {
      config.nominal_qps = std::atof(value().c_str());
    } else if (flag == "--smoke") {
      config.smoke = true;
    } else if (flag == "--reference") {
      reference = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const MineShape* shape = ShapeOf(config.workload, config.smoke);
  if (shape == nullptr) Usage("unknown or missing --workload");
  if (config.seconds <= 0.0) Usage("--seconds must be positive");

  if (reference) {
    const MineInput input =
        WriteMineInput(*shape, config.seed, config.work_dir);
    std::printf("%s\n", ReferenceDigest(*shape, input).c_str());
    return 0;
  }

  const bool serve = config.workload.rfind("serve-", 0) == 0;
  if (serve && config.nominal_qps <= 0.0) Usage("--nominal-qps required");

  Report report(config);
  if (serve) {
    RunServe(config, &report);
  } else if (config.workload == "farm-dense") {
    RunFarm(config, &report);
  } else {
    RunMine(config, &report);
  }
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
