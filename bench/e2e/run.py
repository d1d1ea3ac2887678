#!/usr/bin/env python3
"""End-to-end benchmark of FARMER: mine, farm and serve.

Builds bench_e2e (a standalone CMake project over the repository's
sources) into .bench_build/ at the repository root, runs workloads, checks
their outputs and prints their metrics.

  python3 bench/e2e/run.py --seed 1 [--traced] [--out results.jsonl]
      every workload; prints `workload metric value unit` lines and
      appends one record per run to --out (input of compare.py)
  python3 bench/e2e/run.py --workload mine-lb --seed 3 --seconds 20 \\
      --trace 0
      one workload; the last stdout line is the JSON result
      {"correct", "attempted", "failed", "metrics"}
  python3 bench/e2e/run.py --smoke [--binary PATH]
      every workload on tiny inputs, untraced and traced: outputs must be
      correct and metric names must match BENCHMARK.json
  python3 bench/e2e/run.py --reference
      recomputes the reference digests (1-thread mines) and compares
      them with reference.json

Exit status: 0 when every check passed, 1 when an output was wrong, 2
when the benchmark could not run (no sources, build failure, bad
arguments).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2e")
WORK = os.path.join(BUILD_ROOT, "work")

WORKLOADS = ["mine-lb", "mine-dense", "farm-dense", "serve-cover",
             "serve-analyst"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def die(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(2)


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("no BENCHMARK.json at %s" % ROOT)
    return load_json(path)


def build():
    """Configures and builds bench_e2e; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        die("the farmer sources (CMakeLists.txt, src/) are not in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (step[:2], e))
            if done.returncode != 0:
                log.flush()
                with open(log_path, "r", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "bench_e2e")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_trace_file(workload):
    """Validates the traced run's Chrome trace with tools/check_trace.py."""
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    trace = os.path.join(WORK, "trace_%s.json" % workload)
    if not os.path.isfile(checker):
        return True
    if workload.startswith("serve-"):
        required = "serve.parse,serve.cache_lookup,serve.snapshot_load"
    elif workload == "farm-dense":
        required = "merge,farm.wait,core.build"
    else:
        required = "mine,merge,task,core.build"
    done = subprocess.run([sys.executable, checker, "--require", required,
                           trace], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode == 0


def run_workload(binary, spec, reference, workload, seed, seconds, trace,
                 smoke):
    """Runs one workload; returns its record (the binary's JSON)."""
    os.makedirs(WORK, exist_ok=True)
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "1" if trace else "0",
            "--work-dir", WORK]
    if smoke:
        # Tiny inputs have no frozen digest: the binary compares against
        # a 1-thread in-process mine instead.
        args.append("--smoke")
        qps = reference["smoke_nominal_qps"]
    else:
        args += ["--expect-digest", reference["digests"][workload]]
        qps = reference["nominal_qps"].get(workload, 0)
    if workload.startswith("serve-"):
        args += ["--nominal-qps", str(qps)]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        die("%s printed no result (exit %d)" % (workload, done.returncode))
    record = json.loads(lines[-1])
    want = expected_metrics(spec, trace)
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    if got != want:
        die("%s: metrics %s do not match BENCHMARK.json %s" %
            (workload, sorted(got.items()), sorted(want.items())))
    if trace and not check_trace_file(workload):
        record["correct"] = False
    return record


def print_record(record):
    w = record["workload"]
    for section in ("metrics", "info"):
        for name, m in record[section].items():
            print("%s %s %.9g %s" % (w, name, m["value"], m["unit"]))
    host = record["host"]
    print("%s host nproc=%s cpu=%r simd=%s active=%s compiler=%r build=%s" %
          (w, host["nproc"], host["cpu_model"], host["simd"],
           record["simd_active"], host["compiler"], host["build_type"]))
    print("%s correct=%s attempted=%d failed=%d" %
          (w, record["correct"], record["attempted"], record["failed"]))
    sys.stdout.flush()


def result_line(record):
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    })


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: the traced run, per-layer metrics")
    p.add_argument("--traced", action="store_true",
                   help="with --workload all: also run each workload traced")
    p.add_argument("--reverse", action="store_true",
                   help="with --workload all: run the workloads in reverse "
                        "order")
    p.add_argument("--out", help="append one JSON record per run here")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reference", action="store_true")
    p.add_argument("--binary", help="use this bench_e2e, do not build")
    args = p.parse_args(argv)

    spec = benchmark_spec()
    reference = load_json(os.path.join(HERE, "reference.json"))
    binary = args.binary or build()
    os.makedirs(WORK, exist_ok=True)

    if args.reference:
        ok = True
        for w in WORKLOADS:
            out = subprocess.run([binary, "--workload", w, "--seed",
                                  str(args.seed), "--reference",
                                  "--work-dir", WORK],
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S, check=True)
            digest = out.stdout.strip()
            stored = reference["digests"][w]
            print("%s %s stored %s %s" % (w, digest, stored,
                                          "ok" if digest == stored
                                          else "DIFFERS"))
            ok = ok and digest == stored
        return 0 if ok else 1

    seconds = args.seconds
    if seconds is None:
        seconds = 0.7 if args.smoke else float(spec["run_seconds"])
    if args.workload != "all" and not args.smoke:
        record = run_workload(binary, spec, reference, args.workload,
                              args.seed, seconds, args.trace == 1, False)
        print_record(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
        print(result_line(record))
        return 0 if record["correct"] else 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.reverse:
        workloads = list(reversed(workloads))
    traces = [False, True] if (args.traced or args.smoke) else [False]
    records = []
    for w in workloads:
        for trace in traces:
            record = run_workload(binary, spec, reference, w, args.seed,
                                  seconds, trace, args.smoke)
            print_record(record)
            records.append(record)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {"%s/%s" % (r["workload"], k): v
                    for r in records if not r["trace"]
                    for k, v in r["metrics"].items()},
    }))
    if args.smoke:
        print("smoke %s" % ("ok" if correct else "FAILED"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
