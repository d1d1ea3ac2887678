#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

  python3 bench/e2e/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are result sets: JSON-lines files written by
`run.py --out` (one record per run), comma-separated lists of such files,
or FILE@NAME to select the records of a file whose "set" field is NAME
(the committed baselines hold several sets in one file).

For every (workload, end-to-end metric) row it prints each side's median,
quartiles and run count, the change of the median, and a verdict:

  regressed   the median worsened by more than the metric's bound
  improved    the median improved by more than the base's own quartile
              spread and the change won at least 9 of 10 paired runs (or
              every change run beats every base run)
  unresolved  a side's quartile spread is wider than the bound, so a
              change within it cannot be told from noise
  unchanged   everything else

From traced records (run.py --traced) it then names, per workload, the
per-layer metrics whose medians moved most.

It refuses (exit 2) to compare results whose host context (CPU count,
CPU model, widest SIMD tier, compiler, build type) differs. Exit 1 when a
row regressed, else 0. Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "simd", "compiler", "build_type")
MOVERS = 3  # Layer metrics named per workload, of times and of others.
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def load_set(spec):
    records = []
    for part in spec.split(","):
        path, _, name = part.partition("@")
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if name and record.get("set") != name:
                    continue
                records.append(record)
    if not records:
        raise SystemExit("compare.py: no records in %s" % spec)
    return records


def host_of(records, label):
    hosts = {json.dumps({k: r["host"][k] for k in HOST_KEYS},
                        sort_keys=True) for r in records}
    if len(hosts) != 1:
        raise SystemExit("compare.py: %s mixes host contexts: %s" %
                         (label, sorted(hosts)))
    return json.loads(hosts.pop())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def group(records, traced):
    """{(workload, metric): [(seed, value), ...]} in record order."""
    out = {}
    for r in records:
        if bool(r["trace"]) != traced:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(
                (r["seed"], m["value"]))
    return out


def paired_wins(base, change, higher):
    """Share of runs the change won, pairing runs by seed when the seeds
    match and by position otherwise; ties count for neither side."""
    base_by_seed = {}
    for seed, v in base:
        base_by_seed.setdefault(seed, []).append(v)
    pairs = []
    for i, (seed, v) in enumerate(change):
        if base_by_seed.get(seed):
            pairs.append((base_by_seed[seed].pop(0), v))
        elif i < len(base):
            pairs.append((base[i][1], v))
    if not pairs:
        return 0.0
    wins = sum(1 for b, c in pairs if (c > b if higher else c < b))
    return wins / len(pairs)


def verdict(base, change, bound, higher):
    b = [v for _, v in base]
    c = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    if bmed == 0:
        return "unresolved", 0.0
    worse = ((bmed - cmed) if higher else (cmed - bmed)) / abs(bmed)
    spread = max((bq3 - bq1) / abs(bmed),
                 (cq3 - cq1) / abs(cmed) if cmed else math.inf)
    better_all = (min(c) > max(b)) if higher else (max(c) < min(b))
    if worse > bound:
        return "regressed", worse
    if spread > bound:
        return ("improved" if better_all else "unresolved"), worse
    wins = paired_wins(base, change, higher)
    if -worse > (bq3 - bq1) / abs(bmed) and (wins >= 0.9 or better_all):
        return "improved", worse
    return "unchanged", worse


def fmt(values):
    q1, med, q3 = quartiles([v for _, v in values])
    return "%11.5g [%9.4g,%9.4g] n=%-2d" % (med, q1, q3, len(values))


def main(argv):
    p = argparse.ArgumentParser(
        description="Compare two sets of bench/e2e results.")
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(os.path.abspath(
                       __file__)), "..", "..", "BENCHMARK.json"))
    args = p.parse_args(argv)

    with open(args.benchmark, "r", encoding="utf-8") as f:
        spec = json.load(f)
    base = load_set(args.base)
    change = load_set(args.change)
    hb, hc = host_of(base, "BASE"), host_of(change, "CHANGE")
    if hb != hc:
        diff = {k: (hb[k], hc[k]) for k in HOST_KEYS if hb[k] != hc[k]}
        sys.stderr.write("compare.py: refusing to compare results from "
                         "different hosts: %s\n" % diff)
        return 2
    print("host: %s" % ", ".join("%s=%s" % (k, hb[k]) for k in HOST_KEYS))

    gb, gc = group(base, False), group(change, False)
    workloads = []
    for r in base + change:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    print("\n%-14s %-17s %-40s %-40s %8s %6s  %s" %
          ("workload", "metric", "base median [q1,q3] n",
           "change median [q1,q3] n", "worse", "bound", "verdict"))
    counts = {}
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in gb or key not in gc:
                continue
            v, worse = verdict(gb[key], gc[key], m["bound"],
                               m["better"] == "higher")
            counts[v] = counts.get(v, 0) + 1
            print("%-14s %-17s %-40s %-40s %+7.1f%% %5.0f%%  %s" %
                  (w, m["name"], fmt(gb[key]), fmt(gc[key]), 100 * worse,
                   100 * m["bound"], v))
    print("\n" + ", ".join("%d %s" % (n, v) for v, n in sorted(
        counts.items())))

    # Times rank by the seconds they moved, which says where an end-to-end
    # change went; counts and ratios by their relative change.
    lb, lc = group(base, True), group(change, True)
    units = {(r["workload"], name): m["unit"] for r in base + change
             if r["trace"] for name, m in r["metrics"].items()}
    times, others = {}, {}
    for key in lb:
        if key not in lc:
            continue
        mb = statistics.median(v for _, v in lb[key])
        mc = statistics.median(v for _, v in lc[key])
        if mb == mc:
            continue
        rel = math.inf if mb == 0 else (mc - mb) / abs(mb)
        row = (key[1], mb, mc, rel)
        scale = TIME_UNITS.get(units[key])
        if scale is not None:
            times.setdefault(key[0], []).append((abs(mc - mb) * scale, row))
        else:
            others.setdefault(key[0], []).append((abs(rel), row))
    if times or others:
        print("\nlayer metrics that moved most (traced runs, medians; times "
              "by seconds moved, then others by relative change):")
        for w in workloads:
            for movers in (times, others):
                for _, (name, mb, mc, rel) in sorted(
                        movers.get(w, []), key=lambda m: m[0],
                        reverse=True)[:MOVERS]:
                    print("  %-14s %-26s %12.5g -> %-12.5g %+8.1f%%" %
                          (w, name, mb, mc, 100 * rel))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
