#!/usr/bin/env python3
"""Self-test of compare.py on the result sets in fixtures/.

Each case compares fixtures/base.jsonl with another fixture under the
bounds of fixtures/benchmark.json and checks the exit status, every
verdict, and the named layer mover. Exit 0 when all cases pass.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# change fixture -> (exit status, {metric: verdict}, layer metric named
# first among the movers, or None)
CASES = {
    "same.jsonl": (0, {"latency_ms": "unchanged",
                       "throughput_per_s": "unchanged"}, "core.merge_s"),
    "slow.jsonl": (1, {"latency_ms": "regressed",
                       "throughput_per_s": "regressed"}, "core.merge_s"),
    "fast.jsonl": (0, {"latency_ms": "improved",
                       "throughput_per_s": "improved"}, "core.merge_s"),
    "noisy.jsonl": (0, {"latency_ms": "unresolved",
                        "throughput_per_s": "unchanged"}, None),
    "other_host.jsonl": (2, {}, None),
}


def run_case(change, want_status, want_verdicts, want_mover):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         os.path.join(FIXTURES, "base.jsonl"),
         os.path.join(FIXTURES, change),
         "--benchmark", os.path.join(FIXTURES, "benchmark.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    errors = []
    if done.returncode != want_status:
        errors.append("exit %d, want %d" % (done.returncode, want_status))
    rows = {}
    movers = []
    for line in done.stdout.splitlines():
        fields = line.split()
        if line.startswith("  mine-dense"):
            movers.append(fields[1])
        elif line.startswith("mine-dense"):
            rows[fields[1]] = fields[-1]
    for metric, verdict in want_verdicts.items():
        if rows.get(metric) != verdict:
            errors.append("%s: %s, want %s" % (metric, rows.get(metric),
                                                verdict))
    if want_mover is not None and movers[:1] != [want_mover]:
        errors.append("first mover %s, want %s" % (movers[:1], want_mover))
    return errors


def main():
    failed = 0
    for change, (status, verdicts, mover) in CASES.items():
        errors = run_case(change, status, verdicts, mover)
        print("%-18s %s" % (change, "ok" if not errors else
                            "FAIL: " + "; ".join(errors)))
        failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
