#!/usr/bin/env python3
"""Project-specific lint for the FARMER tree.

Clang's -Wthread-safety proves the lock discipline *inside* the
annotated vocabulary (src/util/sync.h); this linter enforces the
project rules the compiler cannot express — that the vocabulary is the
only way to lock at all, that the SIMD kernel TUs stay pure, that the
event-loop regions never block, and that per-ISA -m flags stay confined
to their own translation units.

The engine is deliberately lexical (comments and string literals are
stripped before token rules run) and dependency-free: it needs only a
Python 3 interpreter, so it runs identically on a contributor laptop
without a clang toolchain, in CI, and as a ctest target. The one
context-sensitive rule (isa-flags) reads compile_commands.json, which
any CMake configure emits.

Rules (also: --list-rules):

  raw-sync
      No std::mutex / std::lock_guard / std::unique_lock /
      std::scoped_lock / std::condition_variable (or their headers)
      anywhere under src/ except src/util/sync.h. All locking goes
      through the annotated Mutex / MutexLock / CondVar wrappers so the
      thread-safety analysis sees every acquisition.

  kernel-purity
      The SIMD kernel TUs (src/util/simd/kernels_*.cc and the shared
      .inc) must not allocate or perform I/O: no new/delete/malloc, no
      containers, no stdio/iostream. They are called from the innermost
      mining loops and must stay branch-and-arithmetic only.

  nodiscard-contract
      The error-carrying types stay [[nodiscard]]: class Status and
      class StatusOr in src/util/status.h, and the Bitset count/query
      kernels in src/util/bitset.h. The compiler enforces call sites;
      this rule stops the attribute itself from quietly disappearing.

  event-loop-blocking
      Code between `// farmer-lint: begin(event-loop)` and
      `// farmer-lint: end(event-loop)` runs on an event-loop thread
      (the shared loop in src/util/event_loop.cc, which the serve shards
      and the farm coordinator run on, and the protocol handlers it
      calls) and must never block: no sleeps, no file streams, no
      fopen/system/popen, no thread joins, no snapshot loads.
      Unbalanced markers are themselves findings.

  isa-flags
      (compile_commands.json) Any TU compiled with -mavx*/-msse*/
      -mpopcnt/-mfma/-mbmi* must be one of the per-tier kernel TUs.
      A global ISA flag would license vector instructions outside the
      runtime-dispatch boundary and crash older hosts.

  suppression-justification
      A finding may be waived with
          // farmer-lint: allow(<rule>) -- <justification>
      on the flagged line or the line above. The rule name must exist
      and the justification must be at least 10 characters; bare or
      unknown `farmer-lint:` directives are findings.

Exit status: 0 clean, 1 findings (one `path:line: [rule] message` per
line), 2 usage/internal error.

Self-test: --self-test replays tools/lint_fixtures/ — each fixture
declares the path it pretends to live at and the exact rule set it must
trigger — so the linter's own regressions fail CI like any other test.
"""

import argparse
import json
import re
import sys
from pathlib import Path

LINT_SUFFIXES = {".cc", ".h", ".inc"}

RULE_DOCS = {
    "raw-sync": "raw <mutex>/<condition_variable> use outside util/sync.h",
    "kernel-purity": "allocation or I/O in a SIMD kernel TU",
    "nodiscard-contract": "[[nodiscard]] missing from an error-carrying API",
    "event-loop-blocking": "blocking call inside an event-loop region",
    "isa-flags": "per-ISA -m flag on a non-kernel TU",
    "suppression-justification": "malformed farmer-lint directive",
}

KERNEL_TU_RE = re.compile(
    r"src/util/simd/kernels_[a-z0-9_]+\.(cc|inc)$"
)

ISA_FLAG_RE = re.compile(r"^-m(avx|sse|popcnt|fma|bmi)")

DIRECTIVE_RE = re.compile(r"//\s*farmer-lint:\s*(?P<body>.*?)\s*$")
ALLOW_RE = re.compile(
    r"^allow\((?P<rule>[a-z0-9-]+)\)(?:\s*--\s*(?P<why>.*))?$"
)
REGION_RE = re.compile(r"^(?P<kind>begin|end)\((?P<region>[a-z-]+)\)$")

RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

KERNEL_PURITY_RE = re.compile(
    r"\bnew\b|\bdelete\b|\bmalloc\b|\bcalloc\b|\brealloc\b|\bfree\s*\("
    r"|std::vector\b|std::string\b|std::cout\b|std::cerr\b"
    r"|\bf?printf\s*\(|\bfopen\s*\(|\bfread\s*\(|\bfwrite\s*\("
    r"|#\s*include\s*<(?:cstdio|cstdlib|iostream|fstream|sstream"
    r"|string|vector|memory|new)>"
)

EVENT_LOOP_BLOCKING_RE = re.compile(
    r"std::this_thread::sleep\w*|\busleep\s*\(|\bnanosleep\s*\("
    r"|(?:::|\s|^)sleep\s*\(|\bsystem\s*\(|\bpopen\s*\(|\bfopen\s*\("
    r"|\bifstream\b|\bofstream\b|\bfstream\b"
    r"|\bLoadSnapshot\s*\(|\bSaveSnapshot\s*\(|\bReloadFromFile\s*\("
    r"|\.join\s*\(|\bgetline\s*\("
    # Farm segment decoding and the merge run on the merge thread.
    r"|\bDecodeSegments\s*\(|\bMergeFarmSegments\s*\(|\bFinalizeFarm\s*\("
)

# Method names in src/util/bitset.h whose declarations must carry
# [[nodiscard]] (the count/query kernels — dropping their result is
# always a bug: they have no side effects).
BITSET_NODISCARD_METHODS = [
    "Test",
    "Count",
    "CountPrefix",
    "None",
    "Any",
    "IsSubsetOf",
    "IsProperSubsetOf",
    "Intersects",
    "IntersectCount",
    "AndCount",
    "AndCountPrefix",
    "FindFirst",
    "FindNext",
    "Hash",
]


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blanks comments and string/char literals, preserving line
    structure, so token rules never fire on prose or log messages."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def parse_directives(raw_lines, path):
    """Returns (allows, regions, findings): allow map {line: rule},
    region events [(line, kind, region)], and malformed-directive
    findings."""
    allows = {}
    regions = []
    findings = []
    for lineno, line in enumerate(raw_lines, start=1):
        m = DIRECTIVE_RE.search(line)
        if not m:
            continue
        body = m.group("body")
        am = ALLOW_RE.match(body)
        if am:
            rule = am.group("rule")
            why = (am.group("why") or "").strip()
            if rule not in RULE_DOCS:
                findings.append(Finding(
                    path, lineno, "suppression-justification",
                    f"allow() names unknown rule '{rule}'"))
            elif len(why) < 10:
                findings.append(Finding(
                    path, lineno, "suppression-justification",
                    "allow() needs a justification of >= 10 chars "
                    "after ' -- '"))
            else:
                allows[lineno] = rule
            continue
        rm = REGION_RE.match(body)
        if rm:
            regions.append((lineno, rm.group("kind"), rm.group("region")))
            continue
        findings.append(Finding(
            path, lineno, "suppression-justification",
            f"unrecognized farmer-lint directive '{body}'"))
    return allows, regions, findings


def event_loop_spans(regions, path, findings):
    """Pairs begin/end markers into line spans; unbalanced markers are
    findings."""
    spans = []
    open_line = None
    for lineno, kind, region in regions:
        if region != "event-loop":
            findings.append(Finding(
                path, lineno, "suppression-justification",
                f"unknown lint region '{region}'"))
            continue
        if kind == "begin":
            if open_line is not None:
                findings.append(Finding(
                    path, lineno, "event-loop-blocking",
                    "nested begin(event-loop) marker"))
                continue
            open_line = lineno
        else:
            if open_line is None:
                findings.append(Finding(
                    path, lineno, "event-loop-blocking",
                    "end(event-loop) without a matching begin"))
                continue
            spans.append((open_line, lineno))
            open_line = None
    if open_line is not None:
        findings.append(Finding(
            path, open_line, "event-loop-blocking",
            "begin(event-loop) never closed"))
    return spans


def scan_regex(pattern, code_lines, path, rule, message):
    findings = []
    for lineno, line in enumerate(code_lines, start=1):
        m = pattern.search(line)
        if m:
            findings.append(Finding(
                path, lineno, rule, f"{message}: '{m.group(0).strip()}'"))
    return findings


def check_nodiscard_contract(path, code_text, raw_text):
    """status.h must keep its classes [[nodiscard]]; bitset.h must keep
    the attribute on every query kernel."""
    findings = []
    name = path.replace("\\", "/")
    if name.endswith("src/util/status.h"):
        for cls in ("Status", "StatusOr"):
            if not re.search(
                    r"class\s+\[\[nodiscard\]\]\s+" + cls + r"\b",
                    code_text):
                findings.append(Finding(
                    path, 1, "nodiscard-contract",
                    f"class {cls} must be declared "
                    f"'class [[nodiscard]] {cls}'"))
    if name.endswith("src/util/bitset.h"):
        for method in BITSET_NODISCARD_METHODS:
            decl = re.search(r"\b" + method + r"\s*\(", code_text)
            if decl is None:
                findings.append(Finding(
                    path, 1, "nodiscard-contract",
                    f"Bitset::{method} declaration not found"))
                continue
            # The declaration runs from the previous ; { } or access
            # specifier to the method name; [[nodiscard]] must appear
            # in that span.
            start = max(
                code_text.rfind(";", 0, decl.start()),
                code_text.rfind("{", 0, decl.start()),
                code_text.rfind("}", 0, decl.start()),
            )
            # Checked on stripped text so a commented-out
            # [[nodiscard]] cannot satisfy the contract.
            span = code_text[start + 1:decl.start()]
            if "[[nodiscard]]" not in span:
                line = code_text.count("\n", 0, decl.start()) + 1
                findings.append(Finding(
                    path, line, "nodiscard-contract",
                    f"Bitset::{method} lost its [[nodiscard]]"))
    return findings


def lint_text(path, raw_text):
    """Lints one file's content as if it lived at `path` (repo-relative,
    forward slashes). Returns surviving findings."""
    name = path.replace("\\", "/")
    raw_lines = raw_text.splitlines()
    code_text = strip_code(raw_text)
    code_lines = code_text.splitlines()

    allows, regions, findings = parse_directives(raw_lines, path)
    spans = event_loop_spans(regions, path, findings)

    in_src = name.startswith("src/") or "/src/" in name
    if in_src and not name.endswith("src/util/sync.h"):
        findings += scan_regex(
            RAW_SYNC_RE, code_lines, path, "raw-sync",
            "raw synchronization primitive (use util/sync.h)")

    if KERNEL_TU_RE.search(name):
        findings += scan_regex(
            KERNEL_PURITY_RE, code_lines, path, "kernel-purity",
            "allocation/I-O in a SIMD kernel TU")

    for begin, end in spans:
        for lineno in range(begin + 1, end):
            line = code_lines[lineno - 1] if lineno <= len(code_lines) \
                else ""
            m = EVENT_LOOP_BLOCKING_RE.search(line)
            if m:
                findings.append(Finding(
                    path, lineno, "event-loop-blocking",
                    "blocking call on an event-loop thread: "
                    f"'{m.group(0).strip()}'"))

    findings += check_nodiscard_contract(path, code_text, raw_text)

    # Apply suppressions: an allow on the finding's line or the line
    # directly above waives findings of exactly that rule.
    kept = []
    used_allows = set()
    for f in findings:
        rule_here = allows.get(f.line)
        rule_above = allows.get(f.line - 1)
        if rule_here == f.rule:
            used_allows.add(f.line)
            continue
        if rule_above == f.rule:
            used_allows.add(f.line - 1)
            continue
        kept.append(f)
    for lineno in sorted(set(allows) - used_allows):
        kept.append(Finding(
            path, lineno, "suppression-justification",
            f"allow({allows[lineno]}) suppresses nothing (stale?)"))
    kept.sort(key=lambda f: (f.line, f.rule))
    return kept


def check_isa_flags(entries, root):
    """compile_commands.json entries: per-ISA -m flags only on kernel
    TUs."""
    findings = []
    for entry in entries:
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        flags = [a for a in args if ISA_FLAG_RE.match(a)]
        if not flags:
            continue
        file_path = entry.get("file", "")
        try:
            rel = str(Path(file_path).resolve().relative_to(root))
        except ValueError:
            rel = file_path
        rel = rel.replace("\\", "/")
        if not KERNEL_TU_RE.search(rel):
            findings.append(Finding(
                rel, 1, "isa-flags",
                f"ISA flags {' '.join(sorted(set(flags)))} on a "
                "non-kernel TU (confine -m flags to "
                "src/util/simd/kernels_*.cc)"))
    return findings


def iter_lintable(root):
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in LINT_SUFFIXES and path.is_file():
                yield path


def run_lint(root, compdb, explicit_paths):
    findings = []
    paths = ([Path(p) for p in explicit_paths]
             if explicit_paths else list(iter_lintable(root)))
    for path in paths:
        try:
            rel = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
        rel = rel.replace("\\", "/")
        findings += lint_text(rel, path.read_text(encoding="utf-8"))
    if compdb is not None:
        if compdb.is_file():
            entries = json.loads(compdb.read_text(encoding="utf-8"))
            findings += check_isa_flags(entries, root.resolve())
        else:
            print(f"note: compdb {compdb} not found; "
                  "isa-flags rule skipped", file=sys.stderr)
    return findings


FIXTURE_RE = re.compile(
    r"//\s*farmer-lint-fixture:\s*path=(?P<path>\S+)\s+"
    r"expect=(?P<expect>\S+)")


def run_self_test(fixtures_dir):
    """Replays the fixture corpus: every fixture must produce exactly
    its declared rule set (order-insensitive, duplicates collapsed)."""
    failures = []
    ran = 0
    for path in sorted(fixtures_dir.iterdir()):
        if path.suffix == ".json":
            spec = json.loads(path.read_text(encoding="utf-8"))
            expected = set(spec.get("expect", []))
            found = {f.rule for f in check_isa_flags(
                spec.get("compdb", []), fixtures_dir)}
            ran += 1
            if found != expected:
                failures.append(
                    f"{path.name}: expected {sorted(expected) or 'clean'},"
                    f" got {sorted(found) or 'clean'}")
            continue
        if path.suffix not in LINT_SUFFIXES:
            continue
        text = path.read_text(encoding="utf-8")
        m = FIXTURE_RE.search(text)
        if not m:
            failures.append(f"{path.name}: missing farmer-lint-fixture "
                            "header")
            continue
        expected = (set() if m.group("expect") == "clean"
                    else set(m.group("expect").split(",")))
        unknown = expected - set(RULE_DOCS)
        if unknown:
            failures.append(
                f"{path.name}: expects unknown rules {sorted(unknown)}")
            continue
        # Drop the header so its own text cannot trip a rule.
        body = "\n".join(
            line for line in text.splitlines()
            if "farmer-lint-fixture:" not in line) + "\n"
        found = {f.rule for f in lint_text(m.group("path"), body)}
        ran += 1
        if found != expected:
            failures.append(
                f"{path.name}: expected {sorted(expected) or 'clean'}, "
                f"got {sorted(found) or 'clean'}")
    if ran == 0:
        failures.append(f"no fixtures found in {fixtures_dir}")
    for failure in failures:
        print(f"self-test FAIL: {failure}", file=sys.stderr)
    print(f"self-test: {ran} fixtures, {len(failures)} failures")
    return 0 if not failures else 1


def main(argv):
    parser = argparse.ArgumentParser(
        description="FARMER project lint (see module docstring)")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--compdb", type=Path, default=None,
                        help="compile_commands.json for the isa-flags "
                        "rule")
    parser.add_argument("--self-test", action="store_true",
                        help="replay the fixture corpus instead of "
                        "linting")
    parser.add_argument("--fixtures", type=Path, default=None,
                        help="fixture dir for --self-test (default: "
                        "tools/lint_fixtures next to this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="explicit files to lint (default: "
                        "<root>/src)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(RULE_DOCS.items()):
            print(f"{rule:28s} {doc}")
        return 0

    if args.self_test:
        fixtures = args.fixtures or (
            Path(__file__).resolve().parent / "lint_fixtures")
        return run_self_test(fixtures)

    findings = run_lint(args.root, args.compdb, args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f"farmer-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
