#!/usr/bin/env python3
"""detlint: source-level determinism lint for the simulator core.

jetsim's foundational invariant is bit-exact replay: a run is a pure
function of (spec, seed). The dynamic checkers (JetSan, simcheck,
jetmc) catch divergence after the fact; this lint bans the constructs
that *cause* it from ever entering src/:

  wall-clock   time(), clock(), gettimeofday, std::chrono::*_clock
               (simulated time comes from sim::EventQueue::now();
               wall time is only legal in bench/ and tools/)
  rand         rand(), srand(), std::random_device (the only
               sanctioned randomness is the seeded sim::Rng)
  getenv       std::getenv (environment reads make results depend on
               ambient state; read once at startup and annotate)
  sleep        std::this_thread::sleep_for/sleep_until, usleep,
               nanosleep (real delays desynchronize the event queue;
               model waits as scheduled events instead)
  unordered-iteration
               range-for over a std::unordered_{map,set}: iteration
               order is implementation-defined, so anything folded
               from it (digests, reports, schedules) diverges across
               platforms. Lookups are fine; iterate a sorted copy.

Suppression: append `// detlint: allow(<rule>)` to the offending line
(or the line above) with a justification nearby.

Usage: tools/detlint.py [--root DIR] [--json] [--sarif] [paths...]
Exit: 0 clean, 1 findings, 2 usage error.

--json emits {"schema_version": 1, "tool": "detlint", "findings":
[{"path", "line", "rule", "message"}, ...], "files": N} on stdout —
the same schema_version the C++ linters (jetlint, jetbound) stamp,
so downstream tooling can gate on one number.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpplex  # noqa: E402  (shared lexer/emitter scaffolding)

RULES = [
    ("wall-clock",
     re.compile(r"\b(gettimeofday|clock_gettime)\s*\(|"
                r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)|"
                r"\bstd::chrono::(system|steady|high_resolution)"
                r"_clock\b"),
     "wall-clock read in simulation code (use sim time / EventQueue"
     "::now())"),
    ("rand",
     re.compile(r"\b(std::)?(rand|srand)\s*\(|"
                r"\bstd::random_device\b|\bstd::mt19937"),
     "unseeded/global randomness (use the seeded sim::Rng)"),
    ("getenv",
     re.compile(r"\b(std::)?getenv\s*\("),
     "environment read (results must not depend on ambient state; "
     "read once at startup and annotate)"),
    ("sleep",
     re.compile(r"\bstd::this_thread::sleep_(for|until)\s*\(|"
                r"\b(usleep|nanosleep)\s*\("),
     "real delay in simulation code (desynchronizes the event queue; "
     "model waits as scheduled events)"),
]

allowed = cpplex.allow_matcher("detlint")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+"
    r"(\w+)\s*[;{=(]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*(?:const\s+)?auto\s*[&\s]"
                          r"[&\s]*\w+\s*:\s*(?:\w+\.)*(\w+)\s*\)")


def lint_file(path):
    """Return a list of {path, line, rule, message} findings."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"detlint: cannot read {path}: {e}", file=sys.stderr)
        return [{"path": path, "line": 0, "rule": "io-error",
                 "message": str(e)}]

    findings = []
    code_lines = cpplex.strip_file(lines)
    unordered_names = {m.group(1) for m in
                       map(UNORDERED_DECL_RE.search, code_lines) if m}
    for idx, code in enumerate(code_lines):
        for rule, pat, msg in RULES:
            if pat.search(code) and not allowed(lines, idx, rule):
                findings.append({"path": path, "line": idx + 1,
                                 "rule": rule, "message": msg})
        m = RANGE_FOR_RE.search(code)
        if m and m.group(1) in unordered_names:
            if not allowed(lines, idx, "unordered-iteration"):
                findings.append({
                    "path": path, "line": idx + 1,
                    "rule": "unordered-iteration",
                    "message": f"range-for over std::unordered "
                               f"container '{m.group(1)}': iteration "
                               f"order is implementation-defined"})
    return findings


def main():
    ap = argparse.ArgumentParser(
        description="determinism lint for jetsim src/")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON on stdout")
    ap.add_argument("--sarif", action="store_true",
                    help="emit findings as a SARIF 2.1.0 log")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: <root>/src)")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    targets = args.paths or [os.path.join(root, "src")]

    files = cpplex.collect_files(targets)
    if not files:
        print("detlint: no input files", file=sys.stderr)
        return 2

    findings = []
    for f in sorted(files):
        findings.extend(lint_file(f))

    sarif_rules = [(r, m) for r, _, m in RULES] + [
        ("unordered-iteration",
         "range-for over a std::unordered container: iteration "
         "order is implementation-defined"),
        ("io-error", "input file could not be read")]
    if cpplex.report(args, "detlint", sarif_rules, findings, root,
                     files=len(files)):
        return 1 if findings else 0
    if findings:
        print(f"detlint: {len(findings)} finding(s) in "
              f"{len(files)} files")
        return 1
    print(f"detlint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
