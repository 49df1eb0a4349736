#!/usr/bin/env python3
"""jethot: static hot-path discipline analyzer for jetsim.

The event core's performance contract (DESIGN.md §4j) says the
steady-state dispatch path allocates nothing, locks nothing, throws
nothing, and never enters the kernel. The operator-new counting
tests and TSan probe that at runtime; jethot proves it *statically*,
the way jetrace proves lock-order discipline: a call-graph
reachability pass from annotated hot roots, where any reachable
forbidden operation is a finding reported with its full call chain.

Annotations (src/core/hot_annotations.hh; all expand to nothing):

  JETSIM_HOT               on a definition: hot-path root
  JETSIM_COLD_OK("why")    sanctioned cold escape — on a definition
                           the whole body is exempt and traversal
                           stops; on/above a statement that statement
                           is exempt (and its call edges are cut)
  JETSIM_HOT_BOUNDARY      traversal stops; body audited elsewhere
                           (dispatch indirections, diagnostics paths)

Comment forms for spots macros cannot reach:
  // jethot: boundary(NAME) why     declare callee NAME a boundary
  // jethot: cold-ok(why)           statement-level escape
  // jethot: allow(rule) why        suppress one rule on one line

Statements that *begin with* a JETSIM_* macro invocation (JETSIM_CHECK
/ JETSIM_VIOLATION / JETSIM_ASSERT ...) are treated as boundaries
automatically: they expand to diagnostics behind an
invariant-already-broken branch and are the sanctioned error arm of a
hot function.

Growth calls on a sim::Fifo (the run phase's grow-only ring) are
call edges, not findings: a name declared with a Fifo type (member,
variable, or a function returning one) is collected from every
scanned file, and `name.push_back(...)` / `name(...).push_back(...)`
on such a receiver is followed into Fifo::push_back, whose only
allocation is Fifo::grow's function-level JETSIM_COLD_OK. Growth on
any other receiver (std containers, locals of deduced type) is still
a hot-alloc finding.

`--selftest` seeds hot-path alloc / lock / throw violations (plus
spin, boundary, cold-ok and Fifo fixtures) and checks each is found
with a *minimised* chain, mirroring the jetrace/jetmc cross-check
pattern.

Backends: the lexical call graph (cpplex.CallGraph, shared with
jetrace) is the tested, always-available path. With the
libclang Python bindings importable (`--backend libclang`/`auto`),
AST-walked call edges augment the lexical graph (catching calls the
regex misses); rule matching stays lexical either way. Without
bindings `auto` is lexical.

Usage: tools/jethot.py [--root DIR] [--json] [--sarif] [--dot]
                       [--selftest] [--backend auto|lex|libclang]
                       [--list-rules] [paths...]
Exit: 0 clean, 1 findings (or failed self-test), 2 usage error.

--json emits {"schema_version": 1, "tool": "jethot", "findings":
[...], "files": N, "roots": [...], "reachable": N, "reachable_fns":
[...], "cold_ok": [...], "boundaries": [...]} — the same
schema_version
jetlint/jetrace/detlint stamp. Findings carry "chain": the minimised
root -> ... -> offender call path.
"""

import argparse
import os
import re
import sys
from collections import deque

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpplex  # noqa: E402

RULES = [
    ("hot-alloc",
     "heap allocation reachable from a hot root (new/malloc/"
     "allocating std container growth/std::string/std::function)"),
    ("hot-lock",
     "core::Mutex/LockGuard acquisition (or raw std lock) reachable "
     "from a hot root"),
    ("hot-spin",
     "unbounded atomic retry/spin loop (CAS loop or while-on-load) "
     "reachable from a hot root, outside the allow() whitelist"),
    ("hot-throw",
     "throw reachable from a hot root"),
    ("hot-io",
     "blocking syscall / IO / logging / sleep reachable from a hot "
     "root"),
    ("hot-env",
     "core::env()/getenv reachable from a hot root (env reads are "
     "startup-only by contract)"),
]

allowed = cpplex.allow_matcher("jethot")

HOT_RE = re.compile(r"\bJETSIM_HOT\b")
BOUNDARY_RE = re.compile(r"\bJETSIM_HOT_BOUNDARY\b")
COLD_OK_RAW_RE = re.compile(r'\bJETSIM_COLD_OK\s*\(\s*"([^"]*)"')
COLD_OK_CMT_RE = re.compile(r"jethot:\s*cold-ok\(([^)]*)\)")
BOUNDARY_DECL_RE = re.compile(r"jethot:\s*boundary\((\w+)\)\s*(.*)")

MACRO_STMT_RE = re.compile(r"\s*JETSIM_[A-Z_]+\s*\(")
LOOP_SIG_RE = re.compile(r"\s*(?:for|while|do)\b")

# A name declared with a sim::Fifo type: a member or variable
# (`Fifo<T> name;`) or an accessor returning one (`Fifo<T> &name(`).
FIFO_DECL_RE = re.compile(r"\bFifo\s*<[^;{}]*?>\s*&?\s*(\w+)\s*[;={(]")
# The container-growth rule's method names; the receiver before one
# decides whether the call can allocate (see allocating_growth).
GROWTH_CALL_RE = re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|"
                            r"emplace|emplace_front|push_front|insert|"
                            r"resize|reserve|append|assign)\s*\(")

# (rule, compiled regex, what-it-is) — matched against noise-stripped
# statement text. Placement new (`new (buf) T`) is construction into
# existing storage and is deliberately not matched.
STMT_PATTERNS = [
    ("hot-alloc", re.compile(r"\bnew\b(?!\s*\()"),
     "operator new"),
    ("hot-alloc", re.compile(r"\b(?:malloc|calloc|realloc|strdup|"
                             r"aligned_alloc)\s*\("),
     "C heap allocation"),
    ("hot-alloc", re.compile(r"\bmake_(?:unique|shared)\s*<"),
     "make_unique/make_shared"),
    ("hot-alloc", re.compile(r"\bto_string\s*\("),
     "std::to_string (allocates)"),
    ("hot-alloc", re.compile(r"\bstd::string\s*[({]"),
     "std::string construction"),
    ("hot-alloc", re.compile(r"\bstd::function\s*<"),
     "std::function construction (may allocate)"),
    ("hot-alloc", re.compile(r"\bstd::[io]?stringstream\b"),
     "stringstream construction"),
    ("hot-alloc", GROWTH_CALL_RE, "container growth call"),
    ("hot-lock", re.compile(r"\b(?:core::)?LockGuard\b"),
     "LockGuard acquisition"),
    ("hot-lock", re.compile(r"(?:\.|->)\s*lock\s*\("),
     ".lock() call"),
    ("hot-lock", re.compile(r"\bstd::(?:mutex|lock_guard|unique_lock|"
                            r"scoped_lock|shared_lock|"
                            r"condition_variable)\b"),
     "raw std lock primitive"),
    ("hot-throw", re.compile(r"\bthrow\b"),
     "throw"),
    ("hot-io", re.compile(r"\b(?:printf|fprintf|vfprintf|snprintf|"
                          r"vsnprintf|sprintf|puts|fputs|fputc|"
                          r"putchar|fwrite|fread|fopen|fclose|"
                          r"fflush|fgets|getchar|system|popen)"
                          r"\s*\("),
     "stdio/syscall"),
    ("hot-io", re.compile(r"\bstd::c(?:out|err|log)\b"),
     "iostream write"),
    ("hot-io", re.compile(r"\bstd::[io]?fstream\b"),
     "file stream"),
    ("hot-io", re.compile(r"\b(?:usleep|nanosleep|sleep)\s*\("),
     "sleep"),
    ("hot-io", re.compile(r"\bstd::this_thread::\w+"),
     "thread yield/sleep"),
    ("hot-io", re.compile(r"\b(?:inform|warn|fatal|panic|assertFail|"
                          r"vformat)\s*\("),
     "logging/format call"),
    ("hot-env", re.compile(r"\bcore::env\s*\(|(?<![\w:])getenv"
                           r"\s*\("),
     "environment read"),
    # while-on-load / CAS-in-condition spins (incl. `} while (cas)`)
    ("hot-spin", re.compile(r"\bwhile\s*\([^;{]*(?:"
                            r"compare_exchange_\w+|"
                            r"(?:\.|->)\s*exchange\s*\(|"
                            r"(?:\.|->)\s*load\s*\()"),
     "atomic spin-wait loop"),
]

# CAS inside a loop body (retry loop) — needs loop-scope context.
SPIN_BODY_RE = re.compile(r"\bcompare_exchange_\w+|"
                          r"(?:\.|->)\s*exchange\s*\(")
# Only this subset is meaningful on control-flow condition text.
SIG_RULES = {"hot-spin"}


def receiver_name(text, end):
    """The identifier a member call is made on: `name` in
    `name.f(` / `a->name.f(`, and `acc` in `acc(args).f(`."""
    i = end
    while i > 0 and text[i - 1].isspace():
        i -= 1
    if i > 0 and text[i - 1] == ")":
        depth = 0
        while i > 0:
            i -= 1
            if text[i] == ")":
                depth += 1
            elif text[i] == "(":
                depth -= 1
                if depth == 0:
                    break
        while i > 0 and text[i - 1].isspace():
            i -= 1
    m = re.search(r"(\w+)$", text[:i])
    return m.group(1) if m else None


def allocating_growth(text, fifo_names):
    """True when some container-growth call in @text is made on a
    receiver not declared as a sim::Fifo."""
    return any(receiver_name(text, m.start()) not in fifo_names
               for m in GROWTH_CALL_RE.finditer(text))


def collect_fifo_names(paths):
    names = set()
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            code = "\n".join(cpplex.strip_file(f.read().splitlines()))
        names.update(FIFO_DECL_RE.findall(code))
    return names


def cold_ok_reason(raw_lines, lines_0):
    """JETSIM_COLD_OK / `// jethot: cold-ok(...)` on any of the
    0-based lines; returns the reason string or None."""
    for li in lines_0:
        if 0 <= li < len(raw_lines):
            m = COLD_OK_RAW_RE.search(raw_lines[li])
            if m:
                return m.group(1) or "(no reason)"
            m = COLD_OK_CMT_RE.search(raw_lines[li])
            if m:
                return m.group(1).strip() or "(no reason)"
    return None


def new_function():
    """jethot's fields on a call-graph node (cpplex.CallGraph)."""
    return {"hot": False, "boundary": False, "cold_ok": None,
            "hits": []}  # hits: [(rule, path, line, what)]


class Analysis:
    """Whole-audit state: the shared call graph, whose nodes carry
    jethot's fields, plus the global annotation and escape ledgers."""

    def __init__(self):
        self.graph = cpplex.CallGraph(new_function)
        self.boundary_decls = []   # {name, path, line, why}
        self.boundary_names = set()
        self.cold_escapes = []     # {path, line, scope, fn, why}
        self.fifo_names = set()    # names declared with a Fifo type


def scan_file(path, rel, an):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()
    code_lines = cpplex.blank_preprocessor(cpplex.strip_file(raw_lines))

    for idx, raw in enumerate(raw_lines):
        m = BOUNDARY_DECL_RE.search(raw)
        if m:
            an.boundary_names.add(m.group(1))
            an.boundary_decls.append({
                "name": m.group(1), "path": rel, "line": idx + 1,
                "why": m.group(2).strip()})

    w = cpplex.GraphWalker(an.graph, rel)
    loop_stack = []    # parallel to w.scopes: is-loop flags

    def span_lines0(start_1, end_1):
        """0-based raw indices of a pending span + the line above."""
        return list(range(max(0, start_1 - 2), end_1))

    def suppressed(rule, start_1, end_1):
        return any(allowed(raw_lines, li, rule)
                   for li in span_lines0(start_1, end_1))

    def scan_text(text, start_1, end_1, is_sig):
        rec = an.graph.nodes[w.fn]
        why = None
        if "JETSIM_COLD_OK" in text:
            why = cold_ok_reason(raw_lines, span_lines0(start_1,
                                                        end_1))
        else:
            for li in span_lines0(start_1, end_1):
                if 0 <= li < len(raw_lines) and \
                        COLD_OK_CMT_RE.search(raw_lines[li]):
                    why = cold_ok_reason(raw_lines, [li])
                    break
        if why is not None:
            an.cold_escapes.append({"path": rel, "line": start_1,
                                    "scope": "statement",
                                    "fn": w.fn, "why": why})
            return
        if MACRO_STMT_RE.match(text):
            return  # check/violation/assert error arm: boundary
        w.add_calls(text, end_1)
        in_loop = any(loop_stack)
        for rule, rx, what in STMT_PATTERNS:
            if is_sig and rule not in SIG_RULES:
                continue
            mm = rx.search(text)
            if mm and rx is GROWTH_CALL_RE and \
                    not allocating_growth(text, an.fifo_names):
                continue  # a Fifo's growth: followed as a call edge
            if mm and not suppressed(rule, start_1, end_1):
                rec["hits"].append((rule, rel, start_1, what))
        if not is_sig and in_loop and SPIN_BODY_RE.search(text) and \
                not re.search(r"\bwhile\s*\(", text) and \
                not suppressed("hot-spin", start_1, end_1):
            rec["hits"].append(("hot-spin", rel, start_1,
                                "atomic RMW retry inside a loop"))

    def enter_function(sc, sig, lineno):
        rec = an.graph.nodes[sc.key]
        span = span_lines0(w.pending_start, lineno)
        if HOT_RE.search(sig) or \
                any(0 <= li < len(raw_lines) and
                    re.search(r"jethot:\s*hot\b", raw_lines[li])
                    for li in span):
            rec["hot"] = True
        if BOUNDARY_RE.search(sig) or \
                any(0 <= li < len(raw_lines) and
                    re.search(r"jethot:\s*boundary\b(?!\()",
                              raw_lines[li]) for li in span):
            rec["boundary"] = True
            an.boundary_decls.append({
                "name": sc.key, "path": rel, "line": lineno,
                "why": "JETSIM_HOT_BOUNDARY definition"})
        if "JETSIM_COLD_OK" in sig:
            why = cold_ok_reason(raw_lines, span) or "(no reason)"
            rec["cold_ok"] = why
            an.cold_escapes.append({"path": rel, "line": lineno,
                                    "scope": "function",
                                    "fn": sc.key, "why": why})

    def on_open(sc, sig, lineno):
        loop_stack.append(sc.kind == "block" and
                          bool(LOOP_SIG_RE.match(sig)))
        # A control condition, or a lambda's capture statement
        # (`eq_.schedule(t, [this] {`), is the enclosing function's.
        if w.fn and sc.kind in ("block", "function"):
            scan_text(sig, w.pending_start, lineno, True)
        if sc.kind == "function":
            enter_function(sc, sig, lineno)

    def on_close(sc):
        if loop_stack:
            loop_stack.pop()

    def on_statement(stmt, lineno):
        if w.fn and stmt.strip():
            scan_text(stmt, w.pending_start, lineno, False)

    w.on_open = on_open
    w.on_close = on_close
    w.on_statement = on_statement
    w.run(code_lines)


def propagate(an):
    """BFS reachability from hot roots; parents give the *minimised*
    (fewest-call) chain for every finding."""
    nodes = an.graph.nodes
    roots = sorted(k for k, r in nodes.items() if r["hot"])
    parent = {}
    visited = set(roots)
    scannable = []
    dq = deque(roots)
    while dq:
        k = dq.popleft()
        rec = nodes[k]
        if not rec["hot"] and (
                rec["cold_ok"] is not None or rec["boundary"] or
                k in an.boundary_names or
                k.split("::")[-1] in an.boundary_names):
            continue
        scannable.append(k)
        for ck, _ in an.graph.callees(k):
            if ck not in visited:
                visited.add(ck)
                parent[ck] = k
                dq.append(ck)

    def chain(k):
        out = [k]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out[::-1]

    findings = []
    for k in scannable:
        for rule, path, line, what in nodes[k]["hits"]:
            ch = chain(k)
            via = " -> ".join(ch)
            findings.append({
                "path": path, "line": line, "rule": rule,
                "message": f"{what} in '{k}', reachable "
                           f"from hot root '{ch[0]}' (chain: {via})",
                "chain": ch})
    findings.sort(key=lambda f: (f["path"], f["line"], f["rule"]))
    return findings, roots, visited, scannable


def audit(files, root, backend="lex"):
    an = Analysis()
    an.fifo_names = collect_fifo_names(files)
    for path in files:
        rel = os.path.relpath(path, root) if root else path
        scan_file(path, rel, an)
    ci = cpplex.try_libclang() if backend != "lex" else None
    if ci is not None:
        an.graph.add_libclang_calls(ci, files, root)
    findings, roots, visited, scannable = propagate(an)
    summary = {
        "roots": roots,
        "reachable": len(visited),
        "reachable_fns": sorted(visited),
        "scanned": len(scannable),
        "cold_ok": an.cold_escapes,
        "boundaries": an.boundary_decls,
    }
    return findings, summary, an


# --- self-test ---------------------------------------------------------

# Seeded hot-path alloc with a decoy longer path: the finding must be
# reported through the *short* chain (root -> leakyHelper), proving
# chains are minimised, mirroring jetmc's minimised counterexamples.
SELFTEST_HOT_ALLOC = """\
#include "core/hot_annotations.hh"
void sink(int *p);
int *leakyHelper() { int *p = new int[16]; return p; }
void middle() { sink(leakyHelper()); }
JETSIM_HOT void dispatchRoot() { middle(); sink(leakyHelper()); }
"""

SELFTEST_HOT_LOCK = """\
#include "core/hot_annotations.hh"
#include "core/mutex.hh"
jetsim::core::Mutex stats_mu_;
void bumpStat() { jetsim::core::LockGuard g(stats_mu_); }
JETSIM_HOT void recordRoot() { bumpStat(); }
"""

SELFTEST_HOT_THROW = """\
#include "core/hot_annotations.hh"
int parseTag(int v) { if (v < 0) throw v; return v; }
JETSIM_HOT int popRoot(int v) { return parseTag(v); }
"""

# The same alloc shape with the sanctioned escape: the helper is a
# deliberate slow path, so the tree must audit clean and the escape
# must be recorded with its reason.
SELFTEST_COLD_OK_QUIET = """\
#include "core/hot_annotations.hh"
JETSIM_COLD_OK("slab growth: amortized, startup-dominated")
int *growSlab() { return new int[64]; }
JETSIM_HOT void allocRoot(bool need) { if (need) growSlab(); }
"""

SELFTEST_BOUNDARY_QUIET = """\
#include "core/hot_annotations.hh"
JETSIM_HOT_BOUNDARY void reportViolation(int v) { throw v; }
JETSIM_HOT void checkRoot(int v) { if (v < 0) reportViolation(v); }
"""

SELFTEST_SPIN = """\
#include "core/hot_annotations.hh"
#include <atomic>
JETSIM_HOT void casRoot(std::atomic<int> &t)
{
    int v = t.load(std::memory_order_relaxed);
    while (!t.compare_exchange_weak(v, v + 1)) {
    }
}
"""

SELFTEST_SPIN_ALLOWED = """\
#include "core/hot_annotations.hh"
#include <atomic>
JETSIM_HOT void casRoot(std::atomic<int> &t)
{
    int v = t.load(std::memory_order_relaxed);
    // jethot: allow(hot-spin) bounded: one lap, producers never park
    while (!t.compare_exchange_weak(v, v + 1)) {
    }
}
"""

# A hot root pushing onto a grow-only Fifo (member and accessor
# receivers) and onto a std::vector: only the vector is a finding;
# the Fifo calls are followed to Fifo::grow's function-level escape.
SELFTEST_FIFO = """\
#include <vector>
#include "core/hot_annotations.hh"
template <typename T> class Fifo
{
  public:
    void push_back(T v) { if (size_ == cap_) grow(); ++size_; }
  private:
    JETSIM_COLD_OK("grow-only: reaches the high-water depth once")
    void grow() { buf_ = new T[cap_ = 2 * cap_ + 4]; }
    T *buf_ = nullptr;
    int size_ = 0, cap_ = 0;
};
struct Sched
{
    Fifo<int> runq_;
    Fifo<int> &queueFor(bool) { return runq_; }
    std::vector<int> log_;
    JETSIM_HOT void tick()
    {
        runq_.push_back(1);
        queueFor(true).push_back(2);
        log_.push_back(3);
    }
};
"""


def selftest():
    import tempfile
    ok = True

    def run(name, src):
        p = os.path.join(td, name)
        with open(p, "w", encoding="utf-8") as f:
            f.write(src)
        return audit([p], td)

    def fail(msg):
        nonlocal ok
        print(f"jethot selftest: FAILED — {msg}")
        ok = False

    with tempfile.TemporaryDirectory() as td:
        for name, src, rule, offender in [
                ("hot_alloc.cc", SELFTEST_HOT_ALLOC, "hot-alloc",
                 "leakyHelper"),
                ("hot_lock.cc", SELFTEST_HOT_LOCK, "hot-lock",
                 "bumpStat"),
                ("hot_throw.cc", SELFTEST_HOT_THROW, "hot-throw",
                 "parseTag")]:
            findings, _, _ = run(name, src)
            hits = [f for f in findings if f["rule"] == rule]
            if not hits:
                fail(f"seeded {rule} in {name} not found")
                continue
            ch = hits[0]["chain"]
            if len(ch) != 2 or ch[-1] != offender:
                fail(f"{name}: chain not minimised: {ch} "
                     f"(want [<root>, {offender}])")
        findings, summ, _ = run("cold_ok.cc", SELFTEST_COLD_OK_QUIET)
        if findings:
            fail(f"COLD_OK escape still flagged: {findings}")
        if not any(e["scope"] == "function" and "slab" in e["why"]
                   for e in summ["cold_ok"]):
            fail(f"COLD_OK escape not recorded: {summ['cold_ok']}")
        findings, summ, _ = run("boundary.cc",
                                SELFTEST_BOUNDARY_QUIET)
        if findings:
            fail(f"HOT_BOUNDARY body still scanned: {findings}")
        findings, _, _ = run("spin.cc", SELFTEST_SPIN)
        if not any(f["rule"] == "hot-spin" for f in findings):
            fail("seeded CAS spin loop not found")
        findings, _, _ = run("spin_ok.cc", SELFTEST_SPIN_ALLOWED)
        if any(f["rule"] == "hot-spin" for f in findings):
            fail(f"allow(hot-spin) not honored: {findings}")
        findings, summ, _ = run("fifo.cc", SELFTEST_FIFO)
        growth = [SELFTEST_FIFO.splitlines()[f["line"] - 1].strip()
                  for f in findings if f["rule"] == "hot-alloc"]
        if growth != ["log_.push_back(3);"]:
            fail(f"want exactly the std::vector growth flagged, "
                 f"got {growth}")
        if not any(e["fn"] == "Fifo::grow" for e in summ["cold_ok"]):
            fail("Fifo growth not followed to Fifo::grow's escape")
    if ok:
        print("jethot selftest: seeded hot-path alloc/lock/throw "
              "each found with a minimised 2-hop chain; CAS spin "
              "flagged and allow()-whitelistable; JETSIM_COLD_OK "
              "and JETSIM_HOT_BOUNDARY stop traversal with the "
              "escape recorded; Fifo growth followed to its "
              "grow() escape, std::vector growth flagged")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description="hot-path discipline audit for jetsim src/")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings + reachability summary as "
                         "JSON on stdout")
    ap.add_argument("--sarif", action="store_true",
                    help="emit findings as a SARIF 2.1.0 log")
    ap.add_argument("--dot", action="store_true",
                    help="emit the hot-reachability call graph in "
                         "DOT form")
    ap.add_argument("--selftest", action="store_true",
                    help="audit the embedded seeded-violation "
                         "fixtures")
    ap.add_argument("--backend", default="auto",
                    choices=["auto", "lex", "libclang"],
                    help="call-edge backend (libclang augments the "
                         "lexical graph when the bindings import)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to audit (default: <root>/src)")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES:
            print(f"{rule:22} {desc}")
        return 0

    if args.selftest:
        return 0 if selftest() else 1

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    targets = args.paths or [os.path.join(root, "src")]
    files = cpplex.collect_files(targets)
    if not files:
        print("jethot: no input files", file=sys.stderr)
        return 2

    if args.backend == "libclang" and cpplex.try_libclang() is None:
        print("jethot: libclang Python bindings not importable; "
              "install them or use --backend=lex", file=sys.stderr)
        return 2

    findings, summ, an = audit(files, root, backend=args.backend)

    if args.dot:
        print("digraph hot_reach {")
        print("  rankdir=LR;")
        flagged = {f["chain"][-1] for f in findings if f["chain"]}
        _, _, visited, _ = propagate(an)
        for k in sorted(visited):
            r = an.graph.nodes[k]
            attr = ""
            if r["hot"]:
                attr = " [shape=doubleoctagon]"
            if r["cold_ok"] is not None:
                attr = ' [style=dashed, color=green, label="%s\\n' \
                       'COLD_OK"]' % k
            elif r["boundary"]:
                attr = " [style=dashed, color=gray]"
            elif k in flagged:
                attr = " [color=red]"
            print(f'  "{k}"{attr};')
        seen = set()
        for k in sorted(visited):
            for ck, _ in an.graph.callees(k):
                if ck in visited and (k, ck) not in seen:
                    seen.add((k, ck))
                    print(f'  "{k}" -> "{ck}";')
        print("}")
        return 0

    if cpplex.report(args, "jethot", RULES, findings, root,
                     files=len(files), **summ):
        return 1 if findings else 0
    if findings:
        print(f"jethot: {len(findings)} finding(s) in {len(files)} "
              f"files ({len(summ['roots'])} roots, "
              f"{summ['reachable']} reachable)")
        return 1
    print(f"jethot: {len(files)} files clean — "
          f"{len(summ['roots'])} hot roots, {summ['reachable']} "
          f"reachable functions, {len(summ['cold_ok'])} sanctioned "
          f"cold escapes, {len(summ['boundaries'])} boundaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
