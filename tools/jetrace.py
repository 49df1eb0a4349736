#!/usr/bin/env python3
"""jetrace: source-level concurrency-discipline auditor for jetsim.

The verification stack runs dynamic (JetSan/TSan), schedule-space
(jetmc) and spec-level (jetlint/jetbound) passes; jetrace completes
it at the *source* level. It audits the two contracts the sharded
event core will be written against:

  shared-state inventory
      Every non-const global, namespace-scope, function-local-static
      or class-static mutable object in src/ must be exactly one of
        - guarded:   its declaration carries JETSIM_GUARDED_BY(cap)
                     or a `// jetrace: guarded(<cap>)` justification
                     (for self-synchronized objects whose members are
                     individually guarded),
        - atomic:    std::atomic / core::Mutex / std::once_flag /
                     thread_local (synchronization is the type),
        - confined:  `// jetrace: confined(<thread>)` with the owning
                     thread named.
      Anything else is an `unannotated-global` finding.

  static lock-acquisition order
      Lock scopes are recognised from the mandatory core::LockGuard
      idiom (raw std::mutex / std::lock_guard / std::unique_lock in
      src/ outside core/mutex.hh is itself a `raw-mutex` finding —
      that rule is what keeps this analysis sound: an unwrapped lock
      would be invisible to it and to -Wthread-safety). Acquiring
      capability B while holding A adds the edge A -> B; edges are
      propagated through the static call graph to a fixpoint, and any
      cycle is reported as a potential deadlock (`lock-cycle`). The
      call graph is the one jethot uses (cpplex.CallGraph).

`--selftest` runs both analyses on a C++ rendition of jetmc's seeded
two-lock model (src/mc/toylock.*): the inverted variant must produce
the A<->B cycle, the well-ordered variant must not. With
`--jetmc-ce=FILE` the verdicts are cross-checked against the
counterexample jetmc found dynamically: the model the schedule-space
checker deadlocked must be the inverted one — static and dynamic
analyses must agree on which discipline is broken.

Backends: when the libclang Python bindings are importable
(`--backend=libclang` or `auto`), a real AST walk adds static-storage
VarDecls to the shared-state inventory and AST call edges to the call
graph; lock sites and held sets always come from the idiom-driven
lexical engine, which the core::Mutex discipline makes exact. Without
bindings `auto` is lexical, which is tested fixture-by-fixture in
tests/tools/jetrace_test.py.

The lexical engine itself (noise stripping, scope walking, the call
graph, Tarjan, SARIF) is shared with jethot/detlint via
tools/cpplex.py.

Usage: tools/jetrace.py [--root DIR] [--json] [--sarif] [--dot]
                        [--selftest] [--jetmc-ce FILE]
                        [--backend auto|lex|libclang]
                        [--list-rules] [paths...]
Exit: 0 clean, 1 findings (or failed self-test), 2 usage error.

--json emits {"schema_version": 1, "tool": "jetrace", "findings":
[...], "files": N, "inventory": {...}, "lock_graph": {...}} — the
same schema_version jetlint/jetbound/detlint stamp. --sarif emits the
same findings as a SARIF 2.1.0 log for editor/CI annotation.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpplex  # noqa: E402

RULES = [
    ("unannotated-global",
     "non-const global/static state with no guarded/atomic/confined "
     "classification"),
    ("lock-cycle",
     "cycle in the static lock-acquisition-order graph (potential "
     "deadlock)"),
    ("raw-mutex",
     "raw std:: lock primitive outside core/mutex.hh (invisible to "
     "-Wthread-safety and to this audit; use core::Mutex/LockGuard)"),
    ("unknown-capability",
     "JETSIM_GUARDED_BY names a capability that is not a declared "
     "core::Mutex in this file"),
]

allowed = cpplex.allow_matcher("jetrace")
CONFINED_RE = re.compile(r"jetrace:\s*confined\(([^)]+)\)")
GUARDED_CMT_RE = re.compile(r"jetrace:\s*guarded\(([^)]+)\)")

GUARDED_BY_RE = re.compile(r"\bJETSIM_(?:PT_)?GUARDED_BY\s*\(\s*"
                           r"([^)]+?)\s*\)")
LOCK_GUARD_RE = re.compile(r"\b(?:core::)?LockGuard\s+\w+\s*[({]\s*"
                           r"([^;]+?)\s*[)}]\s*;")
REQUIRES_RE = re.compile(r"\bJETSIM_REQUIRES\s*\(\s*([^)]+?)\s*\)")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b")
MUTEX_DECL_RE = re.compile(r"\b(?:core::)?Mutex\s+(\w+)\s*;")
# JETSIM_CHECK and JETSIM_VIOLATION expand to Reporter::report
# (src/check/check.hh), which takes the reporter's lock. The walker
# blanks the #define, so each use adds that call explicitly.
CHECK_MACRO_RE = re.compile(r"\bJETSIM_(?:CHECK|VIOLATION)\s*\(")

# Types whose synchronization is intrinsic: owning one is the
# annotation.
SYNC_TYPE_RE = re.compile(r"\b(std::atomic\b|std::atomic_\w+|"
                          r"(core::)?Mutex\b|std::once_flag\b|"
                          r"std::mutex\b)")

# Namespace-scope variable definition (single logical line).
NSVAR_RE = re.compile(
    r"^\s*"
    r"(?P<quals>(?:(?:inline|static|extern|thread_local|constinit|"
    r"mutable)\s+)*)"
    r"(?P<type>(?:[\w:]+(?:\s*<[^;]*>)?(?:\s*[*&])*\s+)+)"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:\{[^;]*\}|=[^;]*)?;")

# `static <type> <name> [= ... | { ... } | ;]` at class/function scope.
LOCAL_STATIC_RE = re.compile(
    r"\bstatic\s+(?P<decl>[^;=({]*?)(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:=|\{|;)")

NONVAR_WORDS = re.compile(
    r"\b(const|constexpr|concept|using|typedef|namespace|class|"
    r"struct|enum|union|template|operator|return|friend|throw|goto|"
    r"public|private|protected)\b")


def annotation_comment(raw_lines, idx):
    """confined()/guarded() justification on line idx or the one
    above; returns ('confined'|'guarded', arg) or None."""
    for li in (idx, idx - 1):
        if 0 <= li < len(raw_lines):
            m = CONFINED_RE.search(raw_lines[li])
            if m:
                return ("confined", m.group(1).strip())
            m = GUARDED_CMT_RE.search(raw_lines[li])
            if m:
                return ("guarded", m.group(1).strip())
    return None


def cap_name(expr):
    """Normalize a lock expression to a capability id: the final
    member component ('own.m' -> 'm', 'this->mu_' -> 'mu_')."""
    expr = expr.strip()
    expr = re.sub(r"\[[^\]]*\]", "", expr)  # queues_[w].m -> queues_.m
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip()


def new_function():
    """jetrace's field on a call-graph node (cpplex.CallGraph): the
    locks the function takes itself, as [(cap, path, line, held)]."""
    return {"acquires": []}


class FileAnalysis:
    """Per-file lexical analysis: inventory candidates and annotation
    counts. Lock events and calls go into the shared call graph."""

    def __init__(self):
        self.globals = []       # (line, name, classification, detail)
        self.raw_mutex = []     # (line, token)
        self.guarded_by = []    # (line, cap)
        self.mutex_decls = set()
        self.capability_count = 0
        self.confined = []      # (line, name, thread)


def analyze_file(path, relpath, graph):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()

    fa = FileAnalysis()
    code_lines = cpplex.strip_file(raw_lines)
    is_mutex_hh = relpath.replace("\\", "/").endswith("core/mutex.hh")
    for idx, code in enumerate(code_lines):
        for m in MUTEX_DECL_RE.finditer(code):
            fa.mutex_decls.add(m.group(1))
            fa.capability_count += 1
        # Directive lines too: a raw lock hidden in a macro body is
        # still a raw lock.
        m = None if is_mutex_hh else RAW_MUTEX_RE.search(code)
        if m and not allowed(raw_lines, idx, "raw-mutex"):
            fa.raw_mutex.append((idx + 1, m.group(0)))

    held = []           # [(cap, scope_depth)]
    w = cpplex.GraphWalker(graph, relpath,
                           ctx=lambda: tuple(c for c, _ in held))

    def record_calls(stmt, lineno):
        """Every call, with the locks held at it: a call made under no
        lock still carries its callee's acquisitions to its caller
        (the fixpoint in build_lock_graph), so a lock taken two calls
        below a held one still yields its edge."""
        w.add_calls(stmt, lineno)
        if CHECK_MACRO_RE.search(stmt):
            w.add_call("Reporter::report", lineno)

    def classify_candidate(name, typetext, text, idx):
        """File the inventory verdict for one mutable static/global:
        text is the declaration, idx the 0-based line for comment
        justification lookup."""
        line_no = idx + 1
        if "thread_local" in text:
            fa.globals.append((line_no, name, "thread_local", ""))
        elif SYNC_TYPE_RE.search(typetext) or SYNC_TYPE_RE.search(text):
            fa.globals.append((line_no, name, "atomic", ""))
        elif GUARDED_BY_RE.search(text):
            gb = GUARDED_BY_RE.search(text)
            fa.globals.append(
                (line_no, name, "guarded", cap_name(gb.group(1))))
        else:
            ann = annotation_comment(raw_lines, idx)
            if ann:
                fa.globals.append((line_no, name) + ann)
                if ann[0] == "confined":
                    fa.confined.append((line_no, name, ann[1]))
            elif allowed(raw_lines, idx, "unannotated-global"):
                fa.globals.append((line_no, name, "allowed", ""))
            else:
                fa.globals.append((line_no, name, "unannotated", ""))

    def on_line(code, idx):
        for m in GUARDED_BY_RE.finditer(code):
            fa.guarded_by.append((idx + 1, cap_name(m.group(1))))

        # Inventory: namespace-scope declarations (line-based; static
        # locals and class statics are handled statement-wise below,
        # where the scope stack is current). Attribute macros are
        # stripped before matching so JETSIM_GUARDED_BY's parentheses
        # don't make the declaration look like a function.
        if not any(s.kind in ("class", "function") for s in w.scopes):
            bare = re.sub(r"\bJETSIM_\w+\s*\([^)]*\)", "", code)
            m = NSVAR_RE.match(bare)
            if (m and "(" not in bare and
                    not NONVAR_WORDS.search(bare) and
                    "extern" not in m.group("quals")):
                classify_candidate(m.group("name"),
                                   m.group("type") + m.group("quals"),
                                   code, idx)

    def on_open(sc, pending, lineno):
        # Calls in a control condition (`if (f()) {`) or a lambda's
        # capture statement are the enclosing function's, made under
        # its held set.
        if w.fn is not None:
            record_calls(pending, lineno)
        if sc.kind == "function":
            sc.held_before = len(held)
            for m in REQUIRES_RE.finditer(pending):
                for cap in m.group(1).split(","):
                    if not cap.strip().startswith("!"):
                        held.append((cap_name(cap), len(w.scopes)))

    def on_close(sc):
        # Locks acquired inside this scope die with it.
        while held and held[-1][1] > len(w.scopes):
            held.pop()
        if sc.kind == "function":
            while held and len(held) > sc.held_before:
                held.pop()

    def on_statement(stmt, lineno):
        """Statement text as it completes at a `;`, with the scope
        and held-set state *at that point* (a line-level pass would
        miss locks inside single-line function bodies)."""
        if w.fn is not None or w.in_class():
            m = LOCAL_STATIC_RE.search(stmt + ";")
            if m and not re.search(r"\b(const|constexpr|constinit|"
                                   r"static_assert|static_cast)\b",
                                   stmt):
                classify_candidate(m.group("name"), m.group("decl"),
                                   stmt, lineno - 1)
        if w.fn is None:
            return
        lg = LOCK_GUARD_RE.search(stmt + ";")
        if lg:
            cap = cap_name(lg.group(1))
            graph.nodes[w.fn]["acquires"].append(
                (cap, relpath, lineno, [c for c, _ in held]))
            held.append((cap, len(w.scopes)))
            return
        record_calls(stmt, lineno)

    w.on_line = on_line
    w.on_open = on_open
    w.on_close = on_close
    w.on_statement = on_statement
    w.run(code_lines)

    return fa, raw_lines


def build_lock_graph(graph):
    """The capability graph over the shared call graph: taking a lock
    while holding others is an edge from each of them, and so is a
    call made under them, to every lock its callee may take
    transitively (a fixpoint over the call graph)."""
    edges = {}     # (a, b) -> (path, line)
    # effects(fn): caps fn may acquire, transitively.
    effects = {}
    for fn, rec in graph.nodes.items():
        effects[fn] = {cap for cap, _, _, _ in rec["acquires"]}
        for cap, path, line, held_at in rec["acquires"]:
            for h in held_at:
                if h != cap:
                    edges.setdefault((h, cap), (path, line))
    direct = {c for caps in effects.values() for c in caps}
    calls = {fn: list(graph.callees(fn)) for fn in graph.nodes}
    changed = True
    while changed:
        changed = False
        for fn, out in calls.items():
            for callee, _ in out:
                if callee != fn and not effects[callee] <= effects[fn]:
                    effects[fn] |= effects[callee]
                    changed = True

    for out in calls.values():
        for callee, call in out:
            for cap in effects[callee]:
                for h in call.ctx:
                    if h != cap:
                        edges.setdefault((h, cap),
                                         (call.path, call.line))

    nodes = sorted({n for e in edges for n in e} | direct)
    return nodes, edges


def libclang_inventory(ci, path, include_dir):
    """AST-walk inventory of static-storage VarDecls (libclang
    backend). Returns [(line, name)] candidates; classification still
    uses the source text, which carries the annotations."""
    tu = cpplex.parse_tu(ci, path, include_dir)
    out = []
    def walk(cur):
        for c in cur.get_children():
            if str(c.location.file) != path:
                continue
            if c.kind == ci.CursorKind.VAR_DECL:
                sc = c.storage_class
                at_ns = c.semantic_parent.kind in (
                    ci.CursorKind.TRANSLATION_UNIT,
                    ci.CursorKind.NAMESPACE)
                if at_ns or sc == ci.StorageClass.STATIC:
                    t = c.type.spelling
                    if "const" not in t:
                        out.append((c.location.line, c.spelling))
            walk(c)
    walk(tu.cursor)
    return out


def audit(files, root, ci=None):
    """Audit @p files; with libclang bindings @p ci, AST call edges
    widen the call graph the lock graph is propagated over."""
    findings = []
    graph = cpplex.CallGraph(new_function)
    inventory = {"capabilities": 0, "guarded": 0, "atomic": 0,
                 "confined": 0, "thread_local": 0, "allowed": 0,
                 "guarded_fields": 0, "globals": 0}

    for path in files:
        rel = os.path.relpath(path, root) if root else path
        fa, raw = analyze_file(path, rel, graph)
        inventory["capabilities"] += fa.capability_count
        inventory["guarded_fields"] += len(fa.guarded_by)
        for line, name, cls, detail in fa.globals:
            inventory["globals"] += 1
            if cls == "unannotated":
                findings.append({
                    "path": rel, "line": line,
                    "rule": "unannotated-global",
                    "message": f"'{name}' is mutable shared state "
                               f"with no guarded/atomic/confined "
                               f"classification (annotate with "
                               f"JETSIM_GUARDED_BY, make it atomic, "
                               f"or justify `// jetrace: "
                               f"confined(<thread>)`)"})
            else:
                inventory[cls] += 1
        for line, tok in fa.raw_mutex:
            findings.append({
                "path": rel, "line": line, "rule": "raw-mutex",
                "message": f"{tok} bypasses core::Mutex/LockGuard; "
                           f"the lock becomes invisible to "
                           f"-Wthread-safety and the jetrace lock "
                           f"graph"})
        for line, cap in fa.guarded_by:
            if fa.mutex_decls and cap not in fa.mutex_decls:
                if not allowed(raw, line - 1, "unknown-capability"):
                    findings.append({
                        "path": rel, "line": line,
                        "rule": "unknown-capability",
                        "message": f"JETSIM_GUARDED_BY({cap}) does "
                                   f"not name a core::Mutex declared "
                                   f"in this file"})

    if ci is not None:
        graph.add_libclang_calls(ci, files, root)
    nodes, edges = build_lock_graph(graph)

    cycles = cpplex.find_cycles(nodes, edges)
    for cyc in cycles:
        involved = [(a, b) for (a, b) in edges
                    if a in cyc and b in cyc]
        where = "; ".join(
            f"{a}->{b} at {edges[(a, b)][0]}:{edges[(a, b)][1]}"
            for a, b in sorted(involved))
        findings.append({
            "path": edges[involved[0]][0] if involved else "",
            "line": edges[involved[0]][1] if involved else 0,
            "rule": "lock-cycle",
            "message": f"lock-order cycle over {{{', '.join(cyc)}}} "
                       f"({where}): two threads taking these locks "
                       f"in opposite orders can deadlock"})

    findings.sort(key=lambda f: (f["path"], f["line"], f["rule"]))
    lock_graph = {
        "nodes": nodes,
        "edges": [{"from": a, "to": b, "path": p, "line": ln}
                  for (a, b), (p, ln) in sorted(edges.items())],
        "acyclic": not cycles,
    }
    return findings, inventory, lock_graph


# --- self-test ---------------------------------------------------------

# C++ rendition of src/mc/toylock: the same two-lock discipline jetmc
# model-checks dynamically, expressed in the core::Mutex idiom jetrace
# audits statically. Worker programs mirror ToyLockModel::run.
SELFTEST_COMMON = """\
#include "core/mutex.hh"
using jetsim::core::LockGuard;
using jetsim::core::Mutex;

Mutex lockA;
Mutex lockB;
int shared_ab JETSIM_GUARDED_BY(lockA);
"""

SELFTEST_ORDERED = SELFTEST_COMMON + """
void worker1() { LockGuard a(lockA); LockGuard b(lockB); ++shared_ab; }
void worker2() { LockGuard a(lockA); LockGuard b(lockB); ++shared_ab; }
"""

SELFTEST_INVERTED = SELFTEST_COMMON + """
void worker1() { LockGuard a(lockA); LockGuard b(lockB); ++shared_ab; }
void worker2() { LockGuard b(lockB); LockGuard a(lockA); }
"""

# A lock taken two calls below a held one, through a function that
# holds nothing itself (the shape of sharedEngine -> Builder::build ->
# internName): the lockA -> lockB edge must still be found.
SELFTEST_TRANSITIVE = SELFTEST_COMMON + """
void leaf() { LockGuard b(lockB); }
void middle() { leaf(); }
void outer() { LockGuard a(lockA); middle(); ++shared_ab; }
"""

# The build-once stores' shape (sharedEngine, modelByName): the lock
# covers only the lookup, in a block of its own, and the build that
# takes another lock runs after that block closes. No lockA -> lockB
# edge may be reported.
SELFTEST_SCOPED = SELFTEST_COMMON + """
void build() { LockGuard b(lockB); }
void store()
{
    {
        LockGuard a(lockA);
        ++shared_ab;
    }
    build();
}
"""

# MPSC-inbox fixtures: a miniature of the lock-free shard inbox ring
# that replaced the shard_mu_ mutex inbox in DESIGN.md §4i (the
# engine's cross-shard queues are now the single-producer outboxes of
# src/sim/outbox.hh). The ring variant is pure std::atomic — it must
# audit clean AND contribute zero lock-graph capabilities, because
# cross-shard posting must not introduce any lock the shard clocks
# could entangle with. The mutexed variant
# reintroduces the old raw std::mutex inbox; raw-mutex must flag both
# the declaration and the lock site before that lock can re-enter the
# engine invisible to the graph.
SELFTEST_MPSC_RING = """\
#include <atomic>
#include <cstdint>

std::atomic<std::uint64_t> ring_seq{0};
// jetrace: confined(handoff via ring_seq release/acquire pair)
std::uint64_t ring_payload = 0;
std::atomic<std::uint64_t> ring_tail{0};
std::atomic<std::uint64_t> msgs_pending{0};

void push(std::uint64_t v)
{
    const std::uint64_t pos =
        ring_tail.fetch_add(1, std::memory_order_acq_rel);
    ring_payload = v;
    ring_seq.store(pos + 1, std::memory_order_release);
    msgs_pending.fetch_add(1, std::memory_order_release);
}

std::uint64_t drainOne(std::uint64_t head)
{
    if (ring_seq.load(std::memory_order_acquire) != head + 1)
        return 0;
    msgs_pending.fetch_sub(1, std::memory_order_relaxed);
    return ring_payload;
}
"""

SELFTEST_MPSC_RAW_MUTEX = """\
#include <cstdint>
#include <mutex>

std::mutex shard_mu_;
std::uint64_t inbox JETSIM_GUARDED_BY(shard_mu_);
std::uint64_t inbox_n JETSIM_GUARDED_BY(shard_mu_);

void push(std::uint64_t v)
{
    std::lock_guard<std::mutex> g(shard_mu_);
    inbox = v + inbox_n++;
}
"""


def selftest(jetmc_ce):
    import tempfile
    ok = True
    with tempfile.TemporaryDirectory() as td:
        for name, src, want_cycle in [
                ("toylock_ordered.cc", SELFTEST_ORDERED, False),
                ("toylock_transitive.cc", SELFTEST_TRANSITIVE, False),
                ("toylock_scoped.cc", SELFTEST_SCOPED, False),
                ("toylock_inverted.cc", SELFTEST_INVERTED, True)]:
            p = os.path.join(td, name)
            with open(p, "w", encoding="utf-8") as f:
                f.write(src)
            findings, _, graph = audit([p], td)
            cycles = [f for f in findings if f["rule"] == "lock-cycle"]
            if want_cycle and not cycles:
                print(f"jetrace selftest: FAILED — no lock-cycle "
                      f"reported for {name}")
                ok = False
            elif not want_cycle and cycles:
                print(f"jetrace selftest: FAILED — spurious "
                      f"lock-cycle on {name}: {cycles}")
                ok = False
            others = [f for f in findings if f["rule"] != "lock-cycle"]
            if others:
                print(f"jetrace selftest: FAILED — unexpected "
                      f"findings on {name}: {others}")
                ok = False
            want_edge = src is not SELFTEST_SCOPED
            has_edge = ("lockA", "lockB") in {
                (e["from"], e["to"]) for e in graph["edges"]}
            if not want_cycle and has_edge != want_edge:
                print(f"jetrace selftest: FAILED — {name} "
                      f"{'is missing' if want_edge else 'reports'} "
                      f"the lockA->lockB edge")
                ok = False
        for name, src, want_raw in [
                ("mpsc_ring.cc", SELFTEST_MPSC_RING, 0),
                ("mpsc_raw_inbox.cc", SELFTEST_MPSC_RAW_MUTEX, 2)]:
            p = os.path.join(td, name)
            with open(p, "w", encoding="utf-8") as f:
                f.write(src)
            findings, inv, graph = audit([p], td)
            raw = [f for f in findings if f["rule"] == "raw-mutex"]
            others = [f for f in findings
                      if f["rule"] != "raw-mutex"]
            if len(raw) != want_raw:
                print(f"jetrace selftest: FAILED — expected "
                      f"{want_raw} raw-mutex finding(s) on {name}, "
                      f"got {raw}")
                ok = False
            if others:
                print(f"jetrace selftest: FAILED — unexpected "
                      f"findings on {name}: {others}")
                ok = False
            if name == "mpsc_ring.cc":
                # The whole point of the ring: zero capabilities.
                if graph["nodes"] or inv["capabilities"]:
                    print(f"jetrace selftest: FAILED — MPSC ring "
                          f"fixture added lock-graph capabilities: "
                          f"nodes={graph['nodes']} "
                          f"capabilities={inv['capabilities']}")
                    ok = False
                if inv["atomic"] < 3 or inv["confined"] < 1:
                    print(f"jetrace selftest: FAILED — MPSC ring "
                          f"inventory misclassified: {inv}")
                    ok = False
    if ok:
        print("jetrace selftest: inverted two-lock fixture yields "
              "the lockA<->lockB cycle; ordered fixture is acyclic; "
              "lockA->lockB found through a lock-free caller, and "
              "not after the lock's block closes; "
              "MPSC inbox ring audits clean with zero lock-graph "
              "capabilities, raw-mutex inbox variant flagged")
    if jetmc_ce:
        try:
            with open(jetmc_ce, encoding="utf-8") as f:
                ce = json.load(f)
        except (OSError, ValueError) as e:
            print(f"jetrace selftest: cannot read jetmc CE "
                  f"{jetmc_ce}: {e}")
            return False
        if ce.get("what") != "deadlock" or \
                ce.get("model") != "toylock-inverted":
            print(f"jetrace selftest: FAILED — jetmc CE disagrees "
                  f"(model={ce.get('model')}, what={ce.get('what')}); "
                  f"static verdict says only the inverted discipline "
                  f"deadlocks")
            return False
        print("jetrace selftest: cross-check OK — jetmc's dynamic "
              "deadlock is on toylock-inverted, matching the static "
              "cycle verdict")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description="concurrency-discipline audit for jetsim src/")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings + inventory + lock graph as "
                         "JSON on stdout")
    ap.add_argument("--sarif", action="store_true",
                    help="emit findings as a SARIF 2.1.0 log")
    ap.add_argument("--dot", action="store_true",
                    help="emit the lock-order graph in DOT form")
    ap.add_argument("--selftest", action="store_true",
                    help="audit the embedded two-lock fixtures "
                         "(mirrors jetmc --selftest)")
    ap.add_argument("--jetmc-ce", default=None, metavar="FILE",
                    help="with --selftest: cross-check against the "
                         "counterexample jetmc found dynamically")
    ap.add_argument("--backend", default="auto",
                    choices=["auto", "lex", "libclang"],
                    help="inventory and call-edge backend (default: "
                         "libclang when the bindings are importable, "
                         "else lexical)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to audit (default: <root>/src)")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES:
            print(f"{rule:20} {desc}")
        return 0

    if args.selftest:
        return 0 if selftest(args.jetmc_ce) else 1

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    targets = args.paths or [os.path.join(root, "src")]
    files = cpplex.collect_files(targets)
    if not files:
        print("jetrace: no input files", file=sys.stderr)
        return 2

    ci = None
    if args.backend in ("auto", "libclang"):
        ci = cpplex.try_libclang()
        if ci is None and args.backend == "libclang":
            print("jetrace: libclang Python bindings not importable; "
                  "install them or use --backend=lex", file=sys.stderr)
            return 2
        if ci is None and not (args.json or args.sarif):
            print("jetrace: note: libclang bindings unavailable; "
                  "using the lexical backend", file=sys.stderr)

    findings, inventory, lock_graph = audit(files, root, ci)

    if ci is not None:
        # AST refinement: any static-storage VarDecl the lexical
        # inventory missed becomes a finding too.
        seen = set()
        lex_names = {(f["path"], f["line"]) for f in findings}
        src_dir = os.path.join(root, "src")
        for path in files:
            rel = os.path.relpath(path, root)
            for line, name in libclang_inventory(ci, path, src_dir):
                key = (rel, line)
                if key in lex_names or key in seen:
                    continue
                seen.add(key)
                with open(path, encoding="utf-8",
                          errors="replace") as f:
                    raw = f.read().splitlines()
                code = raw[line - 1] if line - 1 < len(raw) else ""
                if SYNC_TYPE_RE.search(code) or \
                        GUARDED_BY_RE.search(code) or \
                        "thread_local" in code or \
                        annotation_comment(raw, line - 1) or \
                        allowed(raw, line - 1, "unannotated-global"):
                    continue
                findings.append({
                    "path": rel, "line": line,
                    "rule": "unannotated-global",
                    "message": f"'{name}' (libclang): mutable "
                               f"static-storage object with no "
                               f"classification"})
        findings.sort(key=lambda f: (f["path"], f["line"], f["rule"]))

    if args.dot:
        print("digraph lock_order {")
        for e in lock_graph["edges"]:
            print(f'  "{e["from"]}" -> "{e["to"]}" '
                  f'[label="{e["path"]}:{e["line"]}"];')
        print("}")
        return 0

    if cpplex.report(args, "jetrace", RULES, findings, root,
                     files=len(files), inventory=inventory,
                     lock_graph=lock_graph):
        return 1 if findings else 0
    n_edges = len(lock_graph["edges"])
    shape = "acyclic" if lock_graph["acyclic"] else "CYCLIC"
    if findings:
        print(f"jetrace: {len(findings)} finding(s) in "
              f"{len(files)} files (lock graph: "
              f"{len(lock_graph['nodes'])} capabilities, "
              f"{n_edges} edges, {shape})")
        return 1
    print(f"jetrace: {len(files)} files clean — "
          f"{inventory['capabilities']} capabilities, "
          f"{inventory['guarded_fields']} guarded fields, "
          f"{inventory['atomic']} atomic, "
          f"{inventory['confined']} confined, "
          f"{inventory['guarded']} self-synchronized globals; "
          f"lock graph {len(lock_graph['nodes'])} nodes / "
          f"{n_edges} edges, {shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
