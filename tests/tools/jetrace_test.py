#!/usr/bin/env python3
"""Self-test for tools/jetrace.py.

Feeds synthetic C++ files through the concurrency auditor and checks
each rule fires (and stays quiet) where it should: the shared-state
inventory trichotomy (guarded / atomic / confined), the raw-mutex
ban, unknown capabilities, lock-order cycle detection across both
single functions and the call graph, suppression and justification
comments, and
the --json contract (schema_version 1, inventory and
lock-graph blocks, exit codes). Also runs the embedded --selftest
(the two-lock jetmc mirror) and asserts src/ itself audits clean.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

JETRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "tools", "jetrace.py")


def load_jetrace_module():
    """Import tools/jetrace.py so tests can reuse its embedded
    selftest fixtures verbatim (keeps test and --selftest in
    lockstep)."""
    spec = importlib.util.spec_from_file_location("jetrace", JETRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


JETRACE_MOD = load_jetrace_module()

# Every fixture is audited with the lexical backend so the results do
# not depend on whether libclang bindings happen to be installed.
BASE_ARGS = ["--backend", "lex"]


def run_audit(source, extra_args=None, filename="probe.cc"):
    """Audit one synthetic file; returns (exit_code, stdout)."""
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, filename)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        proc = subprocess.run(
            [sys.executable, JETRACE] + BASE_ARGS +
            (extra_args or []) + ["--root", td, path],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout


class JetraceInventory(unittest.TestCase):
    def assert_rule(self, source, rule):
        code, out = run_audit(source)
        self.assertEqual(code, 1, out)
        self.assertIn(f"[{rule}]", out)

    def assert_clean(self, source):
        code, out = run_audit(source)
        self.assertEqual(code, 0, out)

    def test_unannotated_global_fires(self):
        self.assert_rule("int g_shared = 0;\n", "unannotated-global")

    def test_unannotated_local_static_fires(self):
        self.assert_rule(
            "int f() { static int calls = 0; return ++calls; }\n",
            "unannotated-global")

    def test_guarded_global_passes(self):
        self.assert_clean(
            "Mutex mu;\n"
            "int g_shared JETSIM_GUARDED_BY(mu) = 0;\n")

    def test_atomic_global_passes(self):
        self.assert_clean("std::atomic<int> g_shared{0};\n")

    def test_thread_local_passes(self):
        self.assert_clean("thread_local int t_scratch = 0;\n")

    def test_const_globals_are_not_inventory(self):
        self.assert_clean("const int kLimit = 8;\n"
                          "constexpr double kScale = 1.5;\n")

    def test_concepts_are_not_inventory(self):
        self.assert_clean("template <class S, class T>\n"
                          "concept Same = std::is_same_v<S, T>;\n")

    def test_confined_comment_passes(self):
        self.assert_clean(
            "// jetrace: confined(main) set once before spawn\n"
            "int g_config = 0;\n")

    def test_guarded_comment_passes(self):
        # Self-synchronized singletons: members individually guarded.
        self.assert_clean(
            "int f() { static int reg = 0; // jetrace: guarded(mu)\n"
            "  return reg; }\n")

    def test_allow_suppresses(self):
        self.assert_clean(
            "// jetrace: allow(unannotated-global) test fixture\n"
            "int g_loose = 0;\n")

    def test_comments_and_strings_are_stripped(self):
        self.assert_clean(
            '// int g_commented = 0;\n'
            '/* std::mutex in_a_comment; */\n'
            'const char *s = "std::mutex in_a_string";\n')


class JetraceLocks(unittest.TestCase):
    def test_raw_mutex_fires(self):
        code, out = run_audit("std::mutex mu;\n")
        self.assertEqual(code, 1, out)
        self.assertIn("[raw-mutex]", out)

    def test_raw_lock_guard_fires(self):
        code, out = run_audit(
            "void f() { std::lock_guard<std::mutex> l(mu); }\n")
        self.assertEqual(code, 1, out)
        self.assertIn("[raw-mutex]", out)

    def test_raw_mutex_allowed_in_core_mutex_hh(self):
        # The one sanctioned wrapping site.
        with tempfile.TemporaryDirectory() as td:
            d = os.path.join(td, "core")
            os.makedirs(d)
            path = os.path.join(d, "mutex.hh")
            with open(path, "w", encoding="utf-8") as f:
                f.write("class Mutex { std::mutex m_; };\n")
            proc = subprocess.run(
                [sys.executable, JETRACE] + BASE_ARGS +
                ["--root", td, path],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_unknown_capability_fires(self):
        self.assert_finding(
            "Mutex mu;\n"
            "int x JETSIM_GUARDED_BY(other) = 0;\n",
            "unknown-capability")

    def assert_finding(self, source, rule):
        code, out = run_audit(source)
        self.assertEqual(code, 1, out)
        self.assertIn(f"[{rule}]", out)

    def test_ordered_chain_is_acyclic(self):
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() { LockGuard la(a); LockGuard lb(b); }\n"
            "void g() { LockGuard la(a); LockGuard lb(b); }\n")
        self.assertEqual(code, 0, out)
        self.assertIn("acyclic", out)

    def test_inverted_order_is_a_cycle(self):
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() { LockGuard la(a); LockGuard lb(b); }\n"
            "void g() { LockGuard lb(b); LockGuard la(a); }\n")
        self.assertEqual(code, 1, out)
        self.assertIn("[lock-cycle]", out)
        self.assertIn("deadlock", out)

    def test_cycle_through_call_graph(self):
        # f holds a and calls h (which takes b); g inverts directly.
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void h() { LockGuard lb(b); }\n"
            "void f() { LockGuard la(a); h(); }\n"
            "void g() { LockGuard lb(b); LockGuard la(a); }\n")
        self.assertEqual(code, 1, out)
        self.assertIn("[lock-cycle]", out)

    def test_sequential_scopes_do_not_edge(self):
        # Guards in sibling blocks are never held together.
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() { { LockGuard la(a); } { LockGuard lb(b); } }\n"
            "void g() { { LockGuard lb(b); } { LockGuard la(a); } }\n")
        self.assertEqual(code, 0, out)

    def test_requires_annotation_contributes_held_set(self):
        # f() runs with `a` held by contract; taking b inside it plus
        # g()'s inverted order closes the cycle.
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() JETSIM_REQUIRES(a) { LockGuard lb(b); }\n"
            "void g() { LockGuard lb(b); LockGuard la(a); }\n")
        self.assertEqual(code, 1, out)
        self.assertIn("[lock-cycle]", out)


# Batch::drain holds lockA and calls its own lock-free flush();
# Cache::flush takes lockB and Other::run inverts the order. The bare
# call resolves to Batch::flush, so there is no lockA -> lockB edge
# and no cycle: resolving by base name alone invents one.
OWN_CLASS_CALL = """\
Mutex lockA;
Mutex lockB;
struct Batch {
    void flush() { ++n_; }
    void drain() { LockGuard a(lockA); flush(); }
    int n_ = 0;
};
struct Cache {
    void flush() { LockGuard b(lockB); }
};
struct Other {
    void run() { LockGuard b(lockB); LockGuard a(lockA); }
};
"""

# The same shape with drain() calling flush() on a Sink member: the
# receiver's class is unknown to the lexer, so the call reaches every
# flush, Sink::flush's lockB among them, and the cycle is real.
RECEIVER_CALL = """\
Mutex lockA;
Mutex lockB;
struct Sink {
    void flush() { LockGuard b(lockB); }
};
struct Batch {
    void flush() { ++n_; }
    void drain() { LockGuard a(lockA); sink_.flush(); }
    Sink sink_;
    int n_ = 0;
};
struct Other {
    void run() { LockGuard b(lockB); LockGuard a(lockA); }
};
"""


class JetraceResolver(unittest.TestCase):
    """Calls resolve through the call graph shared with jethot
    (tools/cpplex.py): a bare call prefers the caller's own class, a
    call on another object may reach every function of that name."""

    def audit_json(self, source):
        code, out = run_audit(source, extra_args=["--json"])
        doc = json.loads(out)
        return code, doc, {(e["from"], e["to"])
                           for e in doc["lock_graph"]["edges"]}

    def test_own_class_call_is_not_a_name_collision(self):
        code, doc, edges = self.audit_json(OWN_CLASS_CALL)
        self.assertEqual(code, 0, doc["findings"])
        self.assertTrue(doc["lock_graph"]["acyclic"])
        self.assertEqual(edges, {("lockB", "lockA")})

    def test_call_on_a_member_reaches_every_namesake(self):
        code, doc, edges = self.audit_json(RECEIVER_CALL)
        self.assertEqual(code, 1, doc["findings"])
        self.assertFalse(doc["lock_graph"]["acyclic"])
        self.assertEqual(edges, {("lockA", "lockB"), ("lockB", "lockA")})
        self.assertEqual([f["rule"] for f in doc["findings"]],
                         ["lock-cycle"])


class JetraceMpscInbox(unittest.TestCase):
    """The sharded engine's lock-free MPSC inbox ring replaced the
    shard_mu_ mutex inbox (DESIGN.md §4i). These tests pin the audit
    contract for that replacement: the ring idiom introduces no
    lock-graph capability at all, and the old mutexed idiom is flagged
    before it can come back."""

    def test_ring_fixture_is_clean_and_capability_free(self):
        code, out = run_audit(JETRACE_MOD.SELFTEST_MPSC_RING,
                              extra_args=["--json"],
                              filename="mpsc_ring.cc")
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        self.assertEqual(doc["findings"], [])
        self.assertEqual(doc["lock_graph"]["nodes"], [])
        self.assertEqual(doc["lock_graph"]["edges"], [])
        inv = doc["inventory"]
        self.assertEqual(inv["capabilities"], 0)
        self.assertGreaterEqual(inv["atomic"], 3)
        self.assertGreaterEqual(inv["confined"], 1)

    def test_raw_mutex_inbox_fixture_is_flagged(self):
        code, out = run_audit(JETRACE_MOD.SELFTEST_MPSC_RAW_MUTEX,
                              extra_args=["--json"],
                              filename="mpsc_raw_inbox.cc")
        self.assertEqual(code, 1, out)
        doc = json.loads(out)
        rules = [f["rule"] for f in doc["findings"]]
        # Declaration plus lock site: both raw-mutex, nothing else.
        self.assertEqual(rules, ["raw-mutex", "raw-mutex"])


class JetraceJson(unittest.TestCase):
    def test_json_contract(self):
        code, out = run_audit("int g_loose = 0;\n",
                              extra_args=["--json"])
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertEqual(doc["schema_version"], 1)
        self.assertEqual(doc["tool"], "jetrace")
        self.assertEqual(doc["files"], 1)
        self.assertEqual(len(doc["findings"]), 1)
        f = doc["findings"][0]
        self.assertEqual(f["rule"], "unannotated-global")
        self.assertEqual(f["line"], 1)
        self.assertTrue(f["path"].endswith("probe.cc"))
        self.assertIn("inventory", doc)
        self.assertIn("lock_graph", doc)
        self.assertTrue(doc["lock_graph"]["acyclic"])

    def test_json_inventory_counts(self):
        code, out = run_audit(
            "Mutex mu;\n"
            "int a JETSIM_GUARDED_BY(mu) = 0;\n"
            "std::atomic<int> b{0};\n"
            "// jetrace: confined(main)\n"
            "int c = 0;\n"
            "void f() { LockGuard l(mu); }\n",
            extra_args=["--json"])
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        inv = doc["inventory"]
        self.assertEqual(inv["guarded"], 1)
        # `b` plus the Mutex object itself classify as atomic.
        self.assertEqual(inv["atomic"], 2)
        self.assertEqual(inv["confined"], 1)
        self.assertEqual(inv["capabilities"], 1)
        self.assertEqual(inv["guarded_fields"], 1)
        self.assertEqual(doc["lock_graph"]["nodes"], ["mu"])

    def test_json_lock_graph_edges(self):
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() { LockGuard la(a); LockGuard lb(b); }\n",
            extra_args=["--json"])
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        edges = [(e["from"], e["to"])
                 for e in doc["lock_graph"]["edges"]]
        self.assertEqual(edges, [("a", "b")])

    def test_json_edge_through_lock_free_caller(self):
        # f holds a and calls g, which holds nothing and calls h,
        # which takes b: the a -> b order is still an edge.
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void h() { LockGuard lb(b); }\n"
            "void g() { h(); }\n"
            "void f() { LockGuard la(a); g(); }\n",
            extra_args=["--json"])
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        edges = [(e["from"], e["to"])
                 for e in doc["lock_graph"]["edges"]]
        self.assertEqual(edges, [("a", "b")])

    def test_json_cycle_flag(self):
        code, out = run_audit(
            "Mutex a;\nMutex b;\n"
            "void f() { LockGuard la(a); LockGuard lb(b); }\n"
            "void g() { LockGuard lb(b); LockGuard la(a); }\n",
            extra_args=["--json"])
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertFalse(doc["lock_graph"]["acyclic"])
        self.assertIn("lock-cycle",
                      [f["rule"] for f in doc["findings"]])


class JetraceHarness(unittest.TestCase):
    def test_selftest_passes(self):
        proc = subprocess.run(
            [sys.executable, JETRACE, "--selftest"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("cycle", proc.stdout)

    def test_selftest_rejects_mismatched_jetmc_ce(self):
        # A CE claiming the *ordered* model deadlocked contradicts
        # the static verdict and must fail the cross-check.
        with tempfile.TemporaryDirectory() as td:
            ce = os.path.join(td, "ce.json")
            with open(ce, "w", encoding="utf-8") as f:
                json.dump({"jetmc_ce": 1, "model": "toylock-ordered",
                           "what": "deadlock", "script": []}, f)
            proc = subprocess.run(
                [sys.executable, JETRACE, "--selftest",
                 "--jetmc-ce", ce],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, JETRACE, "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for rule in ("unannotated-global", "lock-cycle", "raw-mutex",
                     "unknown-capability"):
            self.assertIn(rule, proc.stdout)

    def test_repo_src_is_clean(self):
        # The tree itself must satisfy its own discipline, and its
        # lock graph must be acyclic — the gate ci.sh pass 1f holds.
        proc = subprocess.run(
            [sys.executable, JETRACE] + BASE_ARGS + ["--json"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["findings"], [])
        self.assertTrue(doc["lock_graph"]["acyclic"])
        # The annotation campaign's floor: the four core capabilities
        # (runner queues, ordered progress, reporter, name registry)
        # and at least one confined global (the env snapshot).
        self.assertGreaterEqual(doc["inventory"]["capabilities"], 4)
        self.assertGreaterEqual(doc["inventory"]["confined"], 1)


if __name__ == "__main__":
    unittest.main()
