#!/usr/bin/env python3
"""Self-test for tools/jethot.py.

Feeds synthetic C++ files through the hot-path discipline analyzer
and checks each rule fires on a seeded violation and stays quiet on
the idiomatic pattern it must not confuse it with: placement new vs.
operator new, a single wait-free fetch_add vs. a CAS retry loop, a
JETSIM_CHECK error arm vs. a reachable throw. Also pins the
annotation semantics (JETSIM_HOT roots, function- and statement-level
JETSIM_COLD_OK, JETSIM_HOT_BOUNDARY, the `// jethot:` comment forms),
chain minimisation, class-qualified call resolution (an atomic
member `.store(...)` must not alias an unrelated `X::store`, and a
call on another object is not taken for the caller's own method), the
--json and --sarif contracts, and that the repo's own src/ tree
audits clean.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
JETHOT = os.path.join(TOOLS, "jethot.py")


def load_jethot_module():
    spec = importlib.util.spec_from_file_location("jethot", JETHOT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


JETHOT_MOD = load_jethot_module()


class AuditMixin:
    """audit() one in-memory fixture with the lexical backend."""

    def audit_src(self, src, name="fixture.cc"):
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(src)
            return JETHOT_MOD.audit([path], td, backend="lex")

    def rules_of(self, findings):
        return sorted({f["rule"] for f in findings})


class RuleFiresTest(AuditMixin, unittest.TestCase):
    """Each rule fires on its seeded violation, with a chain."""

    def test_hot_alloc_new(self):
        findings, _, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_HOT_ALLOC)
        self.assertIn("hot-alloc", self.rules_of(findings))

    def test_hot_alloc_container_growth(self):
        findings, _, _ = self.audit_src("""
            #include <vector>
            std::vector<int> v_;
            JETSIM_HOT void root() { v_.push_back(1); }
        """)
        self.assertIn("hot-alloc", self.rules_of(findings))

    def test_fifo_growth_is_a_call_edge(self):
        # Growth on a sim::Fifo receiver (member or accessor) is
        # followed into Fifo::push_back and ends at Fifo::grow's
        # escape; growth on the std::vector is still a finding.
        findings, summ, _ = self.audit_src(JETHOT_MOD.SELFTEST_FIFO)
        hits = [f for f in findings if f["rule"] == "hot-alloc"]
        self.assertEqual([h["line"] for h in hits], [22], hits)
        self.assertIn("Fifo::grow", [e["fn"] for e in summ["cold_ok"]])

    def test_fifo_receiver_names(self):
        self.assertEqual(
            JETHOT_MOD.receiver_name("queueFor(t->big_).push_back(",
                                     17), "queueFor")
        self.assertEqual(
            JETHOT_MOD.receiver_name("ch.queue.push_back(", 8),
            "queue")

    def test_hot_lock(self):
        findings, _, _ = self.audit_src(JETHOT_MOD.SELFTEST_HOT_LOCK)
        self.assertIn("hot-lock", self.rules_of(findings))

    def test_hot_throw(self):
        findings, _, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_HOT_THROW)
        self.assertIn("hot-throw", self.rules_of(findings))

    def test_hot_io(self):
        findings, _, _ = self.audit_src("""
            #include <cstdio>
            void logIt() { printf("x"); }
            JETSIM_HOT void root() { logIt(); }
        """)
        self.assertIn("hot-io", self.rules_of(findings))

    def test_hot_env(self):
        findings, _, _ = self.audit_src("""
            int threads() { return core::env().threads; }
            JETSIM_HOT void root() { threads(); }
        """)
        self.assertIn("hot-env", self.rules_of(findings))

    def test_hot_spin(self):
        findings, _, _ = self.audit_src(JETHOT_MOD.SELFTEST_SPIN)
        self.assertIn("hot-spin", self.rules_of(findings))

    def test_call_on_a_member_reaches_every_namesake(self):
        # Queue has its own flush, but `log_.flush()` is a call on a
        # Log: the own-class step applies only to bare and `this->`
        # calls, so Log::flush's throw is reached.
        findings, _, _ = self.audit_src("""
            struct Log { void flush(); };
            void Log::flush() { throw 1; }
            struct Queue {
                void flush() {}
                void pop();
                Log log_;
            };
            JETSIM_HOT void Queue::pop() { log_.flush(); }
        """)
        hits = [f for f in findings if f["rule"] == "hot-throw"]
        self.assertEqual([h["chain"] for h in hits],
                         [["Queue::pop", "Log::flush"]], findings)

    def test_lambda_argument_does_not_hide_the_callee(self):
        # The lambda passed after a parenthesised argument is its own
        # node, so q.post(...) still reaches Q::post's allocation.
        findings, _, _ = self.audit_src("""
            struct Q { template <typename F> void post(int, int, F); };
            template <typename F>
            void Q::post(int, int, F) { new int(1); }
            int twice(int x) { return 2 * x; }
            JETSIM_HOT void root(Q &q, int x)
            {
                q.post(1, twice(x), [x] {});
            }
        """)
        hits = [f for f in findings if f["rule"] == "hot-alloc"]
        self.assertEqual([h["chain"] for h in hits],
                         [["root", "Q::post"]], findings)

    def test_chain_is_minimised(self):
        findings, _, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_HOT_ALLOC)
        hits = [f for f in findings if f["rule"] == "hot-alloc"]
        self.assertTrue(hits)
        self.assertEqual(len(hits[0]["chain"]), 2,
                         f"decoy path not minimised: {hits[0]}")


class QuietOnIdiomaticTest(AuditMixin, unittest.TestCase):
    """The discipline's own idioms must not trip the rules."""

    def test_placement_new_quiet(self):
        findings, _, _ = self.audit_src("""
            struct Fn { unsigned char buf_[48]; };
            JETSIM_HOT void root(Fn &f, int v)
            { ::new (static_cast<void *>(f.buf_)) int(v); }
        """)
        self.assertEqual(findings, [])

    def test_single_fetch_add_quiet(self):
        findings, _, _ = self.audit_src("""
            #include <atomic>
            std::atomic<unsigned long> n_{0};
            JETSIM_HOT void root()
            { n_.fetch_add(1, std::memory_order_relaxed); }
        """)
        self.assertEqual(findings, [])

    def test_check_macro_arm_quiet(self):
        findings, _, _ = self.audit_src("""
            JETSIM_HOT void root(int live, int cap)
            {
                JETSIM_CHECK(live <= cap, Severity::Error,
                             "live (%d) exceeds capacity (%d)",
                             live, cap);
            }
        """)
        self.assertEqual(findings, [])

    def test_unreachable_alloc_quiet(self):
        findings, _, _ = self.audit_src("""
            void coldSetup() { int *p = new int[64]; delete[] p; }
            JETSIM_HOT void root(int x) { (void)x; }
        """)
        self.assertEqual(findings, [])

    def test_atomic_store_does_not_alias_repo_store(self):
        # Regression: `sense_.store(...)` must not create a call
        # edge to an unrelated ResultCache::store.
        findings, _, _ = self.audit_src("""
            #include <atomic>
            struct ResultCache {
                void store(int k) { int *p = new int(k); sink(p); }
            };
            std::atomic<bool> sense_{false};
            JETSIM_HOT void root()
            { sense_.store(true, std::memory_order_release); }
        """)
        self.assertEqual(findings, [])

    def test_own_class_member_preferred(self):
        # A::tick() calling helper() resolves to A::helper, not to
        # the identically named allocating B::helper.
        findings, _, _ = self.audit_src("""
            struct A {
                void helper() { ++n_; }
                JETSIM_HOT void tick() { helper(); }
                int n_ = 0;
            };
            struct B {
                void helper() { p_ = new int(1); }
                int *p_ = nullptr;
            };
        """)
        self.assertEqual(findings, [])


class SuppressionTest(AuditMixin, unittest.TestCase):
    """Every sanctioned-escape form stops the finding and is
    ledgered."""

    def test_function_cold_ok(self):
        findings, summ, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_COLD_OK_QUIET)
        self.assertEqual(findings, [])
        self.assertTrue(any(e["scope"] == "function"
                            for e in summ["cold_ok"]))

    def test_statement_cold_ok(self):
        findings, summ, _ = self.audit_src("""
            #include <vector>
            std::vector<int> keys_;
            JETSIM_HOT void root(int k)
            {
                JETSIM_COLD_OK("amortized: reserved up front")
                keys_.push_back(k);
            }
        """)
        self.assertEqual(findings, [])
        self.assertTrue(any(e["scope"] == "statement"
                            for e in summ["cold_ok"]))

    def test_boundary_macro(self):
        findings, _, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_BOUNDARY_QUIET)
        self.assertEqual(findings, [])

    def test_boundary_comment(self):
        findings, _, _ = self.audit_src("""
            // jethot: boundary(choose) audited by the checker
            struct Chooser { virtual int choose(int n) = 0; };
            struct Impl : Chooser {
                int choose(int n) { int *p = new int(n); return *p; }
            };
            JETSIM_HOT void root(Chooser &c) { c.choose(2); }
        """)
        self.assertEqual(findings, [])

    def test_allow_comment(self):
        findings, _, _ = self.audit_src(
            JETHOT_MOD.SELFTEST_SPIN_ALLOWED)
        self.assertEqual(
            [f for f in findings if f["rule"] == "hot-spin"], [])


class CliContractTest(unittest.TestCase):
    """--json / --sarif schemas, --selftest, and the src/ gate."""

    def run_cli(self, args, path_src=None):
        with tempfile.TemporaryDirectory() as td:
            extra = []
            if path_src is not None:
                p = os.path.join(td, "t.cc")
                with open(p, "w", encoding="utf-8") as f:
                    f.write(path_src)
                extra = ["--root", td, p]
            return subprocess.run(
                [sys.executable, JETHOT, "--backend", "lex"]
                + args + extra,
                capture_output=True, text=True)

    def test_selftest_passes(self):
        proc = self.run_cli(["--selftest"])
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_json_contract(self):
        proc = self.run_cli(
            ["--json"], JETHOT_MOD.SELFTEST_HOT_ALLOC)
        self.assertEqual(proc.returncode, 1)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["schema_version"], 1)
        self.assertEqual(doc["tool"], "jethot")
        self.assertTrue(doc["findings"])
        for f in doc["findings"]:
            for k in ("path", "line", "rule", "message", "chain"):
                self.assertIn(k, f)
        for k in ("roots", "reachable", "reachable_fns", "cold_ok",
                  "boundaries"):
            self.assertIn(k, doc)
        self.assertEqual(len(doc["reachable_fns"]), doc["reachable"])
        self.assertIn("leakyHelper", doc["reachable_fns"])

    def test_sarif_contract(self):
        proc = self.run_cli(
            ["--sarif"], JETHOT_MOD.SELFTEST_HOT_ALLOC)
        self.assertEqual(proc.returncode, 1)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "jethot")
        self.assertTrue(run["results"])
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for res in run["results"]:
            self.assertIn(res["ruleId"], rule_ids)

    def test_dot_output(self):
        proc = self.run_cli(
            ["--dot"], JETHOT_MOD.SELFTEST_HOT_ALLOC)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("digraph hot_reach", proc.stdout)
        self.assertIn("leakyHelper", proc.stdout)

    def test_repo_src_is_clean(self):
        """The committed tree must audit clean: every real finding
        fixed or carrying an analyzer-verified JETSIM_COLD_OK."""
        root = os.path.join(TOOLS, os.pardir)
        proc = subprocess.run(
            [sys.executable, JETHOT, "--backend", "lex", "--json",
             "--root", root, os.path.join(root, "src")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["findings"], [])
        self.assertTrue(len(doc["roots"]) >= 10)


if __name__ == "__main__":
    unittest.main(verbosity=2)
