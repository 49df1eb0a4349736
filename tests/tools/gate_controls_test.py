#!/usr/bin/env python3
"""Controls for twelve gates: each must be shown to pass and to fail.

jetlint's plan mode on the committed good plan
(tests/data/plan_good.json, trt::Engine::serialize() of resnet18 at
fp16 for orin-nano) must exit 0 under --werror. The same plan with its
fallback_ops edited to a wrong value must exit 1 under --werror (rule
P006 is a warning) and 0 without it. The capacity planner's prescreen
gate (tools/ci.sh pass 1e) must exit 1 when it asks for more pruned
cells than the grid has. README's rule table must equal the rows of
`jetlint --list-rules --markdown`, in order; a copy of it that keeps a
row for a deleted rule (H001) must fail that check.

simcheck's fleet gates (pass 1c) must fail at a ratio no host reaches
(1000x). --fleet-overhead must pass at one every host reaches (0.01x).
--fleet-scaling, where the process may use at least 4 CPUs, must pass
at 1.5x (within three tries), with its serial-bound 2-shard control
below that, and must
fail at 0.01x, which the control clears too. Pinned to one CPU,
--fleet-scaling must skip, say why and pass. Both verdicts carry the
sharded run's epochs and events per epoch.

simcheck's fleet golden gate (pass 1c) must fail on a copy of
GOLDEN_fleet.json with one digest changed and pass on the committed
file. jetmc's reduction gate (pass 1d) must fail when it asks for a
reduction no search reaches and pass at one it does (2x; the 2-process
resnet50 deployment measures 5x), and must fail, saying the reduction
was not measured, when the DPOR search hit --max-runs (a 3-process
yolov8n deployment cut at 50 runs).

The source analyzers' gates (passes 1b, 1f and 1g) must pass on src/
and fail once one bad file joins it: detlint on a function calling
std::rand() must report one rand finding; jetrace on two functions
taking mu_ and engine_cache_mu in opposite orders must report a lock
cycle over exactly those two locks; jethot on a
JETSIM_HOT root that calls new must report hot-alloc. jethot's
reachability pin (pass 1g) must hold on src/ and fail on a copy of it
whose timer targets lost their JETSIM_HOT marking.

The linker census (pass 1h) runs on a fixture: a static library of two
functions and a program that calls one of them, built with the
census's flags. It must report the uncalled function and fail, pass
once a hook names it, and fail on a hook that names the called one.

    gate_controls_test.py --jetlint PATH --capacity-planner PATH \
        --simcheck PATH --jetmc PATH --cxx COMPILER
"""

import argparse
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
GOOD_PLAN = os.path.join(ROOT, "tests", "data", "plan_good.json")
FLEET_GOLDEN = os.path.join(ROOT, "GOLDEN_fleet.json")
README = os.path.join(ROOT, "README.md")

RULE_ROW = re.compile(r"^\| [A-Z][0-9]{3} \|")
# A rule jetlint no longer has: its row must not survive in README.
STALE_RULE_ROW = ("| H001 | error | waw-hazard | two streams write the "
                  "same buffer with no happens-before edge between the "
                  "writes |")

TOOLS = {}


def run(cmd, preexec_fn=None):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=120, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout + proc.stderr


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def rule_rows(markdown):
    return [line for line in markdown.splitlines() if RULE_ROW.match(line)]


def rule_table_drift(readme, catalogue):
    """The first README rule row that differs from the catalogue's
    row at the same position, or None when the tables are equal."""
    for i, (have, want) in enumerate(itertools.zip_longest(
            rule_rows(readme), rule_rows(catalogue))):
        if have != want:
            return (f"README rule row {i + 1} is {have!r}; jetlint "
                    f"--list-rules --markdown has {want!r} (regenerate "
                    "the table)")
    return None


class GateControls(unittest.TestCase):
    def lint(self, plan, *flags):
        return run([TOOLS["jetlint"], "--plan=" + plan] + list(flags))

    def test_good_plan_lints_clean_under_werror(self):
        code, out = self.lint(GOOD_PLAN, "--werror")
        self.assertEqual(code, 0, out)

    def test_wrong_fallback_count_fails_only_under_werror(self):
        with open(GOOD_PLAN) as f:
            plan = json.load(f)
        plan["fallback_ops"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plan_fallback.json")
            with open(path, "w") as f:
                json.dump(plan, f)
            code, out = self.lint(path, "--werror")
            self.assertEqual(code, 1, out)
            self.assertIn("[P006]", out)
            code, out = self.lint(path)
            self.assertEqual(code, 0, out)
            self.assertIn("[P006]", out)

    def test_prescreen_gate_fails_when_too_few_cells_prune(self):
        code, out = run([TOOLS["capacity_planner"], "--prescreen",
                         "--min-pruned=1000", "nano", "fcn_resnet50",
                         "100", "15"])
        self.assertEqual(code, 1, out)
        self.assertIn("expected >= 1000", out)

    def test_readme_rule_table_equals_the_catalogue(self):
        code, catalogue = run([TOOLS["jetlint"], "--list-rules",
                               "--markdown"])
        self.assertEqual(code, 0, catalogue)
        self.assertTrue(rule_rows(catalogue), catalogue)
        with open(README) as f:
            readme = f.read()
        self.assertIsNone(rule_table_drift(readme, catalogue))
        last = rule_rows(readme)[-1]
        stale = readme.replace(last, last + "\n" + STALE_RULE_ROW, 1)
        drift = rule_table_drift(stale, catalogue)
        self.assertIsNotNone(drift)
        self.assertIn("H001", drift)

    def test_fleet_golden_gate_fails_on_a_changed_digest(self):
        code, out = run([TOOLS["simcheck"],
                         "--fleet-golden=" + FLEET_GOLDEN])
        self.assertEqual(code, 0, out)
        with open(FLEET_GOLDEN) as f:
            golden = json.load(f)
        first = golden["fleet_goldens"][0]
        first["digest"] = "%016x" % (int(first["digest"], 16) ^ 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "GOLDEN_fleet.json")
            with open(path, "w") as f:
                json.dump(golden, f)
            code, out = run([TOOLS["simcheck"], "--fleet-golden=" + path])
        self.assertEqual(code, 1, out)
        self.assertIn("committed " + first["digest"], out)

    def test_reduction_gate_fails_and_passes(self):
        def jetmc(ratio):
            return run([TOOLS["jetmc"], "--device=orin-nano",
                        "--model=resnet50", "--procs=2", "--max-ecs=1",
                        "--depth=8", f"--min-reduction={ratio}"])
        code, out = jetmc(1000000)
        self.assertEqual(code, 1, out)
        self.assertIn("below required 1000000.0x", out)
        code, out = jetmc(2)
        self.assertEqual(code, 0, out)
        self.assertIn("reduction", out)
        # A DPOR search cut off by --max-runs measured no ratio (its
        # naive search is capped too, so it reads 200x): it must fail
        # and say so, naming the configuration.
        code, out = run([TOOLS["jetmc"], "--device=nano",
                         "--model=yolov8n", "--procs=3", "--max-ecs=1",
                         "--compare", "--shared-buffer", "--max-runs=50",
                         "--min-reduction=10"])
        self.assertEqual(code, 1, out)
        self.assertIn("hit --max-runs", out)
        self.assertIn("reduction not measured", out)
        self.assertIn("yolov8n", out)


class FleetGateControls(unittest.TestCase):
    def simcheck(self, gate, ratio, preexec_fn=None):
        code, out = run([TOOLS["simcheck"], f"--{gate}={ratio}",
                         "--json"], preexec_fn)
        verdict = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(verdict["check"], gate, out)
        self.assertTrue(verdict["digest_match"], out)
        self.assertGreater(verdict["epochs"], 0, out)
        self.assertAlmostEqual(verdict["events_per_epoch"],
                               verdict["events"] / verdict["epochs"],
                               delta=0.1)
        return code, verdict

    def test_overhead_gate_fails_and_passes(self):
        code, verdict = self.simcheck("fleet-overhead", 1000)
        self.assertEqual(code, 1, verdict)
        self.assertFalse(verdict["pass"], verdict)
        code, verdict = self.simcheck("fleet-overhead", 0.01)
        self.assertEqual(code, 0, verdict)
        self.assertTrue(verdict["pass"], verdict)

    @unittest.skipIf(len(os.sched_getaffinity(0)) < 4,
                     "fewer than 4 usable CPUs: the gate self-skips")
    def test_scaling_gate_fails_and_passes(self):
        code, verdict = self.simcheck("fleet-scaling", 1000)
        self.assertEqual(code, 1, verdict)
        self.assertFalse(verdict["skipped"], verdict)
        self.assertGreaterEqual(verdict["usable_cpus"], 4, verdict)
        # A wall-clock ratio on a shared host: a burst of load from
        # outside can sink one verdict, so the pass gets three tries.
        for _ in range(3):
            code, verdict = self.simcheck("fleet-scaling", 1.5)
            if code == 0:
                break
        self.assertEqual(code, 0, verdict)
        self.assertTrue(verdict["pass"], verdict)
        self.assertGreaterEqual(verdict["speedup"], 1.5, verdict)
        # The serial-bound control fails the same gate.
        self.assertLess(verdict["control_speedup"], 1.5, verdict)

    @unittest.skipIf(len(os.sched_getaffinity(0)) < 4,
                     "fewer than 4 usable CPUs: the gate self-skips")
    def test_scaling_gate_fails_when_the_control_clears_it(self):
        code, verdict = self.simcheck("fleet-scaling", 0.01)
        self.assertEqual(code, 1, verdict)
        self.assertFalse(verdict["pass"], verdict)
        self.assertGreaterEqual(verdict["control_speedup"], 0.01,
                                verdict)

    def test_scaling_gate_skips_when_pinned_to_one_cpu(self):
        code, verdict = self.simcheck("fleet-scaling", 1000,
                                      pin_to_one_cpu)
        self.assertEqual(code, 0, verdict)
        self.assertTrue(verdict["skipped"], verdict)
        self.assertEqual(verdict["usable_cpus"], 1, verdict)
        self.assertGreaterEqual(verdict["cores"], 1, verdict)
        self.assertIn("may use 1 of", verdict["skip_reason"])
        code, out = run([TOOLS["simcheck"], "--fleet-scaling=1000"],
                        pin_to_one_cpu)
        self.assertEqual(code, 0, out)
        self.assertIn("speedup gate skipped: process may use 1 of", out)


# Takes the JetSan reporter's lock and the engine cache's in both
# orders. src/ itself holds no lock while it takes another, so both
# edges of the cycle come from this file.
INVERTED_LOCKS = """\
#include "core/mutex.hh"
void reporterFirst(Reporter &r, EngineCache &cache)
{
    core::LockGuard a(r.mu_);
    core::LockGuard b(cache.engine_cache_mu);
}
void cacheFirst(Reporter &r, EngineCache &cache)
{
    core::LockGuard b(cache.engine_cache_mu);
    core::LockGuard a(r.mu_);
}
"""

HOT_NEW = """\
#include "core/hot_annotations.hh"
JETSIM_HOT int *controlRoot() { return new int(1); }
"""

RAND_CALL = """\
#include <cstdlib>
int controlDraw() { return std::rand(); }
"""


class AnalyzerGateControls(unittest.TestCase):
    def analyze(self, tool, extra=None, flags=("--backend", "lex")):
        """Run a source analyzer over src/ (plus @p extra's source);
        returns (exit code, JSON document)."""
        cmd = [sys.executable, os.path.join(ROOT, "tools", tool),
               *flags, "--json", "--root", ROOT,
               os.path.join(ROOT, "src")]
        with tempfile.TemporaryDirectory() as tmp:
            if extra is not None:
                path = os.path.join(tmp, "control.cc")
                with open(path, "w") as f:
                    f.write(extra)
                cmd.append(path)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        return proc.returncode, json.loads(proc.stdout)

    def test_detlint_fails_on_a_rand_call(self):
        code, doc = self.analyze("detlint.py", flags=())
        self.assertEqual((code, doc["findings"]), (0, []))
        code, doc = self.analyze("detlint.py", RAND_CALL, flags=())
        self.assertEqual(code, 1, doc["findings"])
        self.assertEqual([f["rule"] for f in doc["findings"]], ["rand"])

    def test_jetrace_fails_on_an_inverted_lock_order(self):
        code, doc = self.analyze("jetrace.py")
        self.assertEqual((code, doc["findings"]), (0, []))
        code, doc = self.analyze("jetrace.py", INVERTED_LOCKS)
        self.assertEqual(code, 1, doc["findings"])
        self.assertEqual([f["rule"] for f in doc["findings"]],
                         ["lock-cycle"])
        cycle = re.search(r"cycle over \{([^}]*)\}",
                          doc["findings"][0]["message"]).group(1)
        self.assertEqual(cycle, "engine_cache_mu, mu_")

    def test_jethot_pin_fails_without_the_timer_targets_marking(self):
        # tools/ci.sh pass 1g's reachability pin: the event queue fires
        # timer targets no arm site calls, so only their JETSIM_HOT
        # marking keeps them (and Fifo::push_back) in the audit.
        pinned = {"OsScheduler::sliceEnd", "GpuEngine::finishMux",
                  "Fifo::push_back"}
        code, doc = self.analyze("jethot.py")
        self.assertEqual(code, 0, doc["findings"])
        self.assertLessEqual(pinned, set(doc["reachable_fns"]))
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(ROOT, "src"),
                            os.path.join(tmp, "src"))
            for rel, fns in (("src/cpu/scheduler.cc",
                              ["OsScheduler::sliceEnd"]),
                             ("src/gpu/engine.cc",
                              ["GpuEngine::startMux",
                               "GpuEngine::finishMux"])):
                path = os.path.join(tmp, rel)
                with open(path) as f:
                    text = f.read()
                for fn in fns:
                    marked = f"JETSIM_HOT void\n{fn}("
                    self.assertIn(marked, text)
                    text = text.replace(marked, f"void\n{fn}(")
                with open(path, "w") as f:
                    f.write(text)
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "tools", "jethot.py"),
                 "--backend", "lex", "--json", "--root", tmp,
                 os.path.join(tmp, "src")],
                capture_output=True, text=True, timeout=120)
        doc = json.loads(proc.stdout)
        self.assertEqual(pinned - set(doc["reachable_fns"]), pinned)

    def test_jethot_fails_on_a_hot_allocation(self):
        code, doc = self.analyze("jethot.py")
        self.assertEqual((code, doc["findings"]), (0, []))
        code, doc = self.analyze("jethot.py", HOT_NEW)
        self.assertEqual(code, 1, doc["findings"])
        self.assertEqual([(f["rule"], f["chain"])
                          for f in doc["findings"]],
                         [("hot-alloc", ["controlRoot"])])


CENSUS_LIB = """
namespace jetsim::control {
int reached(int x) { return x + 1; }
int unreached(int x) { return x - 1; }
}
"""

CENSUS_PROGRAM = """
namespace jetsim::control { int reached(int x); }
int main() { return jetsim::control::reached(-1); }
"""

CENSUS_FLAGS = ["-O0", "-ffunction-sections", "-fkeep-inline-functions"]


class CensusGateControls(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        d = cls.tmp.name
        for name, text in (("lib.cc", CENSUS_LIB),
                           ("program.cc", CENSUS_PROGRAM)):
            with open(os.path.join(d, name), "w") as f:
                f.write(text)
        cls.lib = os.path.join(d, "libcontrol.a")
        cls.program = os.path.join(d, "program")
        cxx = TOOLS["cxx"]
        for cmd in ([cxx, *CENSUS_FLAGS, "-c", os.path.join(d, "lib.cc"),
                     "-o", os.path.join(d, "lib.o")],
                    ["ar", "rcs", cls.lib, os.path.join(d, "lib.o")],
                    [cxx, *CENSUS_FLAGS, os.path.join(d, "program.cc"),
                     cls.lib, "-Wl,--gc-sections", "-o", cls.program]):
            subprocess.run(cmd, check=True, timeout=120)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def census(self, hooks):
        path = os.path.join(self.tmp.name, "hooks.txt")
        with open(path, "w") as f:
            f.write(hooks)
        return run([sys.executable, os.path.join(ROOT, "tools",
                                                 "census.py"),
                    "--hooks", path, "--libs", self.lib,
                    "--programs", self.program])

    def test_unreached_function_fails_until_a_hook_names_it(self):
        code, out = self.census("")
        self.assertEqual(code, 1, out)
        self.assertIn("unlisted: jetsim::control::unreached(int)", out)
        self.assertNotIn("unlisted: jetsim::control::reached(int)", out)
        code, out = self.census(
            "jetsim::control::unreached(int)  # control\n")
        self.assertEqual(code, 0, out)

    def test_hook_naming_a_called_function_is_stale(self):
        code, out = self.census(
            "jetsim::control::unreached(int)  # control\n"
            "jetsim::control::reached(int)  # control\n")
        self.assertEqual(code, 1, out)
        self.assertIn("stale hook: jetsim::control::reached(int)", out)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    for tool in ("jetlint", "capacity-planner", "simcheck", "jetmc",
                 "cxx"):
        ap.add_argument("--" + tool, required=True)
    args, rest = ap.parse_known_args()
    TOOLS.update(vars(args))
    unittest.main(argv=[sys.argv[0]] + rest)
