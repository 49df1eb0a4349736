"""Tests of the benchmark itself: input rejection and the output check.

    python3 -m unittest discover -s perfbench/tests -v

The first run builds jetbench (see run.py).
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

RUN_PY = HERE.parent / "run.py"


def run_py(*args):
    return subprocess.run([sys.executable, str(RUN_PY), *args],
                          capture_output=True, text=True, timeout=300)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_against(table, *args):
    """run.main in this process with @table as the expected digests;
    returns its result line."""
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        path = Path(tmp) / "expected.json"
        path.write_text(json.dumps(table))
        out = io.StringIO()
        with mock.patch.object(run, "EXPECTED", path), \
                contextlib.redirect_stdout(out):
            code = run.main(list(args))
    if code != 0:
        raise AssertionError(f"run.main exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assert_rejected(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("error", proc.stderr.lower() + proc.stdout.lower())
        self.assertNotIn('"correct"', proc.stdout)
        self.assertNotIn("Traceback", proc.stderr)

    def test_run_py_rejects_malformed_input(self):
        good = ["--workload", "fleet_1000", "--seed", "1", "--seconds", "1"]
        cases = [
            ["--workload", "nope", "--seed", "1", "--seconds", "1"],
            ["--workload", "fleet_1000", "--seed", "abc", "--seconds", "1"],
            ["--workload", "fleet_1000", "--seed", "-1", "--seconds", "1"],
            ["--workload", "fleet_1000", "--seed", "1", "--seconds", "0"],
            ["--workload", "fleet_1000", "--seed", "1", "--seconds", "x"],
            ["--workload", "fleet_1000", "--seed", "1", "--seconds", "nan"],
            good + ["--trace", "2"],
            good + ["--min-reps", "0"],
            good + ["--bogus", "1"],
            good + ["--trace"],
            ["--seed", "1", "--seconds", "1"],
        ]
        for argv in cases:
            with self.subTest(argv=argv):
                self.assert_rejected(run_py(*argv))

    def test_jetbench_rejects_malformed_input(self):
        cases = [
            ["--workload", "nope", "--seed", "1"],
            ["--workload", "cell_deep", "--seed", "abc"],
            ["--workload", "cell_deep", "--seed", "1x"],
            ["--workload", "cell_deep", "--seed", "-1"],
            ["--workload", "cell_deep", "--seed", "99999999999999999999"],
            ["--workload", "cell_deep", "--seed", "1", "--trace", "yes"],
            ["--workload", "cell_deep", "--seed"],
            ["--workload", "cell_deep"],
            ["--workload", "cell_deep", "--seed", "1", "--extra"],
        ]
        for argv in cases:
            with self.subTest(argv=argv):
                proc = subprocess.run([str(run.BINARY), *argv],
                                      capture_output=True, text=True,
                                      timeout=60)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("usage", proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_wrong_expected_digest_is_reported(self):
        res = run_against(
            {"digests": {"fleet_1000": {"1": ["0123456789abcdef"]}}},
            "--workload", "fleet_1000", "--seed", "1", "--seconds", "0.1",
            "--min-reps", "2")
        self.assertFalse(res["correct"])
        self.assertEqual(res["attempted"], 2)
        self.assertEqual(res["failed"], 2)

    def test_wrong_per_cell_digest_counts_one_cell(self):
        table = json.loads(run.EXPECTED.read_text())
        seed = str(table["default_seed"])
        ops = list(table["digests"]["paper_grid"][seed])
        ops[5] = "0123456789abcdef"
        res = run_against({"digests": {"paper_grid": {seed: ops}}},
                          "--workload", "paper_grid", "--seed", seed,
                          "--seconds", "0.1", "--min-reps", "1")
        self.assertFalse(res["correct"])
        self.assertEqual(res["attempted"], len(ops))
        self.assertEqual(res["failed"], 1)

    def test_recorded_digests_hold_on_default_and_held_out_seeds(self):
        table = json.loads(run.EXPECTED.read_text())
        for seed in (table["default_seed"], table["held_out_seed"]):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, seed=seed):
                    self.assertIsInstance(
                        table["digests"][workload][str(seed)], list)
                    proc = run_py("--workload", workload, "--seed",
                                  str(seed), "--seconds", "0.1",
                                  "--min-reps", "1")
                    res = result_line(proc)
                    self.assertTrue(res["correct"], proc.stdout)
                    self.assertEqual(res["failed"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = run_py("--workload", "fleet_1000", "--seed", "1",
                      "--seconds", "0.1", "--min-reps", "1",
                      "--trace", "1")
        res = result_line(proc)
        self.assertTrue(res["correct"], proc.stdout)
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json")
                           .read_text())
        names = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(set(res["metrics"]), names)
        self.assertEqual(res["metrics"]["sim.sbo_misses"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
