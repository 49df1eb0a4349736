#!/usr/bin/env python3
"""Controls for two gates: each must be shown to pass and to fail.

jetlint's plan mode on the committed good plan
(tests/data/plan_good.json, trt::Engine::serialize() of resnet18 at
fp16 for orin-nano) must exit 0 under --werror. The same plan with its
fallback_ops edited to a wrong value must exit 1 under --werror (rule
P006 is a warning) and 0 without it. The capacity planner's prescreen
gate (tools/ci.sh pass 1e) must exit 1 when it asks for more pruned
cells than the grid has.

    gate_controls_test.py --jetlint PATH --capacity-planner PATH
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

GOOD_PLAN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "data", "plan_good.json")

TOOLS = {}


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


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


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    for tool in ("jetlint", "capacity-planner"):
        ap.add_argument("--" + tool, required=True)
    args, rest = ap.parse_known_args()
    TOOLS.update(vars(args))
    unittest.main(argv=[sys.argv[0]] + rest)
