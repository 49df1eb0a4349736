#!/usr/bin/env python3
"""Malformed-input corpus for the command-line tools and examples.

Every fleet replay file, jetmc counterexample and engine plan under
tests/data/malformed/, and every malformed flag or argument value
below, must be rejected as a user error: exit code 1, a message naming
the file (or the flag or argument) and the offending field, and no
"panic" or "terminate" in the output (those mean a simulator bug or an
uncaught exception). An output file that cannot be written is a user
error too. As a control, the committed good replay file must still
replay cleanly.

    malformed_input_test.py --simcheck PATH --trtexec PATH \
        --jetprof PATH --netinfo PATH --jetmc PATH --jetlint PATH \
        --jetbound PATH --quickstart PATH --precision-explorer PATH \
        --capacity-planner PATH --edge-cloud-offload PATH

ctest runs it in every build, so tools/ci.sh runs it both plain
(pass 1) and under ASan/UBSan (pass 2).
"""

import argparse
import os
import subprocess
import sys
import unittest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "data")
MALFORMED = os.path.join(DATA, "malformed")

# file -> the field its rejection message must name.
REPLAYS = {
    "replay_batch_string.json": "spec.devices[0].batch",
    "replay_batch_bare_word.json": "spec.devices[0].batch",
    "replay_batch_overflow.json": "spec.devices[0].batch",
    "replay_batch_zero.json": "spec.devices[0].batch",
    "replay_batch_fraction.json": "spec.devices[0].batch",
    "replay_local_rate_negative.json": "spec.devices[0].local_rate",
    "replay_balancer_rate_overflow.json": "spec.balancer_rate",
    "replay_precision_unknown.json": "spec.devices[0].precision",
    "replay_model_unknown.json": "spec.devices[0].model",
    "replay_device_unknown.json": "spec.devices[0].device",
    "replay_seed_negative.json": "spec.seed",
    "replay_seed_overflow.json": "spec.seed",
    "replay_dispatch_latency_zero.json": "spec.dispatch_latency",
    "replay_fanout_latency_zero.json": "spec.fanout_latency",
    "replay_duration_negative.json": "spec.duration",
    "replay_devices_empty.json": "spec.devices",
    "replay_hierarchical_number.json": "spec.hierarchical",
    "replay_devices_object.json": "spec.devices",
    "replay_unknown_key.json": "spec.speedup",
    "replay_missing_key.json": "spec.seed",
    "replay_duplicate_key.json": "spec.seed",
    "replay_missing_options.json": "options",
    "replay_shards_overflow.json": "options.shards",
    "replay_lookahead_past_dispatch.json": "options.lookahead",
    "replay_truncated.json": "spec: expected",
    "replay_empty.json": "jetsim_fleet_replay",
    "replay_wrong_version.json": "jetsim_fleet_replay",
    "replay_key_value_format.txt": "jetsim_fleet_replay",
}

COUNTEREXAMPLES = {
    "ce_batch_zero.json": "deployment.procs[0].batch",
    "ce_batch_string.json": "deployment.procs[0].batch",
    "ce_precision_unknown.json": "deployment.procs[0].precision",
    "ce_max_ecs_zero.json": "deployment.max_ecs",
    "ce_pre_enqueue_negative.json": "deployment.pre_enqueue",
    "ce_procs_empty.json": "deployment.procs",
    "ce_max_events_negative.json": "deployment.max_events",
    "ce_script_string.json": "script[1]",
    "ce_script_overflow.json": "script[1]",
    "ce_ref_digest_overflow.json": "ref_digest",
    "ce_model_unknown.json": "model",
    "ce_missing_deployment.json": "deployment",
    "ce_unknown_key.json": "minimised",
    "ce_wrong_version.json": "jetmc_ce",
    "ce_truncated.json": "deployment: expected",
}

# engine plan file (jetlint --plan) -> the field its rejection message
# must name.
PLANS = {
    "plan_blocks_overflow.json": "kernels[0].blocks: '99999999999999'",
    "plan_bad_header.json": 'document: not a "jetsim_plan": 2 document',
    "plan_kernel_truncated.json": "kernels[1].precision: missing",
    "plan_v1_line_format.plan":
        'document: not a "jetsim_plan": 2 document',
}

# (tool, flags, the flag its rejection message must name)
FLAGS = [
    ("trtexec", ["--batch=abc"], "--batch"),
    ("trtexec", ["--batch=0"], "--batch"),
    ("trtexec", ["--batch=-1"], "--batch"),
    ("trtexec", ["--batch=99999999999"], "--batch"),
    ("trtexec", ["--batch="], "--batch"),
    ("trtexec", ["--duration=xyz"], "--duration"),
    ("trtexec", ["--duration=-1"], "--duration"),
    ("trtexec", ["--duration=1e999"], "--duration"),
    ("trtexec", ["--duration=1e300"], "--duration"),
    ("trtexec", ["--duration=nan"], "--duration"),
    ("trtexec", ["--warmUp=1.5"], "--warmUp"),
    ("trtexec", ["--preEnqueue=-2"], "--preEnqueue"),
    ("trtexec", ["--precision=int4"], "--precision"),
    ("trtexec", ["--model=vgg16"], "--model"),
    ("trtexec", ["--device=tx2"], "--device"),
    ("simcheck", ["--seeds=abc"], "--seeds"),
    ("simcheck", ["--seeds=-1"], "--seeds"),
    ("simcheck", ["--seeds=99999999999999999999"], "--seeds"),
    ("simcheck", ["--batch=abc"], "--batch"),
    ("simcheck", ["--procs=0"], "--procs"),
    ("simcheck", ["--duration=-0.5"], "--duration"),
    ("simcheck", ["--runs=2x"], "--runs"),
    ("simcheck", ["--fleet-scaling=fast"], "--fleet-scaling"),
    ("simcheck", ["--fleet-scaling=-2"], "--fleet-scaling"),
    ("simcheck", ["--fleet-overhead=-1"], "--fleet-overhead"),
    ("simcheck", ["--runs=1"], "--runs"),
    ("simcheck", ["--threads=-1"], "--threads"),
    ("simcheck", ["--phase=medium"], "--phase"),
    ("simcheck", ["--precision=int4"], "--precision"),
    ("simcheck", ["--model=vgg16"], "--model"),
    ("simcheck", ["--device=tx2"], "--device"),
    ("jetprof", ["--batch=0"], "--batch"),
    ("jetprof", ["--procs=0"], "--procs"),
    ("jetprof", ["--mode=sweep", "--batches=0"], "--batches"),
    ("jetprof", ["--mode=sweep", "--batches=1,-2"], "--batches"),
    ("jetprof", ["--mode=sweep", "--procs-list=0"], "--procs-list"),
    ("jetprof", ["--mode=sweep", "--threads=-1"], "--threads"),
    ("jetprof", ["--duration=-1"], "--duration"),
    ("jetprof", ["--warmup=-5"], "--warmup"),
    ("jetprof", ["--phase=medium"], "--phase"),
    ("jetprof", ["--precision=int4"], "--precision"),
    ("jetprof", ["--model=vgg16"], "--model"),
    ("jetprof", ["--device=tx2"], "--device"),
    ("netinfo", ["--batch=0"], "--batch"),
    ("netinfo", ["--precision=bf16"], "--precision"),
    ("netinfo", ["--model=vgg16"], "--model"),
    ("netinfo", ["--device=tx2"], "--device"),
    ("jetmc", ["--max-ecs=0"], "--max-ecs"),
    ("jetmc", ["--precision=int4"], "--precision"),
    ("jetmc", ["--model=vgg16"], "--model"),
    ("jetmc", ["--device=tx2"], "--device"),
    ("jetmc", ["--models="], "--models"),
    ("jetmc", ["--models=vgg16"], "--models"),
    ("jetmc", ["--models=resnet50,,yolov8n"], "--models"),
    ("jetmc", ["--procs=0"], "--procs"),
    ("jetmc", ["--procs=9"], "--procs"),
    ("jetmc", ["--max-runs=0"], "--max-runs"),
    ("jetmc", ["--max-runs=-1"], "--max-runs"),
    ("jetmc", ["--max-events=0"], "--max-events"),
    ("jetmc", ["--max-events=-1"], "--max-events"),
    ("jetmc", ["--depth=-1"], "--depth"),
    ("jetmc", ["--min-reduction=-1"], "--min-reduction"),
    ("jetbound", ["--warmup-ms=-5", "--compare-sim"], "--warmup-ms"),
    ("jetbound", ["--duration-ms=-1"], "--duration-ms"),
    ("jetbound", ["--batch=0"], "--batch"),
    ("jetbound", ["--procs=0"], "--procs"),
    ("jetbound", ["--pre-enqueue=-1"], "--pre-enqueue"),
    ("jetbound", ["--precision=int4"], "--precision"),
    ("jetbound", ["--model=vgg16"], "--model"),
    ("jetbound", ["--device=tx2"], "--device"),
    ("jetbound", ["--duration-ms=0"], "--duration-ms"),
    ("jetlint", ["--precision=int4"], "--precision"),
    ("jetlint", ["--zoo", "--precision=int4"], "--precision"),
    ("jetlint", ["--zoo", "--batch=0"], "--batch"),
    ("jetlint", ["--plan=" + os.path.join(MALFORMED, "no_plan.plan")],
     "no_plan.plan"),
    ("quickstart", ["orin-nano", "resnet50", "int8", "abc"], "batch"),
    ("precision_explorer", ["orin-nano", "resnet50", "abc"], "batch"),
    ("capacity_planner", ["--min-pruned=abc"], "--min-pruned"),
    ("capacity_planner", ["nano", "fcn_resnet50", "abc", "15"],
     "max_latency_ms"),
    ("capacity_planner", ["--prescreen", "--bogus"], "--bogus"),
    ("edge_cloud_offload", ["abc"], "uplink_mbps"),
]

TOOLS = {}


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


class MalformedInput(unittest.TestCase):
    def assert_user_error(self, cmd, *names):
        code, out = run(cmd)
        self.assertEqual(code, 1, f"{cmd}: exit {code}\n{out}")
        for bad in ("panic", "terminate"):
            self.assertNotIn(bad, out, f"{cmd}\n{out}")
        for name in names:
            self.assertIn(name, out, f"{cmd}\n{out}")

    def test_replay_files(self):
        for name, field in REPLAYS.items():
            with self.subTest(file=name):
                self.assert_user_error(
                    [TOOLS["simcheck"],
                     "--fleet-replay=" + os.path.join(MALFORMED, name)],
                    name, field)

    def test_counterexample_files(self):
        for name, field in COUNTEREXAMPLES.items():
            with self.subTest(file=name):
                self.assert_user_error(
                    [TOOLS["simcheck"],
                     "--mc-replay=" + os.path.join(MALFORMED, name)],
                    name, field)

    def test_plan_files(self):
        for name, field in PLANS.items():
            with self.subTest(file=name):
                self.assert_user_error(
                    [TOOLS["jetlint"],
                     "--plan=" + os.path.join(MALFORMED, name)],
                    name, field)

    def test_unreadable_files(self):
        missing = os.path.join(MALFORMED, "no_such_file.json")
        for flag in ("--fleet-replay=", "--mc-replay=", "--fleet-golden="):
            with self.subTest(flag=flag):
                self.assert_user_error([TOOLS["simcheck"], flag + missing],
                                       "no_such_file.json")

    def test_unwritable_output_files(self):
        missing_dir = os.path.join(MALFORMED, "no_such_dir")
        report = os.path.join(missing_dir, "x.json")
        golden = os.path.join(missing_dir, "g.json")
        for cmd, path in (
                ([TOOLS["jetmc"], "--device=orin-nano", "--model=resnet50",
                  "--procs=2", "--max-ecs=1", "--depth=8",
                  "--json=" + report], report),
                ([TOOLS["simcheck"], "--fleet-golden=" + golden,
                  "--update"], golden)):
            with self.subTest(tool=os.path.basename(cmd[0])):
                self.assert_user_error(cmd, "cannot write " + path)

    def test_flag_values(self):
        for tool, flags, flag in FLAGS:
            with self.subTest(tool=tool, flags=flags):
                self.assert_user_error([TOOLS[tool]] + flags, flag)

    def test_good_replay_file_replays(self):
        code, out = run([TOOLS["simcheck"], "--fleet-replay=" +
                         os.path.join(DATA, "fleet_replay_golden0.json")])
        self.assertEqual(code, 0, out)
        self.assertIn("bit-identical", out)

    def test_corpus_is_fully_listed(self):
        self.assertEqual(sorted(os.listdir(MALFORMED)),
                         sorted(list(REPLAYS) + list(COUNTEREXAMPLES) +
                                list(PLANS)))


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    for tool in ("simcheck", "trtexec", "jetprof", "netinfo", "jetmc",
                 "jetlint", "jetbound", "quickstart",
                 "precision-explorer", "capacity-planner",
                 "edge-cloud-offload"):
        ap.add_argument("--" + tool, required=True)
    args, rest = ap.parse_known_args()
    TOOLS.update(vars(args))
    unittest.main(argv=[sys.argv[0]] + rest)
