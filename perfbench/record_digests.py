#!/usr/bin/env python3
"""Regenerate expected_digests.json: the benchmark's output oracle.

    python3 perfbench/record_digests.py [--seeds 0-99]

Runs every workload once per seed on the library's serial path
(Runner threads=1, fleet shards=1 threads=1) and records one result
digest per operation, so a mismatch names the failing cells. Only
rerun this when simulated behaviour is meant to change.
"""

import json
import sys

import run

DEFAULT_SEED = 1
HELD_OUT_SEED = 7901


def parse_range(text):
    lo, _, hi = text.partition("-")
    if not (lo.isascii() and lo.isdigit() and hi.isascii() and hi.isdigit()):
        raise run.UsageError(f"--seeds must look like 0-99, got '{text}'")
    if int(lo) > int(hi):
        raise run.UsageError(f"empty seed range '{text}'")
    return range(int(lo), int(hi) + 1)


def main(argv):
    try:
        if argv and (len(argv) != 2 or argv[0] != "--seeds"):
            raise run.UsageError("usage: record_digests.py [--seeds LO-HI]")
        seeds = parse_range(argv[1]) if argv else range(0, 100)
        run.build()
    except run.UsageError as e:
        print(f"record_digests: error: {e}", file=sys.stderr)
        return 1

    table = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
             "digests": {}}
    for workload in run.WORKLOADS:
        entries = {}
        for seed in sorted(set(seeds) | {DEFAULT_SEED, HELD_OUT_SEED}):
            rec = run.run_child(workload, seed, serial=True)
            if rec is None:
                print(f"record_digests: {workload} seed {seed} failed",
                      file=sys.stderr)
                return 1
            entries[str(seed)] = rec["ops"]
        table["digests"][workload] = entries
        print(f"{workload}: {len(entries)} seeds", file=sys.stderr)
    with open(run.EXPECTED, "w") as f:
        f.write(dump(table))
    return 0


def dump(table):
    """The table as JSON with one line per (workload, seed)."""
    lines = ["{",
             f' "default_seed": {table["default_seed"]},',
             f' "held_out_seed": {table["held_out_seed"]},',
             ' "digests": {']
    workloads = list(table["digests"].items())
    for i, (workload, entries) in enumerate(workloads):
        lines.append(f'  "{workload}": {{')
        seeds = list(entries.items())
        for j, (seed, ops) in enumerate(seeds):
            comma = "," if j + 1 < len(seeds) else ""
            lines.append(f'   "{seed}": {json.dumps(ops)}{comma}')
        lines.append("  }" + ("," if i + 1 < len(workloads) else ""))
    lines += [" }", "}", ""]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
