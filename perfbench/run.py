#!/usr/bin/env python3
"""Run one jetsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the jetbench program from source (into .bench_build/), then
starts it once per repetition until --seconds have passed (and at
least --min-reps times). Each repetition is a fresh process, so
set-up -- process start to the start of the timed call -- is measured
every time. Every metric is the median over the repetitions. Times are
scaled to a quiet host by a speed probe each repetition also runs (see
REFERENCE_S).

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer split from the traced run (see README.md). Every result
digest is checked against expected_digests.json; for a seed the file
does not list, against a run of the same inputs on the library's
serial path. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "cmake"
BINARY = CMAKE_BUILD / "jetbench"
EXPECTED = HERE / "expected_digests.json"

WORKLOADS = ("cell_deep", "paper_grid", "fleet_1000")

# name -> unit, in report order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "sim_rate": "board-s/s",
    "peak_rss_mb": "MiB",
}

# Seconds the host speed probe (jetbench's reference job, see
# src/host.cc) takes on a quiet host. A shared host can run everything
# half as fast for minutes at a time, so a run's times are scaled by
# REFERENCE_S over the median probe time of its repetitions (one factor
# per run: the host's speed changes over minutes, while single probe
# times jitter). A slower host moves both and cancels out; a change to
# the library moves only the timed call, so it shows in full.
REFERENCE_S = 0.1

# Child processes stop well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


class UsageError(Exception):
    pass


def parse_args(argv):
    """Strict flag parser: every malformed input is a UsageError."""
    spec = {"--workload": str, "--seed": int, "--seconds": float,
            "--trace": int, "--min-reps": int}
    args = {"--trace": 0, "--min-reps": 3}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in spec:
            raise UsageError(f"unknown argument '{flag}'")
        if i + 1 >= len(argv):
            raise UsageError(f"{flag} needs a value")
        value = argv[i + 1]
        kind = spec[flag]
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                raise UsageError(
                    f"{flag} must be a non-negative integer, got '{value}'")
            args[flag] = int(value)
        elif kind is float:
            try:
                args[flag] = float(value)
            except ValueError:
                raise UsageError(f"{flag} must be a number, got '{value}'")
        else:
            args[flag] = value
        i += 2
    for required in ("--workload", "--seed", "--seconds"):
        if required not in args:
            raise UsageError(f"{required} is required")
    if args["--workload"] not in WORKLOADS:
        raise UsageError(f"unknown workload '{args['--workload']}' "
                         f"(expected one of {', '.join(WORKLOADS)})")
    if not args["--seconds"] > 0 or args["--seconds"] == float("inf"):
        raise UsageError("--seconds must be a positive number")
    if args["--trace"] not in (0, 1):
        raise UsageError("--trace must be 0 or 1")
    if args["--seed"] >= 2**64:
        raise UsageError("--seed must be below 2**64")
    if args["--min-reps"] < 1:
        raise UsageError("--min-reps must be a positive integer")
    return {k.lstrip("-").replace("-", "_"): v for k, v in args.items()}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring jetbench up to date."""
    if not (ROOT / "src" / "core" / "runner.hh").is_file():
        raise UsageError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (CMAKE_BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(CMAKE_BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(workload, seed, trace=False, serial=False):
    """One repetition. Returns its parsed record, or None when the
    process failed or printed no result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if serial:
        cmd.append("--serial")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: repetition timed out")
        return None
    if out.returncode != 0:
        log(f"{workload} seed {seed}: exit {out.returncode}: "
            f"{out.stderr.strip()[-500:]}")
        return None
    try:
        rec = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload} seed {seed}: no result line")
        return None
    rec["setup_s"] = rec["timed_start"] - spawned
    return rec


def load_expected(workload, seed):
    """Expected digest of every operation of (workload, seed), or None
    when the table does not list the seed."""
    with open(EXPECTED) as f:
        table = json.load(f)
    entry = table.get("digests", {}).get(workload, {}).get(str(seed))
    if not (entry is None or (isinstance(entry, list)
                              and all(isinstance(d, str) for d in entry))):
        raise ValueError(f"bad entry for {workload} seed {seed}")
    return entry


def count_failures(rec, expected):
    """Failed operations of one repetition against @expected."""
    ops = rec["ops"]
    if expected is None or len(expected) != len(ops):
        return len(ops)
    return sum(1 for a, b in zip(ops, expected) if a != b)


def measure(workload, seed, trace, seconds, min_reps):
    """Repeat the workload for @seconds. Returns (records, unfinished)."""
    reps, unfinished = [], 0
    start = time.monotonic()
    last_rep_s = 0.0
    # Start another repetition while it is expected to end (half of
    # the previous one) inside the budget, so a run takes @seconds.
    while (time.monotonic() - start + last_rep_s / 2 < seconds
           or len(reps) + unfinished < min_reps):
        rep_start = time.monotonic()
        rec = run_child(workload, seed, trace=bool(trace))
        last_rep_s = time.monotonic() - rep_start
        if rec is None:
            unfinished += 1
        else:
            reps.append(rec)
        if unfinished > 3 and not reps:
            break
    return reps, unfinished


def aggregate(reps, trace, probe_s):
    """Median of every metric over the repetitions, end-to-end times
    scaled from a host whose probe took @probe_s to the quiet host."""
    if trace:
        return {name: {"value": statistics.median(
                           r["trace"]["metrics"][name]["value"] for r in reps),
                       "unit": m["unit"]}
                for name, m in reps[0]["trace"]["metrics"].items()}
    scale = REFERENCE_S / probe_s
    per_rep = {
        "wall_s": [r["wall_s"] * scale for r in reps],
        "setup_s": [r["setup_s"] * scale for r in reps],
        "cpu_s": [r["cpu_s"] * scale for r in reps],
        "sim_rate": [r["board_s"] / (r["wall_s"] * scale) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {name: {"value": statistics.median(per_rep[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv):
    try:
        args = parse_args(argv)
        build()
        workload, seed, trace = args["workload"], args["seed"], args["trace"]
        expected = load_expected(workload, seed)
    except UsageError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as e:
        print(f"perfbench: error: build failed: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1

    start = time.monotonic()
    reps, unfinished = measure(workload, seed, trace, args["seconds"],
                               args["min_reps"])
    measured_s = time.monotonic() - start
    if not reps:
        print(f"perfbench: error: no repetition of {workload} finished",
              file=sys.stderr)
        return 1

    source = EXPECTED.name
    if expected is None:
        # Seed not in the table: the library's serial path is the
        # reference (it promises bit-identical results).
        source = "serial reference run"
        ref = run_child(workload, seed, serial=True)
        expected = ref["ops"] if ref is not None else None

    # Operations: every cell or fleet run of every repetition (an
    # unfinished one fails them all), plus the traced run's fidelity
    # checks.
    n_ops = len(reps[0]["ops"])
    attempted = n_ops * (len(reps) + unfinished)
    failed = n_ops * unfinished
    notes = [] if expected is not None else ["reference run failed"]
    for rec in reps:
        bad = count_failures(rec, expected)
        if bad:
            notes.append(f"{bad} operation digest(s) differ from {source}")
        failed += bad
        if trace:
            attempted += rec["trace"]["checks"]
            failed += rec["trace"]["mismatches"]
            notes.extend(rec["trace"]["notes"])

    probe_s = statistics.median(r["ref_s"] for r in reps)
    metrics = aggregate(reps, trace, probe_s)
    failed_frac = failed / attempted
    host = dict(reps[0]["host"], git_commit=git_commit())
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": args["seconds"], "measured_s": measured_s,
        "repetitions": len(reps), "unfinished": unfinished,
        "host": host, "probe_s": probe_s, "digest_source": source,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed_frac, "notes": notes[:50],
        "metrics": metrics,
        "per_repetition": [{k: v for k, v in r.items()
                            if k not in ("ops", "trace", "host")}
                           for r in reps],
    }
    write_records(record, reps[-1] if trace else None)

    print(f"host: {json.dumps(host)}")
    print(f"{workload} seed {seed}: {len(reps)} repetitions in "
          f"{measured_s:.1f} s, digests checked against {source}")
    print(f"host speed probe: median {probe_s:.4g} s; end-to-end times "
          f"are scaled to a {REFERENCE_S} s probe")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {failed_frac:.6g} fraction "
          f"({failed} of {attempted} operations)")
    for note in notes[:10]:
        print(f"  ! {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_records(record, traced_rep):
    """Keep the run's record (and the spans of its last traced
    repetition) in .bench_build/records/, stamped with the host facts."""
    out = BUILD / "records"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-s{record['seed']}-t{record['trace']}"
    with open(out / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    if traced_rep:
        spans = {"host": record["host"], "workload": record["workload"],
                 "seed": record["seed"],
                 "spans": traced_rep["trace"]["spans"]}
        with open(out / f"{stem}-spans.json", "w") as f:
            json.dump(spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
