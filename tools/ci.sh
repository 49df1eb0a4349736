#!/usr/bin/env bash
# jetsim CI entry point: one script, three passes.
#
#   1. plain     - default build + full ctest suite, then the jetlint
#                  static pass (every zoo model at all precisions on
#                  every board, plus the shipped example configs; any
#                  error-severity finding fails CI) and the detlint
#                  determinism lint over src/
#   2. sanitized - ASan+UBSan (-Werror) build + full suite + the
#                  simcheck determinism replay (both suites include
#                  the malformed-input corpus, tests/data/malformed)
#   3. tidy      - clang-tidy over src/, tools/ and tests/ (skipped
#                  with a warning when clang-tidy is not installed)
#
# Pass 1 also runs a perf smoke (1c): the event-core microbenchmarks
# at short min-time — not for numbers (CI hosts are noisy) but so a
# perf-path assert/regression that only triggers at benchmark volume
# fails CI — plus the golden-digest tests (parallel runner equal to
# serial, and the inference loop equal to its committed literal
# digests), the sharded fleet goldens
# (GOLDEN_fleet.json at shards 1, 4 and 16, including a 256-board
# hierarchical config), a replay of the committed replay file
# tests/data/fleet_replay_golden0.json, the sharded scaling smoke
# (>= 1.5x at 4 shards; auto-skipped below 4 cores) and the sharded
# overhead gate (1000-board hierarchical fleet at shards=8/threads=1
# must keep >= 0.75x the serial event rate; never skipped).
#
# Pass 1d is the bounded model check (jetmc): the seeded-deadlock
# self-test must find its counterexample and replay it, then small
# 2- and 3-process deployments are proved deadlock-free and
# digest-schedule-independent over every interleaving within the
# depth bound, with the DPOR reduction required to earn its keep
# (>= 10x fewer runs than the naive DFS on the 3-process config).
#
# Pass 1e is the static-bound soundness gate (jetbound): the zoo is
# simulated with --compare-sim and every measurement must land
# inside its statically derived interval (exit 1 on any violation);
# the proven-OOM cell must agree with the simulator; the capacity
# planner's prescreen must prune at least one cell of the shipped
# acceptance grid; and README's rule table must mention every rule
# ID that jetlint --list-rules emits.
#
# Pass 1f is the concurrency-discipline gate (jetrace): src/ must
# carry zero unannotated mutable globals/statics, no raw std::mutex
# outside core/mutex.hh, and an acyclic static lock-order graph; the
# auditor's own selftest must agree with the deadlock counterexample
# jetmc produced in pass 1d (static cycle <-> dynamic deadlock on the
# same inverted two-lock discipline). When a clang++ is installed the
# whole tree is additionally rebuilt with -DJETSIM_THREAD_SAFETY=ON
# (-Wthread-safety -Werror=thread-safety), making every unguarded
# access to a JETSIM_GUARDED_BY field a hard compile error; without
# clang the build step is skipped with a warning (the jetrace audit
# above still enforces the same contracts structurally).
#
# Usage: tools/ci.sh [--tsan] [--skip-plain] [--skip-sanitized]
#                    [--skip-tidy]
#
# --tsan swaps the sanitized pass to ThreadSanitizer and is the
# gate for the parallel sweep runner (core::Runner) and the sharded
# event core (sim::ShardedEngine): the pass rings the
# runner_stress_tests binary (oversubscribed work-stealing pool
# plus the global-state regression tests), the sharded_stress_tests
# binary (sense-reversing barriers + the lock-free MPSC inbox rings
# under oversubscription) and the simcheck replay through the
# parallel path, so data races in the concurrent executors fail CI
# rather than lurk.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
san_flavor=address
run_plain=1
run_san=1
run_tidy=1

for arg in "$@"; do
    case "$arg" in
      --tsan) san_flavor=thread ;;
      --skip-plain) run_plain=0 ;;
      --skip-sanitized) run_san=0 ;;
      --skip-tidy) run_tidy=0 ;;
      *) echo "ci.sh: unknown flag '$arg'" >&2; exit 2 ;;
    esac
done

banner() { printf '\n=== %s ===\n' "$*"; }

build_and_test() {
    local dir="$1"; shift
    cmake -B "$dir" -S "$repo" "$@" >/dev/null
    cmake --build "$dir" -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

if [ "$run_plain" = 1 ]; then
    banner "pass 1: plain build + tests"
    build_and_test "$repo/build-ci/plain"
    banner "pass 1b: jetlint static analysis"
    jetlint="$repo/build-ci/plain/tools/jetlint"
    "$jetlint" --zoo --device=all --precision=all | tail -1
    "$jetlint" --examples | tail -1
    # Source-level determinism lint: wall-clock / rand() / getenv /
    # unordered iteration must not enter simulation code.
    python3 "$repo/tools/detlint.py" | tail -1
    banner "pass 1c: perf smoke + golden digest check"
    # Short-min-time run of the event-core microbenchmarks: catches
    # perf-path asserts (pool recycling, SBO fallback, JetSan key
    # order) that only fire at benchmark volume. Numbers themselves
    # are not gated — CI hosts are too noisy.
    "$repo/build-ci/plain/bench/micro_sim" \
        --benchmark_min_time=0.05 \
        --benchmark_filter='BM_EventQueue.*|BM_SchedulerContention.*'
    # Steady-state schedule path must stay allocation-free: any
    # InlineFn capture outgrowing the inline buffer fails here.
    "$repo/build-ci/plain/bench/micro_sim" --assert-sbo
    # Golden digests: RunnerGolden proves runner threads=2 and 8
    # bit-identical to threads=1 on both boards (a self-comparison in
    # one process); ProcessGolden pins the inference loop's digests
    # to literal values recorded in tests/core/process_golden_test.cc.
    "$repo/build-ci/plain/tests/runner_tests" \
        --gtest_filter='BothBoards/RunnerGolden.*:ProcessGolden.*' \
        --gtest_brief=1
    # Sharded golden digests: the fleet suite (including the
    # 256-board hierarchical config) re-run at shards 1, 4 and 16
    # must hash to the committed serial digests — the sharded
    # engine's bit-identity gate (regenerate with --update only when
    # the cost model legitimately moves).
    "$repo/build-ci/plain/tools/simcheck" \
        --fleet-golden="$repo/GOLDEN_fleet.json"
    # Replay-format gate: the committed replay of the first golden
    # fleet (shards=4, threads=2) must decode and re-run serial ==
    # sharded == repeat.
    "$repo/build-ci/plain/tools/simcheck" \
        --fleet-replay="$repo/tests/data/fleet_replay_golden0.json"
    # Scaling smoke: the parallel epoch path must actually pay for
    # itself — >= 1.5x serial event rate at shards=4/threads=4. The
    # digest is always compared; simcheck skips the speedup gate by
    # itself on hosts with < 4 cores (printing the reason and the
    # detected core count), where the comparison would measure
    # contention, not scaling.
    "$repo/build-ci/plain/tools/simcheck" --fleet-scaling=1.5
    # Overhead gate: the epoch protocol with parallelism removed —
    # a 1000-board hierarchical fleet at shards=8 on ONE thread must
    # keep >= 0.75x of the serial event rate (tournament reduction,
    # adaptive epoch batching and the lock-free inbox are what make
    # this hold; the mutex-inbox engine sat at 0.40x). Runs on any
    # host — this gate never self-skips.
    "$repo/build-ci/plain/tools/simcheck" --fleet-overhead=0.75
    banner "pass 1d: bounded model check (jetmc)"
    jetmc="$repo/build-ci/plain/tools/jetmc"
    ce_dir="$repo/build-ci/plain/jetmc-ce"
    mkdir -p "$ce_dir"
    # Checker checks itself: the seeded deadlock must be found,
    # minimised and replayed before any deployment verdict counts.
    "$jetmc" --selftest --ce-dir="$ce_dir"
    "$repo/build-ci/plain/tools/simcheck" \
        --mc-replay="$ce_dir/jetmc_ce_selftest.json"
    # 2-process deployment on orin-nano: exhaustive within depth.
    "$jetmc" --device=orin-nano --model=resnet50 --procs=2 \
        --max-ecs=2 --depth=24 --ce-dir="$ce_dir" | tail -1
    # 3-process deployment on nano: the DPOR reduction must beat the
    # naive DFS by >= 10x or the pass fails.
    "$jetmc" --device=nano --model=yolov8n --procs=3 \
        --max-ecs=2 --depth=20 --min-reduction=10 \
        --ce-dir="$ce_dir" | tail -2
    banner "pass 1e: static-bound soundness (jetbound)"
    jetbound="$repo/build-ci/plain/tools/jetbound"
    # Hard soundness gate: simulate the zoo and require every
    # measurement inside its static interval (exit 1 otherwise).
    "$jetbound" --zoo --device=orin-nano --procs=3 \
        --compare-sim | tail -1
    # The cell the paper's Nano reboot anecdote maps to: the static
    # memory lower bound proves the deployment must fail, and the
    # simulator must agree.
    "$jetbound" --model=fcn_resnet50 --device=nano --procs=4 \
        --compare-sim | tail -1
    # Pruning-effectiveness gate: the shipped acceptance grid must
    # have at least one provably-prunable cell (it has 52).
    "$repo/build-ci/plain/examples/capacity_planner" \
        --prescreen --min-pruned=1 nano fcn_resnet50 100 15 \
        2>/dev/null | tail -3
    # README's rule table is generated from --list-rules; drifting
    # by hand-editing fails here.
    "$jetlint" --list-rules | awk 'NR>1 {print $1}' |
        while read -r rule; do
            grep -q "| $rule |" "$repo/README.md" || {
                echo "ci.sh: rule $rule missing from README.md" \
                     "(regenerate: jetlint --list-rules --markdown)" >&2
                exit 1
            }
        done
    banner "pass 1f: concurrency discipline (jetrace)"
    # Zero findings over src/ (unannotated shared state, raw locks,
    # unknown capabilities) AND an acyclic lock-order graph; the
    # acyclic flag is asserted explicitly so a future rule change
    # that stops treating cycles as findings cannot soften the gate.
    python3 "$repo/tools/jetrace.py" --json > \
        "$repo/build-ci/plain/jetrace.json"
    python3 - "$repo/build-ci/plain/jetrace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["findings"] == [], doc["findings"]
assert doc["lock_graph"]["acyclic"], doc["lock_graph"]
print("jetrace: src clean; lock graph acyclic "
      f"({len(doc['lock_graph']['nodes'])} capabilities, "
      f"{doc['inventory']['guarded_fields']} guarded fields, "
      f"{doc['inventory']['confined']} confined)")
EOF
    # Static/dynamic agreement: jetrace's cycle verdict on the
    # two-lock fixtures must match the deadlock counterexample jetmc
    # minimised in pass 1d.
    python3 "$repo/tools/jetrace.py" --selftest \
        --jetmc-ce="$ce_dir/jetmc_ce_selftest.json"
    # Compiler-enforced contracts where a clang++ exists: the probe
    # pair in cmake/thread_safety_probe.cc first proves the analysis
    # is live, then the whole tree must build warning-free under
    # -Wthread-safety -Werror=thread-safety.
    if command -v clang++ >/dev/null 2>&1; then
        cmake -B "$repo/build-ci/tsafety" -S "$repo" \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DJETSIM_THREAD_SAFETY=ON >/dev/null
        cmake --build "$repo/build-ci/tsafety" -j "$jobs"
    else
        echo "ci.sh: warning: clang++ not installed;" \
             "skipping the -Wthread-safety build (jetrace audit" \
             "above still gates the same contracts)" >&2
    fi

    banner "pass 1g: hot-path discipline (jethot)"
    # The analyzer must first find its own seeded violations
    # (hot-path alloc, lock, throw — each minimised to a 2-hop
    # chain) before its verdict on src/ means anything.
    python3 "$repo/tools/jethot.py" --selftest
    # Zero findings over src/: nothing reachable from a hot root
    # allocates, locks, throws, blocks, or reads the environment
    # outside an explicit JETSIM_COLD_OK / boundary escape — and
    # every runtime heap-fallback counter site (what micro_sim
    # --assert-sbo counts) is covered by a ledgered escape, so the
    # static escape set and the runtime SBO accounting name the
    # same sites.
    python3 "$repo/tools/jethot.py" --json > \
        "$repo/build-ci/plain/jethot.json"
    python3 - "$repo/build-ci/plain/jethot.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["findings"] == [], doc["findings"]
sites = doc["sbo_sites"]
assert len(sites) >= 3 and all(s["covered"] for s in sites), sites
print(f"jethot: src clean; {len(doc['roots'])} hot roots, "
      f"{doc['reachable']} reachable, "
      f"{len(doc['cold_ok'])} sanctioned cold escapes, "
      f"{len(sites)}/{len(sites)} heap-fallback sites covered")
EOF
fi

if [ "$run_san" = 1 ]; then
    banner "pass 2: sanitized build ($san_flavor) + tests"
    build_and_test "$repo/build-ci/$san_flavor" \
        -DJETSIM_SANITIZE="$san_flavor"
    banner "pass 2b: determinism replay (simcheck, parallel path)"
    "$repo/build-ci/$san_flavor/tools/simcheck" \
        --duration 0.3 --warmup 100 --seeds 1,2,3 --threads 4
    banner "pass 2c: runner + sharded concurrency stress ($san_flavor)"
    # ctest already ran these binaries once; run them again explicitly
    # with the pool oversubscribed well past the host core count so
    # the sanitizer sees maximum interleaving.
    JETSIM_THREADS=16 \
        "$repo/build-ci/$san_flavor/tests/runner_stress_tests"
    # The sharded sense-reversing barriers and lock-free inbox rings
    # under the same treatment: with --tsan this is the pass that
    # turns any data race in ShardedEngine into a CI failure.
    "$repo/build-ci/$san_flavor/tests/sharded_stress_tests"
fi

if [ "$run_tidy" = 1 ]; then
    banner "pass 3: clang-tidy"
    if command -v clang-tidy >/dev/null 2>&1; then
        # Reuse the plain tree's compile_commands.json.
        cdb="$repo/build-ci/plain"
        [ -f "$cdb/compile_commands.json" ] ||
            cmake -B "$cdb" -S "$repo" >/dev/null
        mapfile -t sources < <(find "$repo/src" "$repo/tools" \
                                    "$repo/tests" \
                                    -name '*.cc' -o -name '*.cpp')
        clang-tidy -p "$cdb" --quiet "${sources[@]}"
    else
        echo "ci.sh: clang-tidy not installed; skipping pass 3" >&2
    fi
fi

banner "ci.sh: all requested passes completed"
