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
#                  the malformed-input corpus, tests/data/malformed,
#                  and the seeded decoder fuzz tests, fuzz_tests)
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
# tests/data/fleet_replay_golden0.json, the sharded scaling gate
# (a 1000-board fleet at 16 shards >= 1.5x on 4 threads against 1, with
# its 2-shard control below that; auto-skipped below 4 usable CPUs)
# and the sharded
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
# the proven-OOM cell must agree with the simulator; and the capacity
# planner's prescreen must prune at least one cell of the shipped
# acceptance grid. README's rule table must equal the rows of
# jetlint --list-rules --markdown, in order: the gate_controls test in
# pass 1's ctest suite checks it, next to its control.
#
# Pass 1f is the concurrency-discipline gate (jetrace): src/ must
# carry zero unannotated mutable globals/statics, no raw std::mutex
# outside core/mutex.hh, and an acyclic static lock-order graph that
# includes the two build-once stores' locks (model_store_mu,
# engine_cache_mu) and whose edge set is pinned exactly (empty: no
# lock in src/ is taken while another is held, since the stores
# build outside their locks); the auditor's own selftest must find
# an acquisition below a lock-free caller, none after a lock's block
# closes, and agree with the deadlock counterexample jetmc produced
# in pass 1d (static cycle <-> dynamic deadlock on the same inverted
# two-lock discipline). When a clang++ is installed the
# whole tree is additionally rebuilt with -DJETSIM_THREAD_SAFETY=ON
# (-Wthread-safety -Werror=thread-safety), making every unguarded
# access to a JETSIM_GUARDED_BY field a hard compile error; without
# clang the build step is skipped with a warning (the jetrace audit
# above still enforces the same contracts structurally).
#
# Pass 1h is the linker census (tools/census.py): every program (the
# tools, bench programs and examples, and perfbench's jetbench) is
# rebuilt at -O0 -ffunction-sections -fkeep-inline-functions and
# linked with -Wl,--gc-sections, without the tests. A jetsim function
# a library defines and no program keeps must be named, with its
# reason, in tools/census_hooks.txt; an unnamed one, or a hook line
# that names a function some program keeps, fails the pass.
#
# Usage: tools/ci.sh [--tsan] [--skip-plain] [--skip-sanitized]
#                    [--skip-tidy]
#
# --tsan swaps the sanitized pass to ThreadSanitizer and is the
# gate for the parallel sweep runner (core::Runner), the sharded
# event core (sim::ShardedEngine) and the build-once model and
# engine stores: the pass rings the runner_stress_tests binary
# (an oversubscribed pool plus the global-state regression tests),
# the sharded_stress_tests binary (per-shard clocks, shard claims and
# the single-producer outboxes drained while their posters push,
# under oversubscription, and runFleet's per-shard set-up and
# tear-down on the engine's workers), the Outbox unit tests (a drain
# racing a producer, and both roles handed between threads), the
# forEachShard tests (per-shard jobs on the parked workers), the
# 8-thread store lookup test and the simcheck
# replay through the parallel path, so data races in the concurrent
# executors fail CI rather than lurk.

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
    # perf-path asserts (slot recycling, JetSan key order) that only
    # fire at benchmark volume. Numbers themselves are not gated — CI
    # hosts are too noisy.
    "$repo/build-ci/plain/bench/micro_sim" \
        --benchmark_min_time=0.05 \
        --benchmark_filter='BM_EventQueue.*|BM_SchedulerContention.*'
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
    # Scaling gate: the clock loop must actually pay for itself on
    # the perfbench fleet_1000 shape — 1000 hierarchical boards at
    # 16 shards, best of three runs on 4 threads >= 1.5x best of three
    # on 1 thread — while the serial-bound control (the same fleet at
    # 2 shards: the root and one device shard) stays below 1.5x. The
    # ratio was set from 22 runs on the shared 4-vCPU host (1.74x to
    # 4.30x, all but three above 2.6x; the control 0.83x to 1.17x). The digest is always
    # compared; simcheck skips the speedup gate by itself when its
    # affinity mask allows < 4 CPUs (printing the reason, the usable
    # CPUs and the host's cores), where the comparison would measure
    # contention, not scaling. Both fleet gates print the sharded
    # run's epochs and events per epoch; ctest gate_controls_fleet shows
    # each of them failing and passing.
    "$repo/build-ci/plain/tools/simcheck" --fleet-scaling=1.5
    # Overhead gate: the clock protocol with parallelism removed —
    # a 1000-board hierarchical fleet at shards=8 on ONE thread must
    # keep >= 0.75x of the serial event rate (per-shard clocks with
    # no barrier, one slice per claim, and posts inserted straight
    # into the receiver's heap on one thread are what make this hold;
    # the mutex-inbox engine sat at 0.40x).
    # Runs on any host — this gate never self-skips.
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
    # memory high-water proves the deployment must fail, and the
    # simulator must agree.
    "$jetbound" --model=fcn_resnet50 --device=nano --procs=4 \
        --compare-sim | tail -1
    # Pruning-effectiveness gate: the shipped acceptance grid must
    # have at least one provably-prunable cell (it has 52).
    "$repo/build-ci/plain/examples/capacity_planner" \
        --prescreen --min-pruned=1 nano fcn_resnet50 100 15 \
        2>/dev/null | tail -3
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
stores = {"model_store_mu", "engine_cache_mu"}
assert stores <= set(doc["lock_graph"]["nodes"]), doc["lock_graph"]
# The exact order set, so an edge that appears (a new lock site, a
# build moved back under a store's lock, or a resolver change) is
# looked at, not waved through. The selftest below shows the graph
# still finds an acquisition below a caller that holds nothing.
edges = {(e["from"], e["to"]) for e in doc["lock_graph"]["edges"]}
want = set()
assert edges == want, sorted(edges)
print("jetrace: src clean; lock graph acyclic "
      f"({len(doc['lock_graph']['nodes'])} capabilities, "
      f"{len(edges)} edges, "
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
    # outside an explicit JETSIM_COLD_OK / boundary escape. The
    # reachability of the timer targets (OsScheduler::sliceEnd,
    # GpuEngine::finishMux) and of Fifo::push_back below them is
    # pinned.
    python3 "$repo/tools/jethot.py" --json > \
        "$repo/build-ci/plain/jethot.json"
    python3 - "$repo/build-ci/plain/jethot.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["findings"] == [], doc["findings"]
# Event-queue timers fire targets that no arm site calls: their
# JETSIM_HOT marking is what keeps the slice-end and kernel-finish
# paths (and the run-queue growth below them) under this audit.
pinned = {"OsScheduler::sliceEnd", "GpuEngine::finishMux",
          "Fifo::push_back"}
missing = pinned - set(doc["reachable_fns"])
assert not missing, sorted(missing)
print(f"jethot: src clean; {len(doc['roots'])} hot roots, "
      f"{doc['reachable']} reachable, "
      f"{len(doc['cold_ok'])} sanctioned cold escapes")
EOF

    banner "pass 1h: linker census"
    census="$repo/build-ci/census"
    census_flags=(-G Ninja -DCMAKE_BUILD_TYPE=None
                  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fkeep-inline-functions"
                  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
    cmake -B "$census/repo" -S "$repo" "${census_flags[@]}" >/dev/null
    cmake --build "$census/repo" -j "$jobs" \
        --target src/all tools/all bench/all examples/all
    cmake -B "$census/perfbench" -S "$repo/perfbench" \
        "${census_flags[@]}" >/dev/null
    cmake --build "$census/perfbench" -j "$jobs"
    mapfile -t census_libs < <(find "$census/repo/src" -name '*.a')
    mapfile -t census_programs < <(find "$census/repo/tools" \
        "$census/repo/bench" "$census/repo/examples" -maxdepth 1 \
        -type f -executable)
    python3 "$repo/tools/census.py" \
        --hooks "$repo/tools/census_hooks.txt" \
        --libs "${census_libs[@]}" \
        --programs "${census_programs[@]}" "$census/perfbench/jetbench"
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
    # The sharded clock loop and its outboxes under the same
    # treatment: with --tsan this is the pass that turns any data
    # race in ShardedEngine into a CI failure. The Outbox unit tests
    # race a drain against a producer and hand both roles between
    # threads; the forEachShard tests hand per-shard jobs to the
    # parked workers before, between and after runs; each run is a
    # fresh schedule.
    "$repo/build-ci/$san_flavor/tests/sharded_stress_tests"
    for _ in 1 2 3 4 5; do
        "$repo/build-ci/$san_flavor/tests/sharded_tests" --gtest_brief=1 \
            --gtest_filter='Outbox.*:ShardedEngine.ForEachShard*'
    done
    # The build-once model and engine stores: 8 threads (twice the
    # cores of a 4-core host) race first builds against lookups of
    # every key. Each run is a fresh process, so every run races the
    # builds again rather than reading a warm cache.
    for _ in 1 2 3 4 5; do
        "$repo/build-ci/$san_flavor/tests/trt_tests" --gtest_brief=1 \
            --gtest_filter='EngineCache.ConcurrentLookupsAgreeOnOnePointerPerKey'
    done
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
