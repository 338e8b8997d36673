#!/usr/bin/env bash
# Tier-1 verification, a ThreadSanitizer pass over the threaded
# layers, an observability-off build proving the TF_* macros are
# true no-ops under -Werror, and a line-coverage gate over the
# simulation hot layers.
#
# Test selection is label-based (see tests/CMakeLists.txt):
#   unit / integration / fuzz / golden  suite tiers
#   threaded                            TSan surface
#   plan                                capacity-planner subsystem
#   chaos                               seeded chaos-invariant sweep
#   perf-smoke                          ~1 s sim-core bench canary
#   serve / fault / fleet               UBSan surface (plus the
#                                       tf_tileseek_test and
#                                       tf_dpipe_test binaries)
#
# Usage: scripts/check.sh
#        [--tier1-only | --tsan-only | --obs-off-only |
#         --coverage-only | --ubsan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
mode="${1:-all}"

run_tier1() {
    echo "== tier-1: build + full test suite =="
    cmake -B build -S .
    cmake --build build -j "$jobs"
    # Every label tier, fastest first so cheap breakage fails early.
    ctest --test-dir build --output-on-failure -j "$jobs" -L unit
    ctest --test-dir build --output-on-failure -j "$jobs" -L fuzz
    ctest --test-dir build --output-on-failure -j "$jobs" -L golden
    ctest --test-dir build --output-on-failure -j "$jobs" \
        -L integration
    # The seeded chaos sweep: 200+ randomized fault schedules with
    # conservation / frozen-digest / thread-identity / termination
    # / exact-recovery invariants (tests/chaos).
    ctest --test-dir build --output-on-failure -j "$jobs" -L chaos
    # One short measurement of every simulation-core scenario; a
    # hang or crash in the hot loops fails here in ~1 s.
    ctest --test-dir build --output-on-failure -j "$jobs" \
        -L perf-smoke
}

run_coverage() {
    echo "== coverage: line coverage of src/serve + src/fleet =="
    # scripts/coverage_gate.py reads `gcov -j` JSON; skip loudly
    # only when gcov or python3 is missing.
    if ! command -v gcov > /dev/null 2>&1 \
        || ! command -v python3 > /dev/null 2>&1; then
        echo "!! coverage: SKIPPED -- gcov or python3 is not" \
            "installed; the 80% line gate on src/serve +" \
            "src/fleet did NOT run !!" >&2
        return 0
    fi
    cmake -B build-cov -S . \
        -DCMAKE_CXX_FLAGS="--coverage -O0" \
        -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build build-cov -j "$jobs"
    ctest --test-dir build-cov --output-on-failure -j "$jobs" \
        -L 'unit|integration|fuzz'
    # The simulation hot layers: the serve round loop and the one
    # fleet loop.  The replay-digest, session and unit tests must
    # keep them exercised.
    python3 scripts/coverage_gate.py build-cov \
        --filter 'src/serve/' --filter 'src/fleet/' \
        --fail-under-line 80
}

run_tsan() {
    echo "== TSan: threaded tests =="
    # Targeted suppressions for races reported entirely inside the
    # uninstrumented system libstdc++ (see scripts/tsan.supp).
    export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
    cmake -B build-tsan -S . -DTRANSFUSION_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" \
        --target tf_common_test tf_einsum_test tf_costmodel_test \
        tf_dpipe_test tf_tileseek_test tf_schedule_test tf_serve_test \
        tf_obs_test tf_multichip_test tf_fault_test tf_fleet_test \
        tf_chaos_test tf_plan_test \
        ext_multichip_scaling ext_fault_degradation \
        ext_fleet_scaling ext_capacity_planner \
        fig08b_speedup_models_64k
    # The threaded surfaces: parallelMap's unit tests, concurrent
    # interning into the process-wide index-name table, the
    # single-flight cost-table cache (concurrent misses on one key
    # waiting on its slot, distinct keys building at once, failed
    # builds failing their waiters, and nested builds: DPipe plans
    # memoized inside the planner's concurrent calibrations),
    # concurrent first use of the DPipe layer-skeleton table (four
    # constants built by one thread-safe static initialization) and
    # of the Evaluator's shared cascades, parallel sweeps, the
    # root-parallel MCTS determinism suite, the serve-replay
    # scenario fan-out, the obs registry/trace concurrency tests,
    # the multichip shard-plan search, the fault-server replans
    # that re-run that search mid-trace, the fleet event loop
    # that advances replica sessions on parallelMap's workers, and
    # the paper-figure driver's one-Sweep fan-out.
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -L threaded
    # The multichip sweep fans (tp, pp) candidates across workers
    # with per-task registries; drive the real bench (small config)
    # under TSan to catch races the unit tests miss.
    echo "== TSan: multichip sweep bench =="
    ./build-tsan/bench/ext_multichip_scaling --chips 4 \
        --threads "$jobs" > /dev/null
    # Fault-tolerant serving replans on workers after every fault;
    # drive the degradation bench so those mid-trace sweeps (and
    # the drain/retry bookkeeping around them) run under TSan too.
    echo "== TSan: fault degradation bench =="
    ./build-tsan/bench/ext_fault_degradation --chips 4 \
        --threads "$jobs" --faults 2 > /dev/null
    # The fleet-scaling sweep fans its replica sizes across workers;
    # each builds its fleet (concurrent calibrations through the
    # single-flight cache) and prefix-merges per-replica registries.
    # Drive the full replica x policy sweep (1/2/4/8 replicas, every
    # policy) under TSan so those builds and merges are raced.
    echo "== TSan: fleet scaling bench =="
    ./build-tsan/bench/ext_fleet_scaling --replicas 8 \
        --threads "$jobs" > /dev/null
    # The capacity planner fans candidate evaluations (each a full
    # fleet replay) across workers and prefix-merges per-candidate
    # registries; drive the planner sweep under TSan so the
    # outermost parallel layer is raced too.
    echo "== TSan: capacity planner bench =="
    ./build-tsan/bench/ext_capacity_planner \
        --threads "$jobs" > /dev/null
    # Every paper figure evaluates its grid in one Sweep::run and
    # merges the per-point registries into the report; drive one
    # figure with --report so the fan-out and the merge are raced.
    echo "== TSan: paper-figure sweep =="
    ./build-tsan/bench/fig08b_speedup_models_64k \
        --threads "$jobs" --report /dev/null > /dev/null
}

run_ubsan() {
    echo "== UBSan: serve/fault/fleet arithmetic =="
    # The serve round loop and the gray-failure layers are
    # arithmetic-heavy (the int64 batch context sum, slowdown
    # multipliers, capped exponential backoff, EWMA health
    # trackers); -fno-sanitize-recover turns any UB into a test
    # failure instead of a silently-wrong number.  Only built
    # targets have discovered tests, so every suite the label
    # filter selects must be in the target list.
    cmake -B build-ubsan -S . -DTRANSFUSION_SANITIZE=undefined
    cmake --build build-ubsan -j "$jobs" \
        --target tf_serve_test tf_fault_test tf_fleet_test \
        tf_fault_fuzz_test tf_replay_diff_test \
        tf_fleet_scaling_test tf_tileseek_test tf_dpipe_test \
        ext_chaos_sweep
    ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
        -L 'serve|fault|fleet' -E Chaos
    # TileSeek's tree arena indexes its child pool by raw offsets;
    # run the whole MCTS suite, frozen search digests included.
    echo "== UBSan: TileSeek =="
    ./build-ubsan/tests/tileseek/tf_tileseek_test
    # DPipe's order search resumes each order from per-depth DP
    # state kept at raw offsets in one scratch buffer; run the whole
    # suite, the branch-and-bound-vs-full-pricing check included.
    echo "== UBSan: DPipe =="
    ./build-ubsan/tests/dpipe/tf_dpipe_test
    # A reduced chaos sweep under UBSan: the randomized schedules
    # push the slowdown/backoff/EWMA arithmetic into corners the
    # unit tests don't reach.  Exit status is the verdict.
    echo "== UBSan: reduced chaos sweep =="
    ./build-ubsan/bench/ext_chaos_sweep --schedules 8 \
        --threads "$jobs" > /dev/null
}

run_obs_off() {
    echo "== obs-off: -DTRANSFUSION_OBS=OFF with -Werror =="
    # Proves the TF_* macros compile to true no-ops: the whole tree
    # (instrumented hot paths included) must build warning-free and
    # the full suite must still pass with observability compiled
    # out.  Golden/report tests skip themselves in this config.
    cmake -B build-obs-off -S . -DTRANSFUSION_OBS=OFF \
        -DTRANSFUSION_WERROR=ON
    cmake --build build-obs-off -j "$jobs"
    ctest --test-dir build-obs-off --output-on-failure -j "$jobs"
}

case "$mode" in
    --tier1-only)    run_tier1 ;;
    --tsan-only)     run_tsan ;;
    --obs-off-only)  run_obs_off ;;
    --coverage-only) run_coverage ;;
    --ubsan-only)    run_ubsan ;;
    all)             run_tier1; run_tsan; run_obs_off; run_coverage
                     run_ubsan ;;
    *)
        echo "usage: $0 [--tier1-only | --tsan-only |" \
            "--obs-off-only | --coverage-only | --ubsan-only]" >&2
        exit 2
        ;;
esac
echo "check.sh: all requested checks passed"
