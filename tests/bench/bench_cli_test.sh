#!/bin/sh
# Shared-CLI contract of the paper-figure, table, ablation and
# extension bench binaries: stdout and the --report text are the
# same at --threads 1 and --threads 4, every figure binary writes a
# non-empty report, and an unknown flag exits with status 2.
#
# Usage: bench_cli_test.sh BENCH_DIR OBS_ENABLED(1|0)
# With OBS_ENABLED=0 (TRANSFUSION_OBS=OFF) there is no report to
# compare, so the report checks are skipped.
set -u
bench_dir=$1
obs=$2

figures="fig08a_speedup_llama3 fig08b_speedup_models_64k
    fig09a_pe_scaling_llama3 fig09b_pe_scaling_models
    fig10a_utilization_llama3 fig10b_utilization_models
    fig11_speedup_contribution fig12a_energy_llama3
    fig12b_energy_models fig13_energy_breakdown"
others="table2_buffer_requirements table3_architectures
    ablate_overlap ablate_tileseek ext_arch_sensitivity
    ext_bottleneck_matrix ext_encdec_stack ext_tile_objective"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0
fail() {
    echo "FAIL $1: $2"
    failures=$((failures + 1))
}

# check NAME KIND: KIND "figure" also requires a non-empty report.
check() {
    name=$1
    exe="$bench_dir/$name"
    # A binary that writes no report must not pass on its
    # predecessor's files.
    rm -f "$tmp/r1" "$tmp/r4"
    if ! "$exe" --threads 1 --report "$tmp/r1" > "$tmp/o1"; then
        fail "$name" "--threads 1 run exited non-zero"
        return
    fi
    if ! "$exe" --threads 4 --report "$tmp/r4" > "$tmp/o4"; then
        fail "$name" "--threads 4 run exited non-zero"
        return
    fi
    cmp -s "$tmp/o1" "$tmp/o4" \
        || fail "$name" "stdout differs between --threads 1 and 4"
    if [ "$obs" = 1 ]; then
        cmp -s "$tmp/r1" "$tmp/r4" \
            || fail "$name" "--report differs between --threads 1 and 4"
        if [ "$2" = figure ] && [ ! -s "$tmp/r4" ]; then
            fail "$name" "--report is empty"
        fi
    fi
    "$exe" --no-such-flag > /dev/null 2>&1
    status=$?
    [ "$status" -eq 2 ] \
        || fail "$name" "--no-such-flag exited $status, expected 2"
}

for name in $figures; do check "$name" figure; done
for name in $others; do check "$name" other; done

if [ "$failures" -ne 0 ]; then
    echo "$failures bench CLI check(s) failed"
    exit 1
fi
echo "bench CLI: all checks passed"
