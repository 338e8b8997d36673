#!/usr/bin/env bash
# Regenerate the golden observability reports, the frozen replay
# digests (replay_digests_*.txt) and the TileSeek search digests
# (search_digests_tileseek.txt) in tests/golden/data/ after an
# intentional cost-model or simulation change, then re-run the
# golden tier and the digest tests to confirm the refreshed files
# pass.  Review the resulting git diff like code: every changed
# line is a behaviour change, and a digest line names its cell.
#
# Usage: scripts/update_golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

cmake -B build -S .
cmake --build build -j "$jobs" --target tf_golden_test \
    tf_replay_diff_test tf_serve_test tf_chaos_test tf_tileseek_test

# The digest tests, by binary.
digest_tests=(
    "tests/integration/tf_replay_diff_test:ReplayDiff.*FrozenDigests"
    "tests/serve/tf_serve_test:SessionDiff.*FrozenDigests"
    "tests/chaos/tf_chaos_test:Chaos.*"
    "tests/tileseek/tf_tileseek_test:TileSeekDigests.*"
)

mkdir -p tests/golden/data
echo "== regenerating golden reports and replay digests =="
TRANSFUSION_UPDATE_GOLDEN=1 ./build/tests/golden/tf_golden_test
for t in "${digest_tests[@]}"; do
    TRANSFUSION_UPDATE_GOLDEN=1 "./build/${t%%:*}" \
        --gtest_filter="${t#*:}"
done

# Every pinned layer must actually have written its file — a
# renamed or filtered-out TEST would otherwise silently drop a
# golden from the regeneration set.
for g in cloud_llama3_fault_chiploss cloud_llama3_fleet4_p2c \
    cloud_llama3_slowdown_breaker cloud_llama3_tp2pp2 \
    cloud_llama3_transfusion cloud_llama3_unfused \
    edge_llama3_transfusion edge_llama3_unfused \
    edge_t5small_plan replay_digests_chaos replay_digests_fleet_grid \
    replay_digests_serve replay_digests_session_script \
    search_digests_tileseek; do
    if [ ! -s "tests/golden/data/$g.txt" ]; then
        echo "update_golden.sh: missing regenerated golden" \
            "tests/golden/data/$g.txt" >&2
        exit 1
    fi
done

echo "== verifying regenerated goldens and digests =="
ctest --test-dir build --output-on-failure -j "$jobs" -L golden
for t in "${digest_tests[@]}"; do
    "./build/${t%%:*}" --gtest_filter="${t#*:}"
done

echo "update_golden.sh: goldens and digests regenerated and verified"
git status --short tests/golden/data || true
