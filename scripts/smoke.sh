#!/usr/bin/env bash
# Smoke the full experiment suite through the parallel harness.
#
# Runs every experiment at quick effort twice — serial (`--jobs 1`) and
# through the shared pool (`--jobs 4`) — and fails on:
#   (a) a nonzero exit — the CLI exits 1 when any experiment stops
#       holding the paper's shape;
#   (b) a shape regression in the printed summary, checked independently
#       of the exit code so a future CLI bug cannot silently pass the
#       gate;
#   (c) any byte of difference between the serial and parallel report
#       files — the determinism guarantee, asserted here in CI rather
#       than only in-process.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/expected.sh
. "$(dirname "$0")/expected.sh"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Fast gate first: the registry listing and two single experiments
# through the --only path — the first registered figure and the newest
# link experiment (which exercises the ARQ reverse channel). This
# catches a broken build, a registry mismatch or a CLI regression in
# seconds, before the full matrix spends minutes.

# Wire fuzzing fast gate: replay the checked-in corpus through all three
# targets (no mutation), then a seeded determinism check — two identical
# short runs must print identical per-target summaries. A corpus entry
# that trips an oracle fails here in seconds.
cargo run --release -p xtask -- fuzz --replay > "$workdir/fuzz_replay.txt" || {
    echo "smoke: corpus replay tripped a fuzz oracle:" >&2
    cat "$workdir/fuzz_replay.txt" >&2
    exit 1
}
grep -q "^fuzz: PASS" "$workdir/fuzz_replay.txt" || {
    echo "smoke: fuzz replay did not report PASS" >&2
    exit 1
}
cargo run --release -p xtask -- fuzz --iters 2000 > "$workdir/fuzz_a.txt"
cargo run --release -p xtask -- fuzz --iters 2000 > "$workdir/fuzz_b.txt"
diff "$workdir/fuzz_a.txt" "$workdir/fuzz_b.txt" || {
    echo "smoke: two identical fuzz runs printed different summaries — determinism broken" >&2
    exit 1
}

n_ids="$(cargo run --release -p distscroll-eval -- --list | tail -n +2 | wc -l)"
if [ "$n_ids" -ne "$N_EXPERIMENTS" ]; then
    echo "smoke: --list should print $N_EXPERIMENTS experiments, got $n_ids" >&2
    exit 1
fi
cargo run --release -p distscroll-eval -- --only F4 --effort quick > "$workdir/only_f4.txt"
grep -q "== summary: 1/1 experiments hold the paper's shape ==" "$workdir/only_f4.txt" || {
    echo "smoke: --only F4 fast gate failed" >&2
    exit 1
}
cargo run --release -p distscroll-eval -- --only L2 --effort quick > "$workdir/only_l2.txt"
grep -q "== summary: 1/1 experiments hold the paper's shape ==" "$workdir/only_l2.txt" || {
    echo "smoke: --only L2 fast gate failed" >&2
    exit 1
}
cargo run --release -p distscroll-eval -- --only L3 --effort quick > "$workdir/only_l3.txt"
grep -q "== summary: 1/1 experiments hold the paper's shape ==" "$workdir/only_l3.txt" || {
    echo "smoke: --only L3 fast gate failed" >&2
    exit 1
}
cargo run --release -p distscroll-eval -- --only R1 --effort quick > "$workdir/only_r1.txt"
grep -q "== summary: 1/1 experiments hold the paper's shape ==" "$workdir/only_r1.txt" || {
    echo "smoke: --only R1 fast gate failed" >&2
    exit 1
}

cargo run --release -p distscroll-eval -- --quick --jobs 1 --out "$workdir/jobs1" all \
    > "$workdir/stdout_jobs1.txt"
cargo run --release -p distscroll-eval -- --quick --jobs 4 --out "$workdir/jobs4" all \
    | tee "$workdir/stdout_jobs4.txt"

grep -q "== summary: $N_EXPERIMENTS/$N_EXPERIMENTS experiments hold the paper's shape ==" "$workdir/stdout_jobs4.txt" || {
    echo "smoke: shape summary missing or regressed" >&2
    exit 1
}
if grep -q "DOES NOT HOLD" "$workdir/stdout_jobs4.txt"; then
    echo "smoke: at least one experiment no longer holds the paper's shape" >&2
    exit 1
fi

# Guard the determinism diff against vacuity: two missing/empty report
# dirs would byte-compare equal, so require the full report set first.
for d in "$workdir/jobs1" "$workdir/jobs4"; do
    n="$(find "$d" -name '*.txt' 2> /dev/null | wc -l)"
    if [ "$n" -ne "$N_EXPERIMENTS" ]; then
        echo "smoke: expected $N_EXPERIMENTS report files in $d, found $n" >&2
        exit 1
    fi
done

if ! diff -r "$workdir/jobs1" "$workdir/jobs4"; then
    echo "smoke: --jobs 4 reports differ from --jobs 1 reports byte-for-byte" >&2
    exit 1
fi

echo "smoke: $N_EXPERIMENTS/$N_EXPERIMENTS experiments hold at --quick; --jobs 4 == --jobs 1 byte-for-byte"
