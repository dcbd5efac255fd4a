#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# The workspace has no external dependencies, so this runs fully offline.
set -eu

cd "$(dirname "$0")"

# `unsafe` allow-list. Library and binary code has one block, the prefetch
# hint in cbps-sim (`crates/sim/src/prefetch.rs`, behind a scoped `allow` in
# a crate that otherwise denies it); the six other library crates forbid it
# outright, and no other file under `crates/*/src` may say the word. (The
# allocation gates' counting `GlobalAlloc` lives under `crates/bench/tests`.)
echo "==> unsafe allow-list"
unsafe_files=$(grep -rlw unsafe crates/*/src | sort | tr '\n' ' ')
if [ "$unsafe_files" != "crates/sim/src/prefetch.rs " ]; then
    echo "FAIL: \`unsafe\` outside the allow-list: $unsafe_files" >&2
    exit 1
fi
if [ "$(grep -c 'unsafe {' crates/sim/src/prefetch.rs)" != 1 ] ||
    ! grep -B6 'unsafe {' crates/sim/src/prefetch.rs | grep -q '// SAFETY:'; then
    echo "FAIL: prefetch.rs must hold exactly one unsafe block, under a SAFETY comment" >&2
    exit 1
fi
grep -q '^#!\[deny(unsafe_code)\]' crates/sim/src/lib.rs || {
    echo "FAIL: cbps-sim no longer denies unsafe_code" >&2
    exit 1
}
for crate in bench core overlay pastry rng workload; do
    grep -q '^#!\[forbid(unsafe_code)\]' "crates/$crate/src/lib.rs" || {
        echo "FAIL: crates/$crate/src/lib.rs lost #![forbid(unsafe_code)]" >&2
        exit 1
    }
done

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --doc"
cargo test --workspace --doc -q

# The allocation gates pin exact counts, which hold for optimized builds
# only: two of the three are ignored under debug assertions, so the debug
# run above gates neither them, `alloc_install`'s ceiling on the live heap
# bytes a stored copy adds, nor `build_scale`'s per-node build cost. The
# covering-probe gate counts what the store read, so it already ran above;
# it is repeated because the optimized build is the one that gets measured.
echo "==> cargo test --release (allocation, build-scale and covering-probe gates)"
cargo test --release -q -p cbps-bench --test alloc_steady --test alloc_install \
    --test alloc_route --test build_scale --test covering_stats

# The sampling profiler of `ci/prof` is C and Python, out of cargo's sight:
# build it and take one profile of a sub-second run, so that the next perf
# change finds it working (usage: .claude/skills/verify/SKILL.md).
if command -v gcc >/dev/null 2>&1 && command -v python3 >/dev/null 2>&1 &&
    command -v addr2line >/dev/null 2>&1; then
    echo "==> ci/prof sampler smoke"
    prof_dir=$(mktemp -d)
    gcc -O2 -Wall -Wextra -Werror -shared -fPIC -o "$prof_dir/samp.so" ci/prof/samp.c
    SAMP_HZ=1000 SAMP_OUT="$prof_dir/fig6.samp" LD_PRELOAD="$prof_dir/samp.so" \
        ./target/release/figures --scale quick --jobs 1 fig6 >/dev/null 2>&1
    python3 ci/prof/report.py "$prof_dir/fig6.samp" --view incl --top 400 >"$prof_dir/incl.txt"
    if ! grep -q 'main' "$prof_dir/incl.txt"; then
        echo "FAIL: the sampler's report names no frame of the run it sampled" >&2
        head "$prof_dir/incl.txt" >&2
        exit 1
    fi
    rm -rf "$prof_dir"
else
    echo "==> gcc, python3 or addr2line missing; skipping the ci/prof smoke"
fi

# Hint neutrality: `tests/hint_neutrality.rs` pins what a fanout-shaped run
# delivers, counts and costs in events; it passed above with the prefetch
# hints in, and must read the same digest with every hint compiled to
# nothing (a second debug build of the root package, in its own directory).
echo "==> hint neutrality (--cfg cbps_no_prefetch)"
RUSTFLAGS="--cfg cbps_no_prefetch" cargo test -q --target-dir target/no-prefetch \
    --test hint_neutrality

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

# Event-count smoke: a quick-scale figures subset must simulate exactly
# the event counts the recorded baseline holds (wall times legitimately
# drift; event counts may not).
echo "==> event-count smoke (figures --json against the baseline)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
smoke_experiments="route fig6 churn"
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs "$(nproc)" \
    --json "$smoke_dir/run.json" $smoke_experiments >/dev/null 2>&1
# Reports are one-line JSON; break records apart before extracting fields.
events_of() {
    tr '{' '\n' <"$1" |
        sed -n 's/.*"name": *"\([a-z0-9_]*\)".*"events": *\([0-9]*\).*/\1 \2/p'
}
events_of "$smoke_dir/run.json" >"$smoke_dir/run.events"
if [ -f results/bench/BENCH_baseline.json ]; then
    events_of results/bench/BENCH_baseline.json >"$smoke_dir/baseline.events"
    for exp in $smoke_experiments; do
        base=$(awk -v e="$exp" '$1 == e { print $2 }' "$smoke_dir/baseline.events")
        got=$(awk -v e="$exp" '$1 == e { print $2 }' "$smoke_dir/run.events")
        # Skip experiments the baseline didn't measure (recorded as 0).
        if [ -n "$base" ] && [ "$base" != "0" ] && [ "$got" != "$base" ]; then
            echo "FAIL: $exp simulated $got events, baseline recorded $base" >&2
            exit 1
        fi
    done
fi
echo "==> event-count smoke passed (event counts match baseline)"

# Overlay portability smoke: the generic deployment core must keep the
# Chord quick-scale figure tables byte-identical to the committed
# pre-refactor baseline, the same suite must run cleanly over the Pastry
# substrate (its experiments assert cross-overlay delivery parity
# internally), and a trace replayed over both substrates must produce the
# same delivered-set fingerprint.
echo "==> overlay smoke (figures/cbps --overlay chord|pastry)"
overlay_experiments="fig5 fig6 fig7 fig8 fig9a latency fig9b mcast partial hotspot vnodes"
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs "$(nproc)" \
    $overlay_experiments >"$smoke_dir/chord.tables" 2>/dev/null
if ! diff -u ci/baseline_overlay_chord.tables "$smoke_dir/chord.tables"; then
    echo "FAIL: chord tables drifted from the pre-refactor baseline" >&2
    exit 1
fi
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs "$(nproc)" --overlay pastry \
    $overlay_experiments >"$smoke_dir/pastry.tables" 2>/dev/null
./target/release/cbps gen-trace --out "$smoke_dir/smoke.trace" \
    --nodes 80 --subs 120 --pubs 240 --seed 5 --match 0.7 >/dev/null
for overlay in chord pastry; do
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --overlay "$overlay" |
        sed -n 's/^delivered-set fingerprint: //p' >"$smoke_dir/$overlay.fp"
done
if ! diff "$smoke_dir/chord.fp" "$smoke_dir/pastry.fp"; then
    echo "FAIL: chord and pastry delivered different notification sets" >&2
    exit 1
fi
echo "==> overlay smoke passed (chord baseline byte-identical, fingerprints match)"

# Match-engine and serial-vs-parallel smoke: the sorted-segment index must
# be an exact drop-in for the counting index at rendezvous nodes, and
# --jobs (which drives both the sweep-point worker pool and the parallel
# node construction) must not change a table. Three quick-scale renders —
# counting at --jobs 1 and 4, sorted at --jobs 4 — must be byte-identical,
# and a replayed trace must print byte-identical run-trace output under
# both engines (delivered-set fingerprint included). (The build's
# near-linear cost is the release-mode `build_scale` test above.)
echo "==> match-engine and serial-vs-parallel smoke (figures --match-engine, --jobs 1|4)"
ab_experiments="route fig6 mcast"
for run in counting:1 counting:4 sorted:4; do
    # shellcheck disable=SC2086
    ./target/release/figures --scale quick --jobs "${run#*:}" \
        --match-engine "${run%:*}" \
        $ab_experiments >"$smoke_dir/$run.tables" 2>/dev/null
done
for run in counting:4 sorted:4; do
    if ! diff -u "$smoke_dir/counting:1.tables" "$smoke_dir/$run.tables"; then
        echo "FAIL: counting at --jobs 1 and ${run%:*} at --jobs 4 render different tables" >&2
        exit 1
    fi
done
for engine in counting sorted; do
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 \
        --match-engine "$engine" >"$smoke_dir/$engine.rt"
done
if ! diff -u "$smoke_dir/counting.rt" "$smoke_dir/sorted.rt"; then
    echo "FAIL: counting and sorted engines replay a trace differently" >&2
    exit 1
fi
echo "==> match-engine and serial-vs-parallel smoke passed (tables and trace replay identical)"

# Benchmark smoke: the detached benchmark crate measures the library
# crates through their public items, so a signature it uses cannot change
# unnoticed. Builds it, runs its unit tests and a 1/50-size pass of all
# four workloads through the oracle gate.
echo "==> benchmark smoke (benchmark/check.sh)"
benchmark/check.sh
echo "==> benchmark smoke passed"

echo "==> tier-1 gate passed"
