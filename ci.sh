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

# No process-global state in the harness or the CLI: a run's settings
# travel in a `RunProfile` value and each experiment returns its own
# `RunTotals`, so no `static` item may appear there.
echo "==> no statics in crates/bench/src and crates/cli/src"
if grep -rnE '^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?static[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:' \
    crates/bench/src crates/cli/src; then
    echo "FAIL: a static item in crates/bench/src or crates/cli/src (above)" >&2
    exit 1
fi

# No mutable process-wide state in any library or binary: a `static mut`
# or a `static` atomic, `Mutex`, `RwLock` or `OnceLock` would be a global
# knob (the overlay builder's job count was one). Immutable statics and
# the `thread_local!` scratch pools are fine.
echo "==> no mutable statics in crates/*/src"
if grep -rnE '^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?static[[:space:]]+(mut[[:space:]]|[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:[[:space:]]*([A-Za-z_][A-Za-z0-9_]*::)*(Atomic[A-Za-z0-9]*|Mutex|RwLock|OnceLock)([^A-Za-z0-9_]|$))' \
    crates/*/src; then
    echo "FAIL: a mutable process-wide static in crates/*/src (above)" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

# The allocation gates pin exact counts, which hold for optimized builds
# only (two are ignored under debug assertions), as does `build_scale`'s
# per-node build cost.
echo "==> cargo test --release (allocation and build-scale gates)"
cargo test --release -q -p cbps-bench --test alloc_steady --test alloc_install \
    --test alloc_route --test build_scale

# The sampling profiler of `ci/prof` is C and Python, out of cargo's sight:
# build it and profile a sub-second run through `timeout`, a wrapper that
# inherits the preload: the binary's samples must survive it.
if command -v gcc >/dev/null 2>&1 && command -v python3 >/dev/null 2>&1 &&
    command -v addr2line >/dev/null 2>&1 && command -v timeout >/dev/null 2>&1; then
    echo "==> ci/prof sampler smoke"
    prof_dir=$(mktemp -d)
    gcc -O2 -Wall -Wextra -Werror -shared -fPIC -o "$prof_dir/samp.so" ci/prof/samp.c
    SAMP_HZ=1000 SAMP_OUT="$prof_dir/fig6.samp" LD_PRELOAD="$prof_dir/samp.so" \
        timeout 300 ./target/release/figures --scale quick --jobs 1 fig6 >/dev/null 2>&1
    if ! grep -q '^S' "$prof_dir/fig6.samp" 2>/dev/null; then
        echo "FAIL: the sampler left no samples of a run behind a wrapper" >&2
        exit 1
    fi
    python3 ci/prof/report.py "$prof_dir/fig6.samp" --view incl --top 400 >"$prof_dir/incl.txt"
    if ! grep -q 'main' "$prof_dir/incl.txt"; then
        echo "FAIL: the sampler's report names no frame of the run it sampled" >&2
        head "$prof_dir/incl.txt" >&2
        exit 1
    fi
    rm -rf "$prof_dir"
else
    echo "==> gcc, python3, addr2line or timeout missing; skipping the ci/prof smoke"
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

# Public docs must build without a broken or private intra-doc link.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

# Event-count and serial-vs-parallel smoke: a quick-scale figures subset
# must simulate exactly the event counts the recorded baseline holds (wall
# times legitimately drift; event counts may not), and --jobs (the pool
# that runs independent sweep points) must not change a table: the render
# at --jobs 4 and one at --jobs 1 must be byte-identical.
echo "==> event-count and serial-vs-parallel smoke (figures --json, --jobs 4|1)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
smoke_experiments="route fig6 churn"
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs 4 \
    --json "$smoke_dir/run.json" $smoke_experiments >"$smoke_dir/jobs4.tables" 2>/dev/null
# shellcheck disable=SC2086
./target/release/figures --scale quick --jobs 1 \
    $smoke_experiments >"$smoke_dir/jobs1.tables" 2>/dev/null
if ! diff -u "$smoke_dir/jobs1.tables" "$smoke_dir/jobs4.tables"; then
    echo "FAIL: --jobs 1 and --jobs 4 render different tables" >&2
    exit 1
fi
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
echo "==> event-count and serial-vs-parallel smoke passed (baseline counts, identical tables)"

# Overlay portability smoke: the Chord and the Pastry quick-scale tables
# must stay byte-identical to their committed baselines (the Pastry
# experiments also assert cross-overlay delivery parity), and a trace
# replayed over both must leave the same delivered-set fingerprint.
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
if ! diff -u ci/baseline_overlay_pastry.tables "$smoke_dir/pastry.tables"; then
    echo "FAIL: pastry tables drifted from the committed baseline" >&2
    exit 1
fi
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
# The same trace replayed over every overlay × mapping × primitive, and
# over Chord m2 in the buffered, collecting and replicated modes, must
# print exactly what the committed baseline holds (message counts per
# class, hops, matches, store sizes, the delivered-set fingerprint).
for overlay in chord pastry; do
    for mapping in m1 m2 m3; do
        for primitive in mcast unicast walk; do
            flags="--overlay $overlay --mapping $mapping --primitive $primitive"
            echo "== $flags"
            # shellcheck disable=SC2086
            ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 $flags
        done
    done
done >"$smoke_dir/run-trace.txt"
for extra in "--notify buffered:5" "--notify collecting:5" "--replication 2"; do
    flags="--overlay chord --mapping m2 $extra"
    echo "== $flags"
    # shellcheck disable=SC2086
    ./target/release/cbps run-trace "$smoke_dir/smoke.trace" --nodes 80 --seed 5 $flags
done >>"$smoke_dir/run-trace.txt"
if ! diff -u ci/baseline_run_trace.txt "$smoke_dir/run-trace.txt"; then
    echo "FAIL: cbps run-trace output drifted from ci/baseline_run_trace.txt" >&2
    exit 1
fi
echo "==> overlay smoke passed (chord and pastry baselines byte-identical, fingerprints match, run-trace baseline)"

# Benchmark smoke: the detached benchmark crate calls the library crates'
# public items; build it, run its unit tests and a 1/50-size pass of all
# four workloads through the oracle gate.
echo "==> benchmark smoke (benchmark/check.sh)"
benchmark/check.sh
echo "==> benchmark smoke passed"

echo "==> tier-1 gate passed"
