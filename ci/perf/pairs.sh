#!/bin/sh
# Alternating benchmark pairs between two built trees, for a perf claim.
#
#   ci/perf/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SEED]
#
# Each directory is a checkout whose benchmark is built
# (`cargo build --release --manifest-path benchmark/Cargo.toml`). The
# script runs `cbps-benchmark --workload WORKLOAD --seed SEED --seconds 16
# --trace 0` (SEED defaults to 1) N times on each side, from each tree's
# root, alternating the two and flipping which side goes first every
# pair, so that the host's drift lands on both. It prints the markdown
# table kept in `results/perf/`: both `ops_per_s` readings and their
# ratio, `setup_s` and `peak_rss_mb` of each side, whether the seven
# simulated metrics are equal, and `failed` / `correct` of both runs.
# Below the table, what a perf claim is judged by:
#   - each side's `ops_per_s` median and quartiles;
#   - the pairs the change won, against the rule that it win at least
#     nine in ten of ten pairs or more (fewer pairs never meet it), and
#     whether the gap between the medians exceeds the parent's
#     interquartile range;
#   - every simulated metric that differs, parent → change (medians), with
#     its relative move against the bound `BENCHMARK.json` (read from
#     CHANGE_DIR) gives it;
#   - whether the delivered fingerprints of the last runs
#     (`benchmark/out/run-WORKLOAD.json`) agree.
# A run takes 20–60 s. Not part of `ci.sh`.
#
# With ALIGNED=1 the script runs each tree's alignment-pinned binary
# instead, so that where the linker happens to place hot functions and
# loops cannot move `ops_per_s` between the two trees (about 5 % on
# `fanout`). Build it in each tree with
#
#   RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64" cargo build --release --manifest-path benchmark/Cargo.toml --target-dir target/bench-aligned
#
# (a target dir outside `benchmark/`, so the default build stays as it is).
#
# With REPEATS=N each run is `--repeats N` instead of `--seconds 16`: both
# sides then read `peak_rss_mb` after the same number of repeats, where a
# timed run fits as many as its speed allows, and the peak creeps up with
# the repeat count. Use it for a `peak_rss_mb` claim.
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [SEED]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=${5:-1}
if [ "${ALIGNED:-0}" = 1 ]; then
    bin=target/bench-aligned/release/cbps-benchmark
else
    bin=benchmark/target/release/cbps-benchmark
fi
for dir in "$parent" "$change"; do
    if [ ! -x "$dir/$bin" ]; then
        echo "$0: $dir/$bin is not built" >&2
        exit 2
    fi
done

if [ -n "${REPEATS:-}" ]; then
    length="--repeats $REPEATS"
else
    length="--seconds 16"
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run of SIDE (parent | change) for pair I: the last stdout line.
run() {
    if [ "$1" = parent ]; then dir=$parent; else dir=$change; fi
    # $length is two words, split on purpose.
    # shellcheck disable=SC2086
    (cd "$dir" && "./$bin" --workload "$workload" --seed "$seed" $length \
        --trace 0 2>/dev/null | tail -1) >"$out/$1.$2"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) = 1 ]; then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    echo "pair $i of $pairs done" >&2
    i=$((i + 1))
done

python3 - "$out" "$pairs" "$workload" "$seed" "$parent" "$change" "${ALIGNED:-0}" \
    "${REPEATS:-}" <<'EOF'
import json
import statistics
import sys

out, pairs, workload, seed, parent, change, aligned, repeats = sys.argv[1:]
pairs = int(pairs)
SIM = ["hops_per_sub", "hops_per_pub", "notify_hops_per_pub", "stored_top1pct",
       "load_top1pct_over_mean", "notify_latency_sim_ms_p50", "notify_latency_sim_ms_p99"]


def load(side, i):
    with open(f"{out}/{side}.{i}") as f:
        return json.loads(f.read())


def value(doc, name):
    return doc["metrics"][name]["value"]


def ops(v):
    return f"{v:,.0f}".replace(",", " ")


build = ", alignment-pinned build" if aligned == "1" else ""
length = f", `--repeats {repeats}`" if repeats else ""
print(f"## `{workload}` (seed {seed}{build}{length})\n")
print("| pair | first | parent `ops_per_s` | change `ops_per_s` | ratio | `setup_s` "
      "| `peak_rss_mb` | sim equal | `failed` | `correct` |")
print("|---|---|---|---|---|---|---|---|---|---|")
cols = {"p_ops": [], "c_ops": [], "ratio": [], "p_setup": [], "c_setup": [],
        "p_rss": [], "c_rss": []}
all_equal = True
for i in range(1, pairs + 1):
    p, c = load("parent", i), load("change", i)
    row = {
        "p_ops": value(p, "ops_per_s"), "c_ops": value(c, "ops_per_s"),
        "p_setup": value(p, "setup_s"), "c_setup": value(c, "setup_s"),
        "p_rss": value(p, "peak_rss_mb"), "c_rss": value(c, "peak_rss_mb"),
    }
    row["ratio"] = row["c_ops"] / row["p_ops"]
    for k, v in row.items():
        cols[k].append(v)
    equal = all(value(p, m) == value(c, m) for m in SIM)
    all_equal &= equal
    first = "parent" if i % 2 == 1 else "change"
    print(f"| {i} | {first} | {ops(row['p_ops'])} | {ops(row['c_ops'])} | {row['ratio']:.3f} "
          f"| {row['p_setup']:.4f} → {row['c_setup']:.4f} "
          f"| {row['p_rss']:.1f} → {row['c_rss']:.1f} | {equal} "
          f"| {p['failed']} / {c['failed']} | {p['correct']} / {c['correct']} |")

med = {k: statistics.median(v) for k, v in cols.items()}
ahead = sum(r > 1 for r in cols["ratio"])
print(f"\n`ops_per_s` median {ops(med['p_ops'])} → {ops(med['c_ops'])} "
      f"(median pair {med['ratio']:.3f}, range {min(cols['ratio']):.3f}–{max(cols['ratio']):.3f}, "
      f"change ahead in {ahead}/{pairs}); `setup_s` median {med['p_setup']:.4f} → "
      f"{med['c_setup']:.4f}; `peak_rss_mb` median {med['p_rss']:.1f} → {med['c_rss']:.1f} "
      f"({med['c_rss'] / med['p_rss'] - 1:+.1%}). Simulated metrics equal on all pairs: {all_equal}.")


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[2]


p_q, c_q = quartiles(cols["p_ops"]), quartiles(cols["c_ops"])
iqr = p_q[1] - p_q[0]
gap = med["c_ops"] - med["p_ops"]
# A gain is judged on ten pairs at least: fewer cannot meet the rule.
if pairs < 10:
    rule = "not met (fewer than 10 pairs)"
else:
    rule = "met" if ahead >= 0.9 * pairs else "not met"
print(f"\n`ops_per_s` parent median {ops(med['p_ops'])} (quartiles {ops(p_q[0])}–{ops(p_q[1])}), "
      f"change median {ops(med['c_ops'])} (quartiles {ops(c_q[0])}–{ops(c_q[1])}). "
      f"Change ahead in {ahead}/{pairs} pairs: the ≥ 9/10 rule is {rule}. "
      f"Median gap {'+' if gap >= 0 else '-'}"
      f"{ops(abs(gap))} against the parent's interquartile range {ops(iqr)}: "
      f"{'exceeds it' if abs(gap) > iqr else 'within it'}.")

with open(f"{change}/BENCHMARK.json") as f:
    bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
moved = []
for m in SIM:
    p_v = [value(load("parent", i), m) for i in range(1, pairs + 1)]
    c_v = [value(load("change", i), m) for i in range(1, pairs + 1)]
    if p_v == c_v:
        continue
    p_m, c_m = statistics.median(p_v), statistics.median(c_v)
    move = c_m / p_m - 1 if p_m else float("inf")
    worse = move if bounds[m]["better"] == "lower" else -move
    bound = bounds[m]["bound"]
    if worse <= 0:
        verdict = "not worse"
    else:
        verdict = f"worse, {'within' if worse <= bound else 'BEYOND'} its {bound:.0%} bound"
    moved.append(f"`{m}` {p_m:g} → {c_m:g} ({move:+.2%}, {bounds[m]['better']} is better: "
                 f"{verdict})")
if moved:
    print("\nSimulated metrics that differ (medians):")
    for line in moved:
        print(f"- {line}")

fingerprints = []
for tree in (parent, change):
    with open(f"{tree}/benchmark/out/run-{workload}.json") as f:
        fingerprints.append(json.load(f)["delivered_fingerprint"])
print(f"Delivered fingerprint of the last runs: {fingerprints[0]} / {fingerprints[1]} "
      f"(equal: {fingerprints[0] == fingerprints[1]}).")
EOF
