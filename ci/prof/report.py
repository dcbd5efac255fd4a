#!/usr/bin/env python3
"""Views of a ci/prof/samp.c sample file.

    report.py SAMPLES [--frame SUBSTR] [--exclude SUBSTR]... [--view leaf|incl|tree]
              [--top N] [--depth N]

Addresses are resolved with `addr2line -f -i -C` against the objects named in
the file's /proc/self/maps copy (build with CARGO_PROFILE_RELEASE_DEBUG=1, or
every Rust frame reads `??`). `--frame` keeps the samples whose stack has a
function containing SUBSTR and cuts each stack there, so shares are of that
frame's inclusive time. `--exclude` (repeatable) first drops every sample
whose stack has a function containing SUBSTR anywhere, e.g. a benchmark's
host probe that runs outside its timed wall.
leaf: innermost function (inlined frames count as functions); incl: every
function once per sample it appears in; tree: callers-first, children
indented, down to --depth.
"""
import argparse
import collections
import subprocess


def load(path):
    maps, samples = [], []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), "x" in f[1], f[5]))
        elif kind == "S":
            samples.append([int(a, 16) for a in rest.split()])
    return maps, samples


def resolve(maps, samples):
    """address -> list of function names, innermost (inlined) first."""
    base = {}
    for lo, _, off, _, obj in maps:
        base[obj] = min(base.get(obj, lo - off), lo - off)
    per_obj = collections.defaultdict(set)
    where = {}
    for stack in samples:
        for depth, addr in enumerate(stack):
            # A return address points past its call; the leaf is exact.
            pc = addr if depth == 0 else addr - 1
            for lo, hi, _, exe, obj in maps:
                if exe and lo <= pc < hi:
                    where[(addr, depth == 0)] = (obj, pc - base[obj])
                    per_obj[obj].add(pc - base[obj])
                    break
    names = {}
    for obj, pcs in per_obj.items():
        pcs = sorted(pcs)
        out = subprocess.run(
            ["addr2line", "-f", "-i", "-C", "-a", "-e", obj] + [hex(p) for p in pcs],
            capture_output=True, text=True).stdout.splitlines()
        cur = None
        for i, line in enumerate(out):
            if line.startswith("0x") and ":" not in line:
                cur = names.setdefault((obj, int(line, 16)), [])
                fn_line = i + 1
            elif (i - fn_line) % 2 == 0:
                cur.append(line if line != "??" else f"??@{obj.rsplit('/', 1)[-1]}")
    return lambda addr, leaf: names.get(where.get((addr, leaf)), ["??"])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("samples")
    ap.add_argument("--frame", default=None)
    ap.add_argument("--exclude", action="append", default=[])
    ap.add_argument("--view", choices=["leaf", "incl", "tree"], default="leaf")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--depth", type=int, default=6)
    args = ap.parse_args()
    maps, samples = load(args.samples)
    name_of = resolve(maps, samples)
    stacks = []
    for stack in samples:
        fns = [fn for d, a in enumerate(stack) for fn in name_of(a, d == 0)]  # innermost first
        if any(x in fn for x in args.exclude for fn in fns):
            continue
        if args.frame:
            cut = max((i for i, fn in enumerate(fns) if args.frame in fn), default=None)
            if cut is None:
                continue
            fns = fns[: cut + 1]
        if fns:
            stacks.append(fns)
    total = len(stacks)
    print(f"{total} of {len(samples)} samples" + (f" under '{args.frame}'" if args.frame else "")
          + "".join(f", without '{x}'" for x in args.exclude))
    if args.view == "tree":
        tree = lambda: collections.defaultdict(tree)  # noqa: E731
        root, counts = tree(), collections.Counter()
        for fns in stacks:
            node, path = root, ()
            for fn in reversed(fns[-args.depth - 1:] if not args.frame else fns):
                path += (fn,)
                if len(path) > args.depth:
                    break
                counts[path] += 1
                node = node[fn]

        def show(node, path):
            for fn in sorted(node, key=lambda f: -counts[path + (f,)]):
                n = counts[path + (fn,)]
                if n * 200 >= total:  # hide what is below 0.5 %
                    print(f"{'  ' * len(path)}{100 * n / total:5.1f}%  {fn}")
                    show(node[fn], path + (fn,))
        show(root, ())
        return
    tally = collections.Counter()
    for fns in stacks:
        tally.update([fns[0]] if args.view == "leaf" else set(fns))
    for fn, n in tally.most_common(args.top):
        print(f"{100 * n / total:5.1f}%  {n:6d}  {fn}")


if __name__ == "__main__":
    main()
