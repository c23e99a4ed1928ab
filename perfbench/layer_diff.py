#!/usr/bin/env python3
"""Compare two traced perfbench runs layer by layer.

Usage:
    python3 perfbench/layer_diff.py BEFORE AFTER

BEFORE and AFTER are each a trace file written by a --trace 1 run
(<workload>.seed<N>.trace.json) or a directory of them. Files are matched by
workload; several seeds of one workload are combined by their median. For
every workload in both, prints each per-layer metric side by side, then each
traced layer's self time and share of the traced time, so a change can show
where its saving appears.
"""
import glob
import json
import os
import statistics
import sys


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.trace.json")))
             if os.path.isdir(path) else [path])
    if not files:
        sys.exit("layer_diff: no trace files in %s" % path)
    runs = {}
    for f in files:
        with open(f) as fh:
            d = json.load(fh)
        runs.setdefault(d["workload"], []).append(d)
    out = {}
    for wl, ds in runs.items():
        metrics = {k: statistics.median(d["metrics"][k] or 0 for d in ds)
                   for k in ds[0]["metrics"]}
        layers = {}
        for name in {n for d in ds for n in d["layers"]}:
            rows = [d["layers"].get(name, {"self_s": 0, "share": 0})
                    for d in ds]
            layers[name] = (statistics.median(r["self_s"] for r in rows),
                            statistics.median(r["share"] for r in rows))
        out[wl] = (len(ds), metrics, layers)
    return out


def change(a, b):
    if a == b:
        return "="
    if a == 0:
        return "new"
    return "%+.1f%%" % (100.0 * (b - a) / abs(a))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    for wl in sorted(set(before) & set(after)):
        nb, mb, lb = before[wl]
        na, ma, la = after[wl]
        print("== %s (before: %d run(s), after: %d run(s))" % (wl, nb, na))
        print("%-32s %14s %14s %9s" % ("per-layer metric", "before", "after",
                                       "change"))
        for k in mb:
            a, b = mb[k], ma.get(k, 0)
            if a == 0 and b == 0:
                continue  # the layer does no work on this workload
            print("%-32s %14.6g %14.6g %9s" % (k, a, b, change(a, b)))
        print("%-32s %10s %7s %10s %7s %9s" % ("layer self time", "before s",
                                               "share", "after s", "share",
                                               "change"))
        for name in sorted(set(lb) | set(la),
                           key=lambda n: -lb.get(n, (0, 0))[0]):
            sb, pb = lb.get(name, (0.0, 0.0))
            sa, pa = la.get(name, (0.0, 0.0))
            print("%-32s %10.4f %6.1f%% %10.4f %6.1f%% %9s" %
                  (name, sb, 100 * pb, sa, 100 * pa, change(sb, sa)))
        print()
    for wl in sorted(set(before) ^ set(after)):
        print("== %s: only in %s" % (wl, "before" if wl in before else "after"))


if __name__ == "__main__":
    main()
