#!/usr/bin/env python3
"""Compare two benchmark result sets, or summarize one.

    python3 perfbench/compare.py BASE [CHANGE]

Each result set is one or more files or directories holding the
standard output of perfbench/run.py runs; the RECORD lines in them are
read, so `run.py ... >> base.log` over several seeds builds a set.

With one set, prints for every (workload, metric) the median, the
quartiles and the spread (interquartile range over the median, as
statistics.quantiles(values, n=4) gives them) next to the metric's
bound from BENCHMARK.json.

With two sets, classifies every (workload, metric) pair:

    better / worse  the medians differ by more than the run-to-run
                    spread of either set (worse beyond the bound is
                    flagged as a regression);
    unchanged       the medians differ by less than the spread, and
                    the spread is within the bound;
    unresolved      the spread is wider than the bound (or a set has
                    fewer than three runs), unless every run of one set
                    reads better than every run of the other.

Exit status 1 when an end-to-end metric regresses beyond its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(path):
    spec = json.loads(path.read_text())
    info = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            info[m["name"]] = {"unit": m["unit"], "better": m["better"],
                               "bound": m.get("bound"), "kind": kind}
    return info


def read_set(paths):
    """{(workload, metric): [values]} from the RECORD lines of @paths."""
    values = {}
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*")) if p.is_dir() else [p])
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text(errors="replace").splitlines():
            if not line.startswith("RECORD "):
                continue
            rec = json.loads(line[len("RECORD "):])
            for section in ("end_to_end", "per_layer"):
                for name, v in rec.get(section, {}).items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        values.setdefault((rec["workload"], name),
                                          []).append(float(v))
    return values


def spread(vals):
    """(median, q1, q3, IQR / |median|) of @vals."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    rel = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, rel


def verdict(a, b, info):
    """Classify CHANGE @b against BASE @a for one metric."""
    ma, _, _, sa = spread(a)
    mb, _, _, sb = spread(b)
    lower = info.get("better", "lower") == "lower"
    bound = info.get("bound")
    change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
    gain = -change if lower else change
    noise = max(sa, sb)
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    all_worse = (min(b) > max(a)) if lower else (max(b) < min(a))
    few = min(len(a), len(b)) < 3
    if not few and (bound is None or noise <= bound):
        if abs(gain) > noise:
            kind = "better" if gain > 0 else "worse"
        else:
            kind = "unchanged"
    elif all_better and not few:
        kind = "better"
    elif all_worse and not few:
        kind = "worse"
    else:
        kind = "unresolved"
    regression = bound is not None and gain < -bound and kind != "better"
    return {"base": ma, "change": mb, "delta": change, "spread": noise,
            "bound": bound, "verdict": kind, "regression": regression}


def fmt_pct(x):
    return "-" if x is None else f"{100 * x:+.1f}%"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="file or directory of run output")
    ap.add_argument("change", nargs="?",
                    help="second result set to compare against base")
    a = ap.parse_args(argv)
    info = load_spec(ROOT / "BENCHMARK.json")
    base = read_set([a.base])
    if not base:
        print(f"no RECORD lines in {a.base}", file=sys.stderr)
        return 2
    rows = []
    if a.change is None:
        for (w, name), vals in sorted(base.items()):
            med, q1, q3, rel = spread(vals)
            bound = info.get(name, {}).get("bound")
            rows.append({"workload": w, "metric": name, "runs": len(vals),
                         "median": med, "q1": q1, "q3": q3, "spread": rel,
                         "bound": bound,
                         "steady": bound is None or rel <= bound / 3})
        print(f"{'workload':<15} {'metric':<42} {'runs':>4} {'median':>13} "
              f"{'spread':>8} {'bound':>7}")
        for r in rows:
            if r["bound"] is None and info.get(r["metric"]) is None:
                continue
            flag = "" if r["steady"] else "  (spread above bound/3)"
            print(f"{r['workload']:<15} {r['metric']:<42} {r['runs']:>4} "
                  f"{r['median']:>13.6g} {100 * r['spread']:>7.2f}% "
                  f"{fmt_pct(r['bound']):>7}{flag}")
        return 0

    change = read_set([a.change])
    regressed = False
    for key in sorted(set(base) & set(change)):
        w, name = key
        m = info.get(name)
        if m is None:
            continue
        v = verdict(base[key], change[key], m)
        v.update(workload=w, metric=name, kind=m["kind"])
        regressed |= v["regression"] and m["kind"] == "end_to_end"
        rows.append(v)
    print(f"{'workload':<15} {'metric':<42} {'base':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>8} {'bound':>7}  verdict")
    for r in rows:
        tag = r["verdict"] + ("  REGRESSION" if r["regression"] else "")
        print(f"{r['workload']:<15} {r['metric']:<42} {r['base']:>12.6g} "
              f"{r['change']:>12.6g} {fmt_pct(r['delta']):>8} "
              f"{100 * r['spread']:>7.1f}% {fmt_pct(r['bound']):>7}  {tag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
