#!/usr/bin/env python3
"""Summarise and compare perfbench result records (.bench_out/*.json).

    python3 perfbench/compare.py spread DIR_OR_FILES...
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the metric's
        bound from BENCHMARK.json.
    python3 perfbench/compare.py diff BASE NEW
        Per workload and end-to-end metric: the NEW median against the
        BASE median, flagged when it is worse by more than the bound.

Records from hosts or builds with different fingerprints are not
comparable: both commands refuse to mix them.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def load(paths):
    """{workload: {metric: [values]}} from untraced records; exits when the
    records carry more than one fingerprint."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    out, prints = {}, set()
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace") != 0:
            continue
        prints.add(json.dumps(record["fingerprint"], sort_keys=True))
        metrics = out.setdefault(record["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    if len(prints) > 1:
        sys.exit("compare: records with different host fingerprints are not "
                 "comparable:\n  " + "\n  ".join(sorted(prints)))
    return out, prints


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(paths):
    data, _ = load(paths)
    ok = True
    for workload, metrics in sorted(data.items()):
        print(f"{workload}:")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = METRICS[name]["bound"]
            flag = "" if name == "setup_s" or share <= bound / 3 else (
                "  WIDE (> bound/3)" if share <= bound else "  OVER BOUND")
            ok &= flag != "  OVER BOUND"
            print(f"  {name:24s} n={len(values):2d} median={med:12.6g} "
                  f"spread={share:7.2%} bound={bound:.0%}{flag}")
    return ok


def diff(base_path, new_path):
    base, base_fp = load([base_path])
    new, new_fp = load([new_path])
    if base_fp != new_fp:
        sys.exit("compare: BASE and NEW were measured on different hosts or "
                 "builds; their results are not comparable")
    ok = True
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}:")
        for name, spec in METRICS.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            worse = (n - b) / abs(b) if spec["better"] == "lower" else (
                (b - n) / abs(b))
            verdict = "worse than bound" if worse > spec["bound"] else "ok"
            ok &= verdict == "ok"
            print(f"  {name:24s} base={b:12.6g} new={n:12.6g} "
                  f"change={-worse:+8.2%} (better>0)  {verdict}")
    return ok


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        return 0 if spread(argv[1:]) else 1
    if len(argv) == 3 and argv[0] == "diff":
        return 0 if diff(argv[1], argv[2]) else 1
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
