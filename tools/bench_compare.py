#!/usr/bin/env python3
"""Compare two bench_table1 --json files (ROADMAP perf-trajectory item).

    tools/bench_compare.py BASELINE.json FRESH.json [--max-slowdown-pct N]

Checks, in order:

  1. Comparability: both files must be the same bench with the same
     `fast` budget and `seconds_kind` (rows of another kind time
     different things; threads may differ — rows are thread-
     invariant by the determinism contract, which is exactly what this
     script verifies).
  2. Row identity: rows are paired by `circuit`, not by position, and
     every row field except the wall-clock `seconds` must match the
     baseline EXACTLY (bit-for-bit after the 17-significant-digit JSON
     round trip). Any drift fails the script: a changed field, a circuit
     listed twice in one file, a circuit that is not in the baseline, or
     a baseline circuit missing from a full run. A subset run (a file
     with an `only` field, written by `bench_table1 --only`) is checked
     on the circuits it holds; optimizer results must never change by
     accident.
  3. Optional wall clock: with --max-slowdown-pct N, fail when the fresh
     time exceeds the baseline by more than N percent: `total_seconds`
     for full runs, the summed row `seconds` of the checked circuits for
     subset runs. Off by default because wall clock is only comparable on
     the same host; CI uses a generous bound to catch order-of-magnitude
     regressions, not scheduler noise.

Exit code 0 = comparable + identical rows (+ acceptable wall clock);
1 = drift or regression; 2 = usage / unreadable input.
"""

import argparse
import json
import sys

TIMING_ROW_FIELDS = {"seconds"}
# "coverage" is only emitted by --coverage runs, and "tier" only by
# non-default --tier runs, so legacy baselines (no field) and default
# runs stay mutually comparable, while a graded run never diffs against
# an ungraded one and a BIG-tier run never diffs against table1.
COMPARABILITY_FIELDS = ("bench", "tier", "fast", "seconds_kind", "coverage")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def rows_by_circuit(doc, label):
    """Returns ({circuit: row}, drift count); a repeated circuit is drift."""
    rows = {}
    drift = 0
    for i, row in enumerate(doc.get("rows", [])):
        name = row.get("circuit", f"row {i}")
        if name in rows:
            print(f"ROW DRIFT: {name}: listed twice in the {label} file",
                  file=sys.stderr)
            drift += 1
            continue
        rows[name] = row
    return rows, drift


def main():
    parser = argparse.ArgumentParser(
        description="Diff the rows of two bench_table1 --json files."
    )
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--max-slowdown-pct",
        type=float,
        default=None,
        metavar="N",
        help="fail when the fresh time (total_seconds, or the checked rows' "
        "seconds for a subset run) exceeds baseline by more than N%% "
        "(default: timing not enforced)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    for field in COMPARABILITY_FIELDS:
        if base.get(field) != fresh.get(field):
            print(
                f"bench_compare: not comparable: {field!r} differs "
                f"({base.get(field)!r} vs {fresh.get(field)!r})",
                file=sys.stderr,
            )
            return 1

    base_rows, drift = rows_by_circuit(base, "baseline")
    fresh_rows, fresh_dups = rows_by_circuit(fresh, "fresh")
    drift += fresh_dups
    subset = "only" in base or "only" in fresh
    if subset:
        # Check the circuits the subset side(s) hold; the other side may
        # hold more.
        circuits = set()
        if "only" in base:
            circuits |= set(base_rows)
        if "only" in fresh:
            circuits |= set(fresh_rows)
    else:
        circuits = set(base_rows) | set(fresh_rows)

    checked = []
    for name in sorted(circuits):
        if name not in base_rows:
            print(f"ROW DRIFT: {name}: not in the baseline", file=sys.stderr)
            drift += 1
            continue
        if name not in fresh_rows:
            print(f"ROW DRIFT: {name}: missing from the fresh run",
                  file=sys.stderr)
            drift += 1
            continue
        checked.append(name)
        a, b = base_rows[name], fresh_rows[name]
        for key in sorted(set(a) | set(b)):
            if key in TIMING_ROW_FIELDS:
                continue
            if key not in a or key not in b or a[key] != b[key]:
                print(
                    f"ROW DRIFT: {name}.{key}: "
                    f"{a.get(key, '<missing>')!r} -> {b.get(key, '<missing>')!r}",
                    file=sys.stderr,
                )
                drift += 1
    if subset and not circuits:
        print("ROW DRIFT: the subset run holds no rows", file=sys.stderr)
        drift += 1
    if drift:
        print(f"bench_compare: FAILED ({drift} drifting fields)", file=sys.stderr)
        return 1

    if subset:
        base_s = sum(base_rows[name].get("seconds", 0.0) for name in checked)
        fresh_s = sum(fresh_rows[name].get("seconds", 0.0) for name in checked)
        timing = "row seconds"
    else:
        base_s = base.get("total_seconds", 0.0)
        fresh_s = fresh.get("total_seconds", 0.0)
        timing = "total_seconds"
    ratio = fresh_s / base_s if base_s > 0 else float("inf")
    print(
        f"rows identical ({len(checked)} circuits"
        f"{', subset run' if subset else ''}); {timing} "
        f"{base_s:.3f} -> {fresh_s:.3f} ({ratio:.2f}x baseline)"
    )
    if args.max_slowdown_pct is not None and base_s > 0:
        limit = 1.0 + args.max_slowdown_pct / 100.0
        if ratio > limit:
            print(
                f"bench_compare: FAILED: {ratio:.2f}x exceeds the "
                f"{limit:.2f}x slowdown bound",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
