#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must print
   every metric BENCHMARK.json names, with its unit, and pass its gate.
2. The correctness gate keys rows by circuit: reordered rows pass, and a
   reference row corrupted by one ulp (or missing) is reported.
3. End to end: a tiny table1 run against a corrupted reference reports a
   failed row.
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def tiny_runs():
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "2", "--trace",
                 str(trace), "--size", "tiny"],
                capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: rows correct")
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{label}: finite values")


def gate_unit():
    reference = run.load_reference(run.SWEEPS["table1"]["full"][2])
    rows = [dict(r, seconds=1.0) for r in reference.values()]
    random.Random(1).shuffle(rows)
    check(run.gate(rows, reference) == [], "gate: reordered rows pass")
    subset = rows[:2]
    check(run.gate(subset, reference) == [],
          "gate: a subset of circuits passes (no positional pairing)")
    corrupt = {c: dict(r) for c, r in reference.items()}
    victim = rows[0]["circuit"]
    corrupt[victim]["sensor_area_standard"] = math.nextafter(
        corrupt[victim]["sensor_area_standard"], math.inf)
    bad = run.gate(rows, corrupt)
    check(len(bad) == 1 and victim in bad[0],
          "gate: a one-ulp corrupted reference row is reported")
    del corrupt[victim]
    check(len(run.gate(rows, corrupt)) == 1,
          "gate: a row without a reference is reported")


def gate_end_to_end():
    circuits, fast, path = run.SWEEPS["table1"]["tiny"]
    corrupt_path = run.OUT / "selftest-corrupt-reference.json"
    run.OUT.mkdir(exist_ok=True)
    lines = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            doc = json.loads(line)
            for row in doc["rows"]:
                if row["circuit"] == circuits[0]:
                    row["cost_evolution"] *= 1.0 + 1e-12
            lines.append(json.dumps(doc))
    corrupt_path.write_text("\n".join(lines) + "\n")
    run.SWEEPS["table1"]["tiny"] = (circuits, fast, corrupt_path)
    try:
        bins = run.build()
        _, attempted, failed, details = run.sweep_untraced(
            bins, "table1", "tiny", 7, 1)
    finally:
        run.SWEEPS["table1"]["tiny"] = (circuits, fast, path)
        corrupt_path.unlink()
    check(failed >= 1 and failed <= attempted,
          f"end to end: corrupted reference reported ({details['mismatches']})")


def main():
    gate_unit()
    gate_end_to_end()
    tiny_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
