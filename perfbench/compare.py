#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

Usage:

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by perfbench/run.py
(<workload>-s<seed>-t0.json, e.g. a copy of .bench_build/results after ten
runs with different seeds).  For every workload x end-to-end metric in
BENCHMARK.json it prints each side's median and quartiles and a verdict:

  better        the change's median beats the base's by more than the base's
                quartile spread, and the change wins at least 9 in 10 of all
                (base, change) run pairs
  within bound  not worse than the base's median by more than the bound
  unresolved    the run-to-run spread is wider than the bound, so "within
                bound" cannot be shown (unless every change run beats every
                base run, which counts as better)
  worse         worse than the base's median by more than the bound

It also flags seeds run on both sides whose decision digests differ.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, change, better, bound):
    """Classify `change` against `base` (lists of one metric's run values)."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3 = spread(base)
    c_med, c_q1, c_q3 = spread(change)
    scale = abs(b_med) if b_med else 1.0
    # Positive = the change is worse, as a share of the base median.
    worse_by = sign * (c_med - b_med) / scale
    run_spread = max((b_q3 - b_q1) / scale, (c_q3 - c_q1) / scale)
    wins = sum(1 for b in base for c in change if sign * (c - b) < 0)
    all_better = wins == len(base) * len(change)
    if all_better and worse_by < 0:
        return "better"
    if run_spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by * scale > (b_q3 - b_q1) and wins >= 0.9 * len(base) * len(change):
        return "better"
    return "within bound"


def load_set(directory):
    """{workload: {seed: result}} for the untraced results in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*-t0.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0:
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def compare(base_dir, change_dir, spec):
    base, change = load_set(base_dir), load_set(change_dir)
    rows = []
    notes = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get(workload, {}), change.get(workload, {})
        if not a or not b:
            notes.append(f"{workload}: missing on one side, skipped")
            continue
        for seed in sorted(set(a) & set(b)):
            if a[seed]["digest"] != b[seed]["digest"]:
                notes.append(f"{workload} seed {seed}: decision digest differs")
        for m in spec["end_to_end"]:
            av = [r["metrics"][m["name"]]["value"] for r in a.values()]
            bv = [r["metrics"][m["name"]]["value"] for r in b.values()]
            rows.append((workload, m["name"], spread(av), spread(bv), len(av), len(bv),
                         m["bound"], verdict(av, bv, m["better"], m["bound"])))
    return rows, notes


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    rows, notes = compare(argv[1], argv[2], spec)
    header = ("workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
              "n", "bound", "verdict")
    print("{:<14} {:<16} {:>36} {:>36} {:>6} {:>6}  {}".format(*header))
    for workload, name, (am, a1, a3), (bm, b1, b3), na, nb, bound, v in rows:
        print("{:<14} {:<16} {:>36} {:>36} {:>6} {:>6}  {}".format(
            workload, name, f"{am:.6g} [{a1:.6g}, {a3:.6g}]",
            f"{bm:.6g} [{b1:.6g}, {b3:.6g}]", f"{na}/{nb}", f"{bound:g}", v))
    for note in notes:
        print("note:", note)
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
