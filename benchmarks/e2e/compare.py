"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent (or the first acceptance set), B the change (or the
second).  For every workload x end-to-end metric the table shows both
medians, B's change in the *worse* direction as a share of A's median,
the bound from ``BENCHMARK.json`` and each side's spread (distance
between the quartiles over its median, as the driver computes it).

* ``breach``: B's median is worse than A's by more than the bound;
* ``unresolved``: the spread of either side exceeds the bound, unless
  every run of B reads better than every run of A;
* ``ok`` otherwise.

Exits non-zero on any breach.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per untraced run."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (0 with under 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The row's verdict and B's worsening as a share of A's median."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    if worse > bound:
        return "breach", worse
    all_better = (max(b) < min(a)) if better == "lower" else (
        min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", worse
    return "ok", worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':14s} {'metric':26s} {'A median':>12s} "
          f"{'B median':>12s} {'worse':>8s} {'bound':>6s} "
          f"{'spread A':>8s} {'spread B':>8s}  verdict")
    breaches = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for m in BENCHMARK["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            word, worse = verdict(a[key], b[key], m["better"], m["bound"])
            breaches += word == "breach"
            print(f"{workload:14s} {m['name']:26s} "
                  f"{statistics.median(a[key]):12.5g} "
                  f"{statistics.median(b[key]):12.5g} {worse:+8.3f} "
                  f"{m['bound']:6.2f} {spread(a[key]):8.3f} "
                  f"{spread(b[key]):8.3f}  {word}"
                  f"  (n={len(a[key])},{len(b[key])})")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
