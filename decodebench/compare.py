"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 decodebench/run.py --workload W --seed S --seconds 20 --trace T --out base/
    ...   (at least ten seeds per workload, on each side)
    python3 decodebench/compare.py base/ new/

For every workload and metric it prints each side's median and quartiles
and a verdict.  End-to-end metrics are judged against their bound in
BENCHMARK.json: a change worse than the bound is REGRESSED; a metric whose
run-to-run spread (quartile distance over median) is wider than its bound
is unresolved, unless every new run beats every base run.  Per-layer
metrics have no bound: they are marked "moved" when the medians differ by
more than the wider of the two spreads, which is how a change shows which
layer it moved.  Exits 1 if any metric regressed.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, metric): [values]} from the run records in ``directory``."""
    out = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "result" not in record:
            continue                      # span files
        for name, metric in record["result"]["metrics"].items():
            out[(record["workload"], name)].append(metric["value"])
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better: str, bound: float | None) -> tuple[str, float]:
    """Return (verdict, change as a share of the base median; + is better)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    if bm:
        change = sign * (nm - bm) / abs(bm)
    else:
        change = 0.0 if nm == bm else sign * math.copysign(math.inf, nm - bm)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if bound is None:
        return ("moved" if abs(change) > spread else "-"), change
    if spread > bound and not all_better:
        return "unresolved", change
    if change < -bound:
        return "REGRESSED", change
    if change > spread or all_better:
        return "improved", change
    return "within bound", change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressed = False
    print(f"{'workload':22} {'metric':42} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}  verdict")
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        for name, m in metrics.items():
            b, n = base.get((workload, name)), new.get((workload, name))
            if not b or not n:
                continue
            v, change = verdict(b, n, m["better"], m.get("bound"))
            regressed |= v == "REGRESSED"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:22} {name:42} {fmt(quartiles(b)):>36} "
                  f"{fmt(quartiles(n)):>36} {100 * change:+7.1f}%  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
