"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records appended by ``perfbench/run.py --out``
(several seeds per workload).  For every workload the end-to-end
metrics (``--trace 0`` runs) are printed with each side's median,
quartiles and run count, and the ratio of the new median to the base
median.  Then the per-layer metrics (``--trace 1`` runs) are listed
sorted by the size of their relative change, so the layer that moved
comes first.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.stats import quartiles  # noqa: E402

_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """``{(workload, trace): {metric: [value per run]}}`` from a JSONL file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            for name, value in record["metrics"].items():
                if value is not None:
                    out[key][name].append(float(value))
    return out


def _directions() -> dict[str, tuple[str, str]]:
    """``{metric: (unit, better)}`` from ``BENCHMARK.json`` when present."""
    try:
        with open(_BENCHMARK) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {
        m["name"]: (m["unit"], m["better"])
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def relative_change(base: float, new: float) -> float:
    """``(new - base) / |base|``; ``inf`` when only ``new`` is non-zero."""
    if base == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - base) / abs(base)


def end_to_end_rows(base, new, directions) -> list[str]:
    rows = []
    for workload in sorted({w for w, t in base if t == 0} | {w for w, t in new if t == 0}):
        b, n = base.get((workload, 0), {}), new.get((workload, 0), {})
        rows.append(f"{workload}")
        for name in sorted(set(b) | set(n)):
            unit, better = directions.get(name, ("", "lower"))
            cells = [f"  {name:16s} {unit:8s} ({better} is better)"]
            stats = {}
            for side, values in (("base", b.get(name)), ("new", n.get(name))):
                if values:
                    q1, med, q3 = quartiles(values)
                    stats[side] = med
                    cells.append(
                        f"{side} {med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"
                    )
                else:
                    cells.append(f"{side} -")
            if "base" in stats and "new" in stats and stats["base"]:
                cells.append(
                    f"new/base = {stats['new'] / stats['base']:.3f} "
                    f"(base = {stats['base']:.5g} {unit})"
                )
            rows.append("  ".join(cells))
    return rows


def per_layer_rows(base, new) -> list[str]:
    rows = []
    for workload in sorted({w for w, t in base if t == 1} | {w for w, t in new if t == 1}):
        b, n = base.get((workload, 1), {}), new.get((workload, 1), {})
        changes = []
        for name in set(b) & set(n):
            bm, nm = quartiles(b[name])[1], quartiles(n[name])[1]
            changes.append((relative_change(bm, nm), name, bm, nm))
        changes.sort(key=lambda c: (-abs(c[0]), c[1]))
        rows.append(f"{workload} (per-layer, largest change first)")
        for change, name, bm, nm in changes:
            rows.append(
                f"  {name:30s} base {bm:.5g} -> new {nm:.5g}  ({change:+.1%})"
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    directions = _directions()
    print(f"base: {argv[0]}\nnew:  {argv[1]}\n")
    print("End-to-end (median [q1, q3] over runs)")
    for row in end_to_end_rows(base, new, directions):
        print(row)
    print()
    for row in per_layer_rows(base, new):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
