"""``compare A.json B.json``: did B get worse than A, per the suite's bounds?

One row per (workload, end-to-end metric): both medians and quartiles,
the change in the worse direction as a share of A's median, the bound,
and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       B is worse by more than the bound, beyond the spread;
``unresolved``  either side's spread (q3 - q1, as a share of its median)
                is wider than the bound, so a change of that size cannot
                be told from noise — unless every B value beats every A
                value, which is ``ok`` whatever the spread.

``failed_fraction`` is compared exactly: any increase is ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from . import spec


def _spread(q: Dict[str, Any]) -> float:
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec.END_TO_END:
            qa, qb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            sign = 1.0 if m.better == "lower" else -1.0
            worse_by = sign * (qb["median"] - qa["median"]) / abs(qa["median"])
            bound = m.bound
            b_beats_a = (
                max(qb["values"]) < min(qa["values"]) if m.better == "lower"
                else min(qb["values"]) > max(qa["values"])
            )
            if b_beats_a or (
                worse_by <= bound and max(_spread(qa), _spread(qb)) <= bound
            ):
                verdict = "ok"
            elif max(_spread(qa), _spread(qb)) > bound:
                verdict = "unresolved"
            else:
                verdict = "worse"
            rows.append({
                "workload": name, "metric": m.name, "unit": m.unit,
                "a": qa, "b": qb, "worse_by": worse_by, "bound": bound,
                "verdict": verdict,
            })
        fa, fb = wa["failed_fraction"], wb["failed_fraction"]
        rows.append({
            "workload": name, "metric": "failed_fraction", "unit": "ratio",
            "a": {"median": fa, "q1": fa, "q3": fa},
            "b": {"median": fb, "q1": fb, "q3": fb},
            "worse_by": fb - fa, "bound": 0.0,
            "verdict": "worse" if fb > fa else "ok",
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<26}{'metric':<16}{'A median [q1, q3]':<36}"
        f"{'B median [q1, q3]':<36}{'worse by':>9}{'bound':>7}  verdict"
    ]
    for r in rows:
        cells = [
            f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]"
            for q in (r["a"], r["b"])
        ]
        lines.append(
            f"{r['workload']:<26}{r['metric']:<16}{cells[0]:<36}{cells[1]:<36}"
            f"{r['worse_by']:>+9.1%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0
