"""Compare two benchmark result sets: ``python3 perf/compare.py A.json B.json``.

A result set is what ``perf/run.py --repeat R --out FILE`` writes: R
measurements of every workload.  For every end-to-end metric and
workload the script compares B's median with A's, using the metric's
``bound`` and ``better`` direction from ``BENCHMARK.json``:

- ``worse`` / ``better``: B's median is worse / better than A's by more
  than the bound (a share of A's median; for ``setup_s`` at least
  ``ABS_FLOOR``);
- ``unresolved``: the spread between either side's runs (the distance
  between their quartiles) exceeds that same allowance, so the two cannot
  be told apart;
- ``agree`` otherwise.

``fail_frac`` (failed over attempted checks) is compared with an
absolute bound of 0.  Prints one row per metric × workload and exits 1
if any row is not ``agree``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


#: Absolute floors under a metric's relative bound, in the metric's unit:
#: a 5 % change of a 0.6 s set-up is within the noise of process start.
ABS_FLOOR = {"setup_s": 0.05}


def verdict(a: List[float], b: List[float], bound: float, better: str,
            floor: float = 0.0) -> Tuple[str, float]:
    """(verdict, signed change of B's median relative to A's).

    The allowed change is ``bound`` times A's median, or ``floor`` if that
    is larger; it applies to the medians' difference and to the quartile
    distance of each side.
    """
    ma, mb = stats.median(a), stats.median(b)
    change = (mb - ma) / ma if ma else 0.0
    allowed = max(bound * abs(ma), floor)
    if max(stats.iqr(a), stats.iqr(b)) > allowed:
        return "unresolved", change
    worse = mb - ma if better == "lower" else ma - mb
    if worse > allowed:
        return "worse", change
    if worse < -allowed:
        return "better", change
    return "agree", change


def fail_frac(docs: List[Dict[str, Any]]) -> float:
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any],
            specs: List[Dict[str, Any]]) -> List[Tuple[str, str, str, str]]:
    """Rows of (workload, metric, verdict, detail)."""
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        da = a["workloads"].get(workload)
        db = b["workloads"].get(workload)
        if not da or not db:
            rows.append((workload, "*", "unresolved", "missing on one side"))
            continue
        for spec in specs:
            name = spec["name"]
            # A run that could not measure a metric (its failed check is
            # in fail_frac) adds no value to it.
            va = [d["metrics"][name]["value"] for d in da if name in d["metrics"]]
            vb = [d["metrics"][name]["value"] for d in db if name in d["metrics"]]
            if not va or not vb:
                rows.append((workload, name, "unresolved", "not measured on one side"))
                continue
            v, change = verdict(va, vb, spec["bound"], spec["better"],
                                ABS_FLOOR.get(name, 0.0))
            rows.append((
                workload, name, v,
                f"A {stats.median(va):.6g} (spread {stats.quartile_spread(va):.3f}, "
                f"n={len(va)})  B {stats.median(vb):.6g} "
                f"(spread {stats.quartile_spread(vb):.3f}, n={len(vb)})  "
                f"change {change:+.2%}  bound {spec['bound']:.0%}",
            ))
        fa, fb = fail_frac(da), fail_frac(db)
        v = "agree" if fb == fa else ("worse" if fb > fa else "better")
        rows.append((workload, "fail_frac", v, f"A {fa:.6g}  B {fb:.6g}  bound 0"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline result set")
    ap.add_argument("b", help="result set compared against the baseline")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as f:
        specs = json.load(f)["end_to_end"]
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    rows = compare(a, b, specs)
    for workload, name, v, detail in rows:
        print(f"{workload:13s} {name:17s} {v:10s} {detail}")
    disagree = [r for r in rows if r[2] != "agree"]
    print(f"{len(rows) - len(disagree)}/{len(rows)} rows agree")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
