"""Diff two sets of benchmark results, workload by workload, metric by metric.

``BASE`` and ``NEW`` are each a result file written by ``run.py`` or a
directory of them (several seeds of the same code).  For every workload in
both, every metric gets its median on each side and the spread between runs
(the distance between the first and third quartiles).  Flags:

* ``WORSE``: an end-to-end metric got worse by more than its bound in
  ``BENCHMARK.json``;
* ``MOVED``: a per-layer self time (traced runs) changed by more than the
  larger of the two sides' spreads.  A side with one run has no spread, so
  nothing is flagged against it.
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path: str) -> dict[str, list[dict]]:
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    by_workload: dict[str, list[dict]] = {}
    for file_path in paths:
        with open(file_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def _summary(values: list[float]) -> tuple[float, float | None]:
    """Median and inter-quartile spread (``None`` with fewer than 2 runs)."""
    if len(values) < 2:
        return values[0], None
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), third - first


def _bounds() -> dict[str, tuple[str, float]]:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _metric_rows(base: list[dict], new: list[dict]):
    """(group, name, unit, base values, new values) for every shared metric."""
    for group in ("end_to_end", "workload_metrics", "per_layer"):
        names = [name for name in base[0].get(group, {})
                 if all(name in r.get(group, {}) for r in base + new)]
        for name in names:
            yield (group, name, base[0][group][name]["unit"],
                   [r[group][name]["value"] for r in base],
                   [r[group][name]["value"] for r in new])
    spans = [name for name in base[0].get("spans", {})
             if all(name in r.get("spans", {}) for r in base + new)]
    for name in spans:
        yield ("self_time", name, "ms",
               [r["spans"][name]["self_ms"] for r in base],
               [r["spans"][name]["self_ms"] for r in new])


def _format(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(base_path: str, new_path: str) -> int:
    base, new = _load(base_path), _load(new_path)
    bounds = _bounds()
    print(f"{'workload':<16} {'group':<16} {'metric':<40} {'unit':<6} "
          f"{'base':>12} {'new':>12} {'change':>8} {'spread':>12}  flag")
    for workload in sorted(set(base) & set(new)):
        for group, name, unit, before, after in _metric_rows(base[workload],
                                                             new[workload]):
            base_median, base_spread = _summary(before)
            new_median, new_spread = _summary(after)
            change = ((new_median - base_median) / abs(base_median)
                      if base_median else 0.0)
            spreads = [s for s in (base_spread, new_spread) if s is not None]
            spread = max(spreads) if len(spreads) == 2 else None
            flag = ""
            if group == "end_to_end" and name in bounds:
                better, bound = bounds[name]
                worse = -change if better == "higher" else change
                flag = "WORSE" if worse > bound else ""
            elif group == "self_time" and spread is not None:
                flag = "MOVED" if abs(new_median - base_median) > spread else ""
            print(f"{workload:<16} {group:<16} {name:<40} {unit:<6} "
                  f"{_format(base_median):>12} {_format(new_median):>12} "
                  f"{change:>+8.1%} {_format(spread):>12}  {flag}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'BASE' if workload in base else 'NEW'}")
    return 0
