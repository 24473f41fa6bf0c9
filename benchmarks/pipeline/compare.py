"""``compare BASE.json NEW.json``: per (workload, metric), both sides'
median and quartiles and a verdict under ``BENCHMARK.json``'s bounds.

End-to-end metrics get one of

* ``improved`` — the new run beats the base run in at least nine tenths
  of the pairs (the i-th run of each file), and the medians differ by
  more than the base's quartile spread;
* ``unresolved`` — a side's quartile spread exceeds the bound;
* ``regressed`` — the new median is worse by more than the bound;
* ``within bound`` — otherwise.

Pairs only control for a machine that speeds up or slows down over
time when the two files' runs were made alternately, one base run then
one new run.  Deterministic counters must repeat exactly (``exact``,
else ``changed``).  The exit status is 1 on any regression or changed
counter.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from collections import defaultdict

__all__ = ["DETERMINISTIC", "main", "verdict"]

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

DETERMINISTIC = ("execute.rows", "execute.function_calls", "execute.batches",
                 "translate.steps", "rewrite.steps")


def _load(path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in json.loads(pathlib.Path(path).read_text())["records"]:
        for name, metric in record["metrics"].items():
            values[record["workload"], name].append(metric["value"])
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    gain = sign * (base_med - new_med)
    q1, _, q3 = _quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(sign * (b - n) > 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    if -gain / base_med > bound:
        return "regressed"
    return "within bound"


def main(args) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    base, new = _load(args.base), _load(args.new)
    status = 0

    def fmt(values: list[float]) -> str:
        q1, med, q3 = _quartiles(values)
        return f"{med:>12.6g} [{q1:.6g}, {q3:.6g}]"

    print(f"{'workload':<22} {'metric':<30} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name in gated:
            m = gated[name]
            result = verdict(base[key], new[key], m["better"], m["bound"])
            status |= result == "regressed"
        elif name in DETERMINISTIC:
            result = "exact" if len(set(base[key] + new[key])) == 1 else "changed"
            status |= result == "changed"
        else:
            result = "-"
        print(f"{workload:<22} {name:<30} {fmt(base[key]):>36} "
              f"{fmt(new[key]):>36}  {result}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:<22} {key[1]:<30} only in "
              f"{'base' if key in base else 'new'}")
    return status
