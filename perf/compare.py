"""A/B comparison of two result sets — the tool later perf PRs use.

::

    python perf/compare.py BASE.json CHANGE.json     # two result sets
    python perf/compare.py --runs 3                   # same tree, twice

A result set is what ``perf/run.py --out FILE`` writes (several files per
side may be given, comma-separated, e.g. one per seed).  ``--runs N``
produces both sides itself from the current tree — ``N`` seeds each,
alternating which side runs first — which is how the benchmark's own
agreement criterion is checked: the same commit must agree with itself.

One row per (workload, end-to-end metric): both medians and quartiles,
the ratio change/base **with its base**, the metric's bound, and a
verdict:

``ok``          change's median is not worse than base's by more than the bound
``regressed``   it is worse by more than the bound (exit status 1)
``unresolved``  a side's spread (IQR / median) is wider than the bound, so
                the runs cannot tell — unless every run of the change
                beats every run of the base, which counts as ``ok``

Simulated metrics carry no bound: for each seed present on both sides the
values must be bit-identical, else the row reads ``changed`` (exit status
1) — the change altered the *model*, not the simulator's speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

_HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
    sys.path.insert(0, str(_HERE.parent))

from perf import metrics as catalogue  # noqa: E402
from perf import run as harness  # noqa: E402

#: side -> workload -> metric -> [(seed, value), ...]
Samples = Dict[str, Dict[str, List[Tuple[int, float]]]]


def load(paths: List[str]) -> Samples:
    """Untraced runs of one or more result-set files, grouped."""
    out: Samples = {}
    for path in paths:
        for record in json.loads(Path(path).read_text())["runs"]:
            if record.get("trace") or "extra" not in record:
                continue
            values = record["extra"]["values"]
            per_metric = out.setdefault(record["workload"], {})
            per_metric.setdefault("fingerprint", []).append(
                (record["seed"], record["extra"]["fingerprint"])
            )
            for metric in catalogue.END_TO_END:
                if metric.name in values and metric.applies_to(record["workload"]):
                    per_metric.setdefault(metric.name, []).append(
                        (record["seed"], values[metric.name])
                    )
    return out


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _worse_by(metric: catalogue.Metric, base: float, change: float) -> float:
    """Share of the base median by which ``change`` is worse (< 0: better)."""
    delta = (change - base) / base
    return delta if metric.better == "lower" else -delta


def judge_host(metric: catalogue.Metric, base: List[float], change: List[float]) -> str:
    b1, bm, b3 = _quartiles(base)
    c1, cm, c3 = _quartiles(change)
    wide = (b3 - b1) / bm > metric.bound or (c3 - c1) / cm > metric.bound
    if wide:
        if metric.better == "lower":
            clear_win = max(change) < min(base)
        else:
            clear_win = min(change) > max(base)
        return "ok" if clear_win else "unresolved"
    return "regressed" if _worse_by(metric, bm, cm) > metric.bound else "ok"


def judge_exact(base: List[Tuple[int, object]], change: List[Tuple[int, object]]) -> str:
    theirs = dict(change)
    shared = [(seed, value) for seed, value in base if seed in theirs]
    if not shared:
        return "no-shared-seed"
    return "ok" if all(theirs[seed] == value for seed, value in shared) else "changed"


def compare(base: Samples, change: Samples) -> Tuple[List[str], bool]:
    """Render the table; returns ``(lines, failed)``."""
    lines = [
        f"{'workload':<18}{'metric':<18}{'base med [q1,q3]':>34}"
        f"{'change med [q1,q3]':>34}{'change/base':>13}{'bound':>7}  verdict"
    ]
    failed = False
    for workload in catalogue.WORKLOADS:
        if workload not in base or workload not in change:
            continue
        rows = [(m.name, m) for m in catalogue.END_TO_END] + [("fingerprint", None)]
        for name, metric in rows:
            b = base[workload].get(name)
            c = change[workload].get(name)
            if not b or not c:
                continue
            if metric is None or metric.kind == catalogue.SIM:
                verdict = judge_exact(b, c)
                shown_b = b[0][1] if metric is not None else str(b[0][1])[:12]
                shown_c = c[0][1] if metric is not None else str(c[0][1])[:12]
                lines.append(
                    f"{workload:<18}{name:<18}{shown_b!s:>34}{shown_c!s:>34}"
                    f"{'':>13}{'exact':>7}  {verdict}"
                )
                failed |= verdict == "changed"
                continue
            bv = [v for _, v in b]
            cv = [v for _, v in c]
            b1, bm, b3 = _quartiles(bv)
            c1, cm, c3 = _quartiles(cv)
            verdict = judge_host(metric, bv, cv)
            lines.append(
                f"{workload:<18}{name:<18}"
                f"{f'{bm:.5g} [{b1:.5g},{b3:.5g}]':>34}"
                f"{f'{cm:.5g} [{c1:.5g},{c3:.5g}]':>34}"
                f"{f'{cm / bm:.3f}x base':>13}{metric.bound:>7.2f}  {verdict}"
            )
            failed |= verdict == "regressed"
    return lines, failed


def produce(runs: int, seed: int, seconds: float, size: str) -> Tuple[List[str], List[str]]:
    """Run the current tree ``runs`` times per side, alternating which
    side goes first; returns the two sides' result-set files."""
    sides: Tuple[List[str], List[str]] = ([], [])
    for i in range(runs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            out = harness.OUT_DIR / f"compare_{'ab'[side]}_{seed + i}.json"
            harness.main(
                ["--seed", str(seed + i), "--seconds", str(seconds),
                 "--size", size, "--out", str(out)]
            )
            sides[side].append(str(out))
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="result-set file(s), comma-separated")
    parser.add_argument("change", nargs="?", help="result-set file(s), comma-separated")
    parser.add_argument("--runs", type=int,
                        help="produce both sides from this tree, N seeds each")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=harness.DEFAULT_SECONDS)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.runs:
        base_files, change_files = produce(args.runs, args.seed, args.seconds, args.size)
    elif args.base and args.change:
        base_files, change_files = args.base.split(","), args.change.split(",")
    else:
        parser.error("give BASE and CHANGE result sets, or --runs N")
    lines, failed = compare(load(base_files), load(change_files))
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
