"""Every checked-in ``BENCH_*.json`` re-derives from its own samples.

A ``BENCH_<n>.json`` at the repo root records one change's benchmark:
the result sets ``perf/run.py --seed S --out F`` wrote for each side
(``parent``, ``change`` and the ``anchor`` re-anchor commit, and any
side a further comparison reads), the box and
the commands, and the verdict rows of each comparison.  These tests load
every such file, check its shape, and recompute every row from the stored
samples with ``perf.compare``'s own functions — ``load``, ``judge_host``,
``judge_exact`` and the ``compare`` table — so a hand-edited number, a
dropped row or a verdict that does not follow from the runs fails here.
A file that claims a gain carries a ``claim`` block, the pairwise judgement
of the claimed metric (wins out of pairs, medians, the parent's
interquartile range), and it too is recomputed from the result sets.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
from pathlib import Path

import pytest

from perf import compare
from perf import metrics as catalogue

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change", "anchor")


def _samples(doc, side: str, tmp_path: Path):
    """The side's untraced runs, grouped by ``perf.compare.load``."""
    paths = []
    for i, result_set in enumerate(doc["sides"][side]["result_sets"]):
        path = tmp_path / f"{side}_{i}.json"
        path.write_text(json.dumps(result_set))
        paths.append(str(path))
    return compare.load(paths)


def _expected_rows(base, change):
    metrics = {m.name: m for m in catalogue.END_TO_END}
    for workload in catalogue.WORKLOADS:
        if workload not in base or workload not in change:
            continue
        for name in [*metrics, "fingerprint"]:
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            metric = metrics.get(name)
            row = {"workload": workload, "metric": name}
            if metric is None or metric.kind == catalogue.SIM:
                row["verdict"] = compare.judge_exact(b, c)
            else:
                bv, cv = [v for _, v in b], [v for _, v in c]
                bm, cm = statistics.median(bv), statistics.median(cv)
                row.update(base_median=bm, change_median=cm, ratio=cm / bm)
                row.update(bound=metric.bound, verdict=compare.judge_host(metric, bv, cv))
            yield row


def derive_claim(doc, workload: str, metric: str):
    """The judgement of a claimed gain in ``metric`` on ``workload``: pair
    ``i`` is the parent's and the change's ``i``-th result set (same seed).
    It is met when the change wins at least nine in ten pairs and the
    medians differ by more than the parent's interquartile range."""
    better = {m.name: m.better for m in catalogue.END_TO_END}[metric]

    def value(result_set):
        (run,) = [r for r in result_set["runs"] if r["workload"] == workload]
        return run["extra"]["values"][metric]

    pairs = []
    for base, change in zip(*(doc["sides"][s]["result_sets"] for s in ("parent", "change"))):
        assert base["seed"] == change["seed"], "result sets are not paired by seed"
        pairs.append([base["seed"], value(base), value(change)])
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [p for _, p, _ in pairs], [c for _, _, c in pairs]
    q1, parent_median, q3 = compare._quartiles(parent)
    change_median = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for _, p, c in pairs)
    by_seed = {
        str(seed): statistics.median([c for s, _, c in pairs if s == seed])
        / statistics.median([p for s, p, _ in pairs if s == seed])
        for seed in sorted({s for s, _, _ in pairs})
    }
    return {
        "workload": workload,
        "metric": metric,
        "pairs": pairs,
        "wins": wins,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "change_over_parent_by_seed": by_seed,
        "met": wins >= math.ceil(0.9 * len(pairs))
        and sign * (change_median - parent_median) > q3 - q1,
    }


def problems(doc, tmp_path: Path):
    """Every way ``doc`` fails to re-derive from its samples."""
    found = []
    for key in ("schema", "title", "claims_gain", "box", "commands", "sides",
                "comparisons"):
        if key not in doc:
            found.append(f"missing key {key!r}")
    if found:
        return found
    for key in ("cores", "ram_gib", "python"):
        if key not in doc["box"]:
            found.append(f"box names no {key!r}")
    samples = {}
    # The three sides every file has, then any extra one a comparison of
    # its own reads (say, the change without one of its parts).
    for side in [*SIDES, *(s for s in doc["sides"] if s not in SIDES)]:
        entry = doc["sides"].get(side)
        if not entry or not entry.get("commit") or not entry.get("result_sets"):
            found.append(f"side {side!r} lacks a commit or result sets")
            continue
        for result_set in entry["result_sets"]:
            for run in result_set["runs"]:
                if run.get("exit") != 0 or not run.get("result", {}).get("correct"):
                    found.append(f"{side}: {run['workload']} seed {run['seed']} failed")
        samples[side] = _samples(doc, side, tmp_path)
    names = [c["name"] for c in doc["comparisons"]]
    if sum(c["gated"] for c in doc["comparisons"]) != 1:
        found.append(f"exactly one comparison must be gated, not {names}")
    for comparison in doc["comparisons"]:
        base, change = samples.get(comparison["base"]), samples.get(comparison["change"])
        if base is None or change is None:
            found.append(f"{comparison['name']}: compares a side the file lacks")
            continue
        expected = list(_expected_rows(base, change))
        stored = comparison["rows"]
        if len(stored) != len(expected):
            found.append(f"{comparison['name']}: {len(stored)} rows, derive {len(expected)}")
        for have, want in zip(stored, expected):
            if have != want:
                found.append(f"{comparison['name']}: stored {have} != derived {want}")
        table, _failed = compare.compare(base, change)
        if comparison["table"] != table:
            found.append(f"{comparison['name']}: the table is not compare.py's")
    if doc["claims_gain"] and "claim" not in doc:
        found.append("claims a gain but carries no claim block")
    claim = doc.get("claim")
    if claim and claim != derive_claim(doc, claim["workload"], claim["metric"]):
        found.append("the claim block does not follow from the result sets")
    return found


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_every_verdict_rederives_from_the_stored_samples(path, tmp_path):
    assert problems(json.loads(path.read_text()), tmp_path) == []


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_the_gated_comparison_neither_regresses_nor_changes_the_model(path):
    # compare.py's own failures: a host metric worse than its bound, or a
    # simulated value (a fingerprint among them) that differs for a seed.
    doc = json.loads(path.read_text())
    (gated,) = [c for c in doc["comparisons"] if c["gated"]]
    failing = [r for r in gated["rows"] if r["verdict"] in ("regressed", "changed")]
    assert not failing


def test_a_hand_edited_sample_fails(tmp_path):
    assert BENCH_FILES, "no BENCH_*.json checked in"
    doc = json.loads(BENCH_FILES[-1].read_text())
    edited = copy.deepcopy(doc)
    run = edited["sides"]["change"]["result_sets"][0]["runs"][0]
    run["extra"]["values"]["conns_per_s"] *= 1.5
    as_stored, hand_edited = tmp_path / "as-stored", tmp_path / "edited"
    as_stored.mkdir()
    hand_edited.mkdir()
    assert problems(doc, as_stored) == []
    assert problems(edited, hand_edited)
