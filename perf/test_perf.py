"""Tests of the benchmark itself.  Run with ``python -m pytest perf/``.

A ``--size tiny`` pass over all six workloads validates the result schema
against ``BENCHMARK.json`` and the builder's contract; the tracer is unit
tested on synthetic nested and recursive functions with a fake clock; and
an uninstall test proves every patched attribute is restored by identity,
so an untraced run after a traced one is untouched.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
import pytest

from perf import ROOT, compare, metrics, run, workloads
from perf.trace import OUTSIDE, ROOT_SPAN, SPAN_TARGETS, Tracer, layer_totals

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- BENCHMARK.json and the catalogue -----------------------------------


def test_manifest_is_the_catalogue():
    assert MANIFEST == metrics.manifest(MANIFEST["run_seconds"])


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["perf"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    names = (
        [w["name"] for w in MANIFEST["workloads"]]
        + [m["name"] for m in MANIFEST["end_to_end"]]
        + [m["name"] for m in MANIFEST["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(m["unit"])
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert len(json.dumps(MANIFEST)) < 64 * 1024
    # the driver runs workloads 4 + 22 * n times within 3420 s
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 8) < 3420


def test_every_move_names_an_end_to_end_metric_and_a_workload():
    end_to_end = {m.name: m for m in metrics.END_TO_END}
    for name, moves in metrics.moves_table().items():
        assert moves, name
        for metric, workload in moves:
            assert workload in metrics.WORKLOADS, (name, workload)
            assert end_to_end[metric].applies_to(workload), (name, metric, workload)


def test_catalogue_covers_every_span():
    layer_names = {m.name for m in metrics.LAYERS}
    for span in SPAN_TARGETS:
        assert {f"{span}.self_s", f"{span}.calls"} <= layer_names
    assert set(workloads.WORKLOAD_CLASSES) == set(metrics.WORKLOADS)


# -- a tiny pass over all six workloads ----------------------------------


def _child(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    extra = [l for l in lines if l.startswith(run.EXTRA_PREFIX)]
    return code, json.loads(lines[-1]), json.loads(extra[-1][len(run.EXTRA_PREFIX):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_tiny_run_matches_schema(capsys, workload, trace):
    code, result, extra = _child(
        capsys, "--workload", workload, "--seed", "16", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert code == 0 and extra["failures"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
        return
    value = lambda name: result["metrics"][name]["value"]  # noqa: E731
    # self times sum to the root span: nothing is lost or counted twice.
    trace_file = json.loads((run.OUT_DIR / f"trace_{workload}.json").read_text())
    rep = trace_file["runs"][-1]
    assert sum(e["self_s"] for e in rep["spans"]) == pytest.approx(
        rep["duration_s"], rel=1e-6
    )
    assert value("core.silkroad.arrive.calls") > 0
    assert value("bench.rep.self_s") > 0
    recorded = value("obs.recorder.record.calls")
    assert (recorded > 0) == (workload == "pop_steady_obs")
    assert (value("serve.http.roundtrip.calls") > 0) == (workload == "serve_migration")
    assert (value("deploy.fleet.arrive.calls") > 0) == (workload == "fleet_mixed")
    assert (value("drill.dip_pool_select.ns_per_op") > 0) == (workload == "pop_steady")


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", "full_table",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == {
        m["name"] for m in MANIFEST["end_to_end"]
    }


def test_failed_output_check_fails_the_command(capsys, monkeypatch):
    monkeypatch.setattr(
        workloads.FullTable, "check", lambda self, report, lb: ["injected failure"]
    )
    code, result, extra = _child(
        capsys, "--workload", "full_table", "--seconds", "0.1",
        "--trace", "0", "--size", "tiny",
    )
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert "injected failure" in extra["failures"]
    assert extra["values"]["failed_share"] > 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    def keys(seed):
        w = workloads.PopSteady(seed, "tiny")
        w.setup()
        return [c.key for c in w.workload.connections], w.rep().fingerprint

    assert keys(5) == keys(5)
    assert keys(5)[1] != keys(6)[1]


# -- the tracer ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 3.0

    leaf_t = tracer.wrap(leaf, "leaf")

    def mid():
        clock.now += 1.0
        leaf_t()
        leaf_t()
        clock.now += 2.0

    mid_t = tracer.wrap(mid, "mid")
    tracer.begin_run("r0")
    clock.now += 0.5
    mid_t()
    leaf_t()
    run_ = tracer.end_run()
    edges = {(e["span"], e["parent"]): e for e in run_["spans"]}
    assert edges[("leaf", "mid")]["calls"] == 2
    assert edges[("leaf", "mid")]["self_s"] == pytest.approx(6.0)
    assert edges[("leaf", ROOT_SPAN)]["calls"] == 1
    assert edges[("mid", ROOT_SPAN)]["total_s"] == pytest.approx(9.0)
    assert edges[("mid", ROOT_SPAN)]["self_s"] == pytest.approx(3.0)
    assert edges[(ROOT_SPAN, OUTSIDE)]["self_s"] == pytest.approx(0.5)
    assert run_["duration_s"] == pytest.approx(12.5)
    assert sum(e["self_s"] for e in run_["spans"]) == pytest.approx(12.5)
    totals = layer_totals(run_)
    assert totals["leaf"] == {"self_s": pytest.approx(9.0), "total_s": pytest.approx(9.0),
                              "calls": 3}


def test_recursion_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fact(n):
        clock.now += 1.0
        if n == 0:
            raise ValueError("bottom")
        return n * fact_t(n - 1)

    fact_t = tracer.wrap(fact, "fact")
    tracer.begin_run("r0")
    with pytest.raises(ValueError):
        fact_t(3)
    tracer.push("hand")
    clock.now += 2.0
    tracer.pop()
    run_ = tracer.end_run()
    edges = {(e["span"], e["parent"]): e for e in run_["spans"]}
    assert edges[("fact", "fact")]["calls"] == 3
    assert edges[("fact", ROOT_SPAN)]["calls"] == 1
    # four frames of 1 s self time each, however deep they nest
    assert layer_totals(run_)["fact"]["self_s"] == pytest.approx(4.0)
    assert edges[("hand", ROOT_SPAN)]["self_s"] == pytest.approx(2.0)
    assert run_["run_id"] == "r0" and tracer.runs == [run_]
    tracer.begin_run("r1")  # a new run starts from clean aggregates
    assert tracer.end_run()["spans"] == [
        {"span": ROOT_SPAN, "parent": OUTSIDE, "calls": 1, "total_s": 0.0, "self_s": 0.0}
    ]


def test_layer_totals_move_the_wrapper_cost_to_the_root():
    run_ = {
        "root": ROOT_SPAN,
        "wrapper_cost_s": [0.1, 0.2],
        "spans": [
            {"span": ROOT_SPAN, "parent": OUTSIDE, "calls": 1, "total_s": 10.0, "self_s": 4.0},
            {"span": "a", "parent": ROOT_SPAN, "calls": 2, "total_s": 6.0, "self_s": 5.0},
            {"span": "b", "parent": "a", "calls": 5, "total_s": 1.0, "self_s": 1.0},
        ],
    }
    totals = layer_totals(run_)
    assert totals["b"]["self_s"] == pytest.approx(1.0 - 5 * 0.1)
    assert totals["a"]["self_s"] == pytest.approx(5.0 - 2 * 0.1 - 5 * 0.2)
    # root: loses the outside cost of a's 2 calls, gains all 7 calls' cost
    assert totals[ROOT_SPAN]["self_s"] == pytest.approx(4.0 - 2 * 0.2 + 7 * 0.3)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(10.0)
    run_["wrapper_cost_s"] = [1.0, 0.0]  # larger than b's whole self time
    totals = layer_totals(run_)
    assert totals["b"]["self_s"] == 0.0
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(10.0)


def _patched_attributes():
    for group in SPAN_TARGETS.values():
        for target in group:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            yield owner, target.attr


def test_uninstall_restores_every_attribute_by_identity():
    from repro import api  # holders of by-name imports must be restored too
    from repro.serve import session as serve_session

    before = [(o, a, vars(o)[a]) for o, a in _patched_attributes()]
    holders = [(api, "audit_switch"), (api, "audit_fleet"),
               (serve_session, "iter_jsonl"), (serve_session, "to_prometheus_text")]
    held = [getattr(m, a) for m, a in holders]

    def fingerprint():
        w = workloads.PopSteady(16, "tiny")
        w.setup()
        return w.rep().fingerprint

    untouched = fingerprint()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not raw for o, a, raw in before)
        assert all(getattr(m, a) is not h for (m, a), h in zip(holders, held))
        tracer.begin_run("traced")
        traced = fingerprint()
        assert len(tracer.end_run()["spans"]) > 10
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is raw for o, a, raw in before)
    assert all(getattr(m, a) is h for (m, a), h in zip(holders, held))
    assert traced == untouched == fingerprint()
    tracer.begin_run("after")  # no wrapper is left to record anything
    fingerprint()
    assert [e["span"] for e in tracer.end_run()["spans"]] == [ROOT_SPAN]


# -- compare.py ----------------------------------------------------------


def _result_set(tmp_path, name, conns, fingerprint="f", violations=0.0):
    runs = [
        {"workload": "pop_steady", "seed": seed, "trace": 0,
         "extra": {"fingerprint": fingerprint,
                   "values": {"conns_per_s": value, "setup_s": 0.2,
                              "peak_rss_mb": 150.0, "pcc_violations": violations}}}
        for seed, value in enumerate(conns)
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


@pytest.mark.parametrize(
    "change, verdict, code",
    [
        ([1000, 1010, 990, 1005], "ok", 0),
        ([800, 805, 795, 802], "regressed", 1),
        ([700, 1000, 1300, 900], "unresolved", 0),
        ([1500, 2500, 2000, 3000], "ok", 0),  # wide, but every run beats every base run
    ],
)
def test_compare_verdicts(tmp_path, capsys, change, verdict, code):
    base = _result_set(tmp_path, "a.json", [1000, 1004, 996, 1002])
    other = _result_set(tmp_path, "b.json", change)
    assert compare.main([base, other]) == code
    row = next(
        l for l in capsys.readouterr().out.splitlines()
        if l.startswith("pop_steady") and "conns_per_s" in l
    )
    assert row.endswith(verdict) and "x base" in row


def test_compare_flags_a_changed_model(tmp_path, capsys):
    base = _result_set(tmp_path, "a.json", [1000, 1000])
    other = _result_set(tmp_path, "b.json", [1000, 1000], fingerprint="g", violations=3.0)
    assert compare.main([base, other]) == 1
    out = capsys.readouterr().out
    assert sum(line.endswith("changed") for line in out.splitlines()) == 2
