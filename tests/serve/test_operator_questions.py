"""The operator's questions, answered from ``/metrics`` and ``/telemetry``.

An operator of ``repro serve`` sees only the HTTP bodies.  Each test
drives a :class:`ControlServer` over a real socket through a rolling DIP
migration with chaos on, answers a question from those bodies alone —
``/metrics`` parsed with :func:`parse_prometheus_text`, ``/telemetry``
read line by line — and holds the answer to the session's internals read
at the same instant.  docs/serving.md, "The operator's questions", lists
them; Q1 (is PCC holding) and Q4 (which layer is the bottleneck) are not
answerable yet and are not tested here.

* **Q2, the insertion backlog**: ``switch_cpu.backlog`` and
  ``switch_cpu.queueing_delay_s`` of every switch, after every advance.
* **Q3, each step of the last 3-step update**: the ``t_req`` /
  ``t_exec`` / ``t_finish`` marks of every switch's last update record.

In a fleet every answer is per switch: a switch's instruments are tagged
``inst.sw{i}g{gen}.`` on ``/metrics`` and its span lines carry its name.
The switch CPU is slowed to 100 installs/s so that the backlog is a
number worth reading (at the default rate it is 0 at every advance).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.core import SilkRoadConfig
from repro.obs import parse_prometheus_text
from repro.serve import ControlServer, ServeConfig, ServeSession
from repro.serve import session as session_module
from repro.serve.script import _Client

#: Installs per second of every switch CPU in these sessions.
SLOW_CPU_PER_S = 100.0
DOCS = Path(__file__).resolve().parents[2] / "docs" / "serving.md"


def _switches(session: ServeSession):
    """``(metric prefix, switch)`` of every switch ``/metrics`` shows."""
    if not session.is_fleet:
        return [("", session.lb)]
    return [
        (f"inst.sw{index}g{generation}.", switch)
        for index, generation, switch in session.lb.instances()
        if getattr(switch, "materialized", True)
    ]


def _gauge(samples, prefix: str, name: str) -> float:
    prom = "repro_" + (prefix + name).replace(".", "_")
    assert prom in samples, f"/metrics cannot answer: no {prefix}{name} ({prom})"
    (value,) = samples[prom].values()
    return value


def _migrate(num_switches: int, seed: int = 7):
    """Run the migration, asking both questions after every advance;
    returns ``(Q2 answers, Q3 answers)`` as (from HTTP, from the session)
    pairs."""

    async def go():
        session = ServeSession(
            ServeConfig(seed=seed, chaos=True, num_switches=num_switches)
        )
        server = ControlServer(session)
        await server.start()
        client = _Client(server.host, server.port)
        await client.connect()
        backlog, updates = [], []

        async def ask():
            _status, text = await client.request("GET", "/metrics")
            samples = parse_prometheus_text(text)
            for prefix, switch in _switches(session):
                backlog.append(
                    (
                        (
                            _gauge(samples, prefix, "switch_cpu.backlog"),
                            _gauge(samples, prefix, "switch_cpu.queueing_delay_s"),
                        ),
                        (float(switch.cpu.backlog), switch.cpu.queueing_delay()),
                    )
                )
            _status, text = await client.request("GET", "/telemetry")
            last = {}
            for line in text.splitlines():
                record = json.loads(line)
                if record["record"] == "span" and record["name"] == "pcc_update":
                    last[record["switch"]] = record["marks"]
            truth = {
                switch.name: switch.coordinator.timings[-1].to_dict()["marks"]
                for _prefix, switch in _switches(session)
                if switch.coordinator.timings
            }
            updates.append((last, truth))

        async def advance(dt: float):
            await client.json("POST", "/advance", {"dt": dt})
            await ask()

        try:
            await advance(2.0)
            _status, state = await client.json("GET", "/state")
            vip = state["vips"][0]
            await client.json("POST", f"/vips/{vip['vip']}/dips", {})
            for _ in range(10):
                await advance(0.1)
            await client.json("POST", f"/dips/{vip['dips'][0]}/drain", {})
            for _ in range(20):
                await advance(0.5)
        finally:
            await client.close()
            await server.stop()
        return backlog, updates

    return asyncio.run(go())


@pytest.fixture(params=[1, 3], ids=["switch", "fleet3"], scope="module")
def migration(request):
    patch = pytest.MonkeyPatch()
    patch.setattr(
        session_module,
        "SilkRoadConfig",
        lambda: SilkRoadConfig(insertion_rate_per_s=SLOW_CPU_PER_S),
    )
    try:
        yield _migrate(request.param)
    finally:
        patch.undo()


class TestQ2InsertionBacklog:
    def test_metrics_answer_equals_the_switch_cpu(self, migration):
        backlog, _updates = migration
        for answer, truth in backlog:
            assert answer == pytest.approx(truth, rel=1e-12, abs=0.0)

    def test_the_backlog_was_not_always_empty(self, migration):
        backlog, _updates = migration
        assert any(answer[0] > 0 for answer, _truth in backlog)
        assert any(answer[1] > 0 for answer, _truth in backlog)


class TestQ3LastUpdateSteps:
    def test_telemetry_answer_equals_the_coordinator(self, migration):
        _backlog, updates = migration
        for answer, truth in updates:
            assert answer == truth

    def test_every_step_of_an_update_is_answered(self, migration):
        _backlog, updates = migration
        last, _truth = updates[-1]
        assert last, "/telemetry cannot answer: no pcc_update span line"
        for switch, marks in last.items():
            assert marks["t_req"] <= marks["t_exec"] <= marks["t_finish"], switch


def test_docs_list_the_questions_and_their_sources():
    text = DOCS.read_text()
    section = text.split("## The operator's questions", 1)[1].split("\n## ", 1)[0]
    for needle in (
        "Q1", "Q2", "Q3", "Q4", "switch_cpu.backlog", "switch_cpu.queueing_delay_s",
        "t_req", "t_exec", "t_finish", "inst.sw", "test_operator_questions.py",
    ):
        assert needle in section, needle
