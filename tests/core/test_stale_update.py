"""Regression: an update the pool has already outrun is a counted no-op.

perf/README hazard 1: with a 2-bit version ring and a slow CPU the switch
drops updates on ``VersionsExhausted``; the update stream and the pool
then disagree, and the stream's next ADD of a DIP that is still a member
(or REMOVE of one that never joined) used to raise ``ValueError`` out of
``_execute_update`` mid-replay.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.experiments.common import build_workload
from repro.obs import FlightRecorder


def _switch() -> SilkRoadSwitch:
    return SilkRoadSwitch(
        SilkRoadConfig(version_bits=2, insertion_rate_per_s=2000)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hazard_shape_completes_on_both_drivers(seed):
    workload = build_workload(
        updates_per_min=600, scale=0.1, horizon_s=30, seed=seed
    )
    fingerprints = set()
    for batched in (True, False):
        _report, conns, lb = workload.replay(_switch, batched=batched)
        assert lb.version_exhaustion_events > 0
        assert lb.stale_updates > 0
        # Every update still reached t_finish.
        assert lb.coordinator.updates_completed == lb.coordinator.updates_requested
        assert audit_switch(lb, connections=conns).ok
        fingerprints.add(lb.metrics.fingerprint())
    assert len(fingerprints) == 1


def test_stale_update_is_recorded_and_counted():
    workload = build_workload(
        updates_per_min=600, scale=0.1, horizon_s=30, seed=0
    )
    recorder = FlightRecorder(capacity=1 << 16)
    _report, _conns, lb = workload.replay(
        _switch, attach=lambda sim, lb: lb.attach_recorder(recorder)
    )
    stale = recorder.events("update", "stale")
    assert len(stale) == lb.stale_updates > 0
    assert {dict(e.attrs)["kind"] for e in stale} <= {"add", "remove"}
    # One count, one store: the view reads the registry counter.
    assert lb.metrics.get("switch.stale_updates").value == len(stale)
