"""The replica-agreement journal sees every fleet event and every hand-off.

Partition replicas compare ``FleetSilkRoad.epoch_digest()`` at every epoch
barrier; the journal in it is fed by ``_emit`` (each control-plane event,
the same call that records it) and by ``_hand_off`` (each flow move).  A
replica whose emission or hand-off differs by one field must abort the
partitioned run, and a recorded run's journal must hold exactly one entry
per recorded ``fleet.*`` event beside its hand-offs.
"""

from __future__ import annotations

import pytest

from repro.deploy.fleet import FleetSilkRoad
from repro.experiments.parallel import run_fleet_partitioned
from repro.faults.fleet import run_fleet
from repro.obs.events import FLEET_CRASH, FLEET_DECLARE_DOWN
from repro.options import ObsOptions

#: Fault-heavy and short: crashes, detections, re-homes and rejoins all
#: happen inside a 10 s horizon on a replicated 4-switch fleet.
HEAVY = dict(
    pattern="mixed",
    seed=16,
    num_switches=4,
    horizon_s=10.0,
    faults_per_min=40.0,
    replication=2,
)


def _on_replica_1(fleet: FleetSilkRoad) -> bool:
    return fleet.partition is not None and fleet.partition.worker_id == 1


@pytest.mark.parametrize(
    "kind, perturb",
    [
        (FLEET_CRASH, lambda switch, blackholed: (switch, blackholed + 1)),
        (FLEET_DECLARE_DOWN, lambda switch, reason: (switch, reason + "!")),
    ],
    ids=["int-field", "str-field"],
)
def test_one_perturbed_emission_diverges(monkeypatch, kind, perturb):
    emit = FleetSilkRoad._emit
    perturbed = []

    def skewed_emit(self, event_kind, *fields):
        if event_kind is kind and _on_replica_1(self) and not perturbed:
            fields = perturb(*fields)
            perturbed.append(fields)
        emit(self, event_kind, *fields)

    monkeypatch.setattr(FleetSilkRoad, "_emit", skewed_emit)
    with pytest.raises(RuntimeError, match=r"partition replicas diverged at epoch \d+"):
        run_fleet_partitioned(2, in_process=True, **HEAVY)
    assert perturbed


def test_one_perturbed_hand_off_diverges(monkeypatch):
    # Replica 1 folds the key hash of its first hand-off one bit off; the
    # move itself is unchanged, so only the journal can tell.
    hand_off, journal = FleetSilkRoad._hand_off, FleetSilkRoad._journal
    state = {"inside": False, "perturbed": False}

    def spied_hand_off(self, conn, target, cause):
        state["inside"] = _on_replica_1(self) and not state["perturbed"]
        try:
            hand_off(self, conn, target, cause)
        finally:
            state["inside"] = False

    def skewed_journal(self, a, b):
        if state["inside"]:
            state["perturbed"] = True
            a ^= 1
        journal(self, a, b)

    monkeypatch.setattr(FleetSilkRoad, "_hand_off", spied_hand_off)
    monkeypatch.setattr(FleetSilkRoad, "_journal", skewed_journal)
    with pytest.raises(RuntimeError, match=r"partition replicas diverged at epoch \d+"):
        run_fleet_partitioned(2, in_process=True, **HEAVY)
    assert state["perturbed"]


def test_unperturbed_replicas_agree():
    result = run_fleet_partitioned(2, in_process=True, **HEAVY)
    assert result.counters["handoffs"] > 0 and result.counters["detections"] > 0


@pytest.mark.parametrize("seed", [7, 16, 17])
def test_journal_holds_every_recorded_event(monkeypatch, seed):
    hand_off = FleetSilkRoad._hand_off
    hand_off_entries = []

    def counted_hand_off(self, conn, target, cause):
        before = self._journal_count
        hand_off(self, conn, target, cause)
        hand_off_entries.append(self._journal_count - before)

    monkeypatch.setattr(FleetSilkRoad, "_hand_off", counted_hand_off)
    result = run_fleet(
        **dict(HEAVY, seed=seed, horizon_s=20.0),
        obs=ObsOptions(record=True),
    )
    fleet_events = result.recorder.recorded["fleet"]
    assert fleet_events > 0 and sum(hand_off_entries) > 0
    assert fleet_events == result.fleet._journal_count - sum(hand_off_entries)
