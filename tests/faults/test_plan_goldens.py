"""Seeded fault plans, pinned: the same seed must draw the same schedule.

Each digest is a SHA-256 over one row per event: its time, its kind's
value and the magnitude fields a switch fault (``duration_s``,
``probability``, ``count``, ``delay_s``) or a fleet fault (``switch``,
``duration_s``, ``count``, ``cycles``, ``target``, ``vip_rank``) carries,
each as its ``repr``.  A drift in the draw order — which fields a kind
draws, in which order, from which range — changes a digest.  Two such
orders are easy to get wrong and are covered here: every fleet kind
draws a switch index right after the kind, and ``DETECTION_DELAY`` and
``VIP_REASSIGN`` discard it (their ``switch`` stays 0); and
``BATCH_DELAY`` draws its ``count`` from the same default range as
``NOTIFICATION_LOSS``.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from repro.faults import FaultPlan
from repro.faults.fleet import FAILURE_PATTERNS, resolve_fleet_run

SWITCH_FIELDS = ("duration_s", "probability", "count", "delay_s")
FLEET_FIELDS = ("switch", "duration_s", "count", "cycles", "target", "vip_rank")

#: ``fleet_mixed``'s shape: 4 faults/min over 120 s, 8 switches.
FLEET_HORIZON_S = 120.0
FLEET_FAULTS_PER_MIN = 4.0


def _digest(plan, fields) -> str:
    rows = (
        ",".join([repr(e.time), e.kind.value, *(repr(getattr(e, f)) for f in fields)])
        for e in plan
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _fleet_plan(fault_seed: int, pattern: str, num_switches: int):
    """The plan :func:`~repro.faults.fleet.run_fleet` replays for this
    pattern (only the horizon of the workload is read)."""
    _workload, plan, _config = resolve_fleet_run(
        seed=7,
        fault_seed=fault_seed,
        pattern=pattern,
        num_switches=num_switches,
        scale=0.05,
        horizon_s=FLEET_HORIZON_S,
        warmup_s=2.0,
        updates_per_min=60.0,
        faults_per_min=FLEET_FAULTS_PER_MIN,
        config=None,
        plan=None,
        workload=SimpleNamespace(horizon_s=FLEET_HORIZON_S),
    )
    return plan


#: (seed, faults_per_min, horizon_s) -> digest
SWITCH_GOLDENS = {
    (7, 6.0, 20.0): "91d35a23c770ac2ad1ceb93c4ff3bf5a4ca2c77641dcc2f7d47d6384409c4571",
    (7, 6.0, 60.0): "c33852a74a9ea780b8618eef65bbc8188098d32f30ce0978960eba184c3abb76",
    (7, 30.0, 20.0): "1fae8b27c429b45a3e73e53067ba461fba7fb7f873cbdeda72dfc5ecbbfedef2",
    (7, 30.0, 60.0): "93fec199306901d5b97f91f72d4e2ee1fa486c3aca36ec5e23849e7599ce6215",
    (1007, 6.0, 20.0): "23bdf999d05565f710a9fb2367c04370a8bbb3b5e30531cae26ae0441b82de4c",
    (1007, 6.0, 60.0): "d86284215e481bd00c74bfa20259583dc06a3eadccb7c5088556ee8dbc1c0ff5",
    (1007, 30.0, 20.0): "2f27d9e31711fae8b60ea48c7ee45dd24eeb09808d87dfecd75529bf4b2aff2e",
    (1007, 30.0, 60.0): "2facbec72e655fac4cd0bca9d5d487f36fba7977142a89e41416ca4684b89d28",
    (1016, 6.0, 20.0): "784c34a016152c0a13a71ea7ed17c9465820df011a3159fe1ef38f8f4309b513",
    (1016, 6.0, 60.0): "5572010bc8c9f99a3f122fe75ae51bc356dcb62fcd98d50556c68a9381986202",
    (1016, 30.0, 20.0): "eeca1150e845c0d37f49b79a096f4ef7abb0ec8f1614029d33c19172066bde9e",
    (1016, 30.0, 60.0): "a9ee1e14550de0624feab62d4364c82aeefa4f23b423226070e0ed118109f61a",
}

#: (fault_seed, pattern, num_switches) -> digest
FLEET_GOLDENS = {
    (2016, "crash", 3): "8f37c90dd23d68a91f48972d7db62181a83d49b25d47396b397691fe222f650b",
    (2016, "crash", 4): "8a721c69b31f10b4c7b3bf8aabd0d8bec5d6a249a6692829480b563625bb1471",
    (2016, "crash", 8): "50bc7532b2b854b58e4ebfcd22f8586f4cec4750bbe1985212b12a70ff3e99cd",
    (2016, "partition", 3): "addf2d54302188c44aae0aa7ff2096e8f484e74eaef481f4a716903aa7760d0b",
    (2016, "partition", 4): "091db05c08cdd35b28481c29a5e73c3636edd44706733940f68023a680f30b23",
    (2016, "partition", 8): "075d3fc1ec438c9d37ed4f842bc3b488c62c5cc3d3ecb3dcba100fe689ac6758",
    (2016, "flap", 3): "c9315f7904ab247860e70afe133362d3732a1bc6b9c5c035cdf8a1563a3b76f6",
    (2016, "flap", 4): "ba51f8dbdaab554d662a91690051d314ee2f8e90b89f4c9c03a754014317f2c5",
    (2016, "flap", 8): "fa038efa96defb10d1b951faf6c88b319941127ca226c458c76ce7740bfc5110",
    (2016, "cascade", 3): "310440c97ad0b1ada40a13fcb0ea6b57ee2354ef39061de09ce0dbe473957471",
    (2016, "cascade", 4): "29956c64e25281716b7b31e7a3300693b254f1096f061aa28c810e7f2254d220",
    (2016, "cascade", 8): "dcb089fa79f42e213b3853cfa16053030f328ef6f1146b52e37c11734d27851d",
    (2016, "mixed", 3): "2f930546c91d40cf9e28b4fc7327afa34a6839b6098b9e4f926b48f8f4f71942",
    (2016, "mixed", 4): "86a2fdc04f59dca103990d658d7b07e7028abca798e3ba24189e7c1df0d1136b",
    (2016, "mixed", 8): "fd12a470f0a9b9c4a7385c7c839eadc19b0a73ffd893e9c26096cab69a95e096",
    (2023, "crash", 3): "5a5f791af64f0aa5a2d8febfaa6a2170a2672de62df92ca6214118b7c2c9c4ec",
    (2023, "crash", 4): "ee9e3286cab0cb5ce625a068e2f94456da479f792d7432e891c5fe4aba2e5883",
    (2023, "crash", 8): "9cf3a5a34cc51a7ea478ad71fb0ab7a1cd8346662391cdb9a83c8dd0766b7275",
    (2023, "partition", 3): "80b58bc654b12f5458dc5e650289f44330080e64e9582604e19593ec59d60d66",
    (2023, "partition", 4): "c5d949a43bd49b286b9588da646d235c9f967f458312621942dc5e59a62601f5",
    (2023, "partition", 8): "14f46ea52d24d98888bfefe979f6e3bff7e4880c80934329854bf5d19c7682cf",
    (2023, "flap", 3): "27f748d521a1ba4413b7729f77fccd9ea368f7cff5f353cc41b128f92ee2b2a0",
    (2023, "flap", 4): "d5be86a79d343cf3591b981f949a9d7ccae074c2f54ca8dac40f959276b71a75",
    (2023, "flap", 8): "484a5313c11f51aa3d86717b3cecb8a53bd94c49af19712f5635b0ae72ec9646",
    (2023, "cascade", 3): "b75e4bf18d16511babceb64f52b6acc801ea228a2e3bad08b2db00cf04fd489a",
    (2023, "cascade", 4): "a51d5a2524e19ce45b294fff8bf62bc074bdea064834be4f283d70791f28d842",
    (2023, "cascade", 8): "08308d044da03b81d6314437e0ef38300cc2d2399b86f58c4f87c25350efb382",
    (2023, "mixed", 3): "57655e29580684363b8151ee783b1124ecf7781e8399b50e98aa1485ca48b855",
    (2023, "mixed", 4): "e13f5176a92fb24157a206e698315e685e07cbe7568017795cf3b1d67b2d751f",
    (2023, "mixed", 8): "b8e584dafd0cdf574e9654a2825d7fd4f058cfddb67603189748ae52ebdda6f7",
}


@pytest.mark.parametrize("case", sorted(SWITCH_GOLDENS), ids=str)
def test_switch_plan_golden(case):
    seed, faults_per_min, horizon_s = case
    plan = FaultPlan.generate(seed, horizon_s=horizon_s, faults_per_min=faults_per_min)
    assert _digest(plan, SWITCH_FIELDS) == SWITCH_GOLDENS[case]


@pytest.mark.parametrize("case", sorted(FLEET_GOLDENS), ids=str)
def test_fleet_plan_golden(case):
    plan = _fleet_plan(*case)
    assert _digest(plan, FLEET_FIELDS) == FLEET_GOLDENS[case]


def test_goldens_cover_every_pattern_and_the_benchmark_plan():
    assert {pattern for _seed, pattern, _n in FLEET_GOLDENS} == set(FAILURE_PATTERNS)
    assert (2016, "mixed", 8) in FLEET_GOLDENS
    assert len(_fleet_plan(2016, "mixed", 8)) == 8
