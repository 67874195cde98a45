"""Deterministic fault injection for the SilkRoad slow path.

The data plane of a SilkRoad switch is hardware and essentially does not
fail in software-visible ways; the *slow path* — learning-filter
notifications, the switch CPU, PCI-E table writes, the 3-step update
machinery — is ordinary software and does.  This package injects those
failures on a seed-driven schedule so the hardened slow path
(bounded backlog, install retry, crash re-learning, update watchdogs; see
docs/robustness.md) can be exercised reproducibly:

* :class:`FaultPlan` / :class:`FaultEvent` / :class:`FaultKind` — frozen,
  seed-derived schedules of fault events (pure data);
* :class:`FaultInjector` — replays a plan against a switch through the
  shared simulation :class:`~repro.netsim.events.EventQueue`;
* :func:`run_chaos` / :class:`ChaosResult` — the one-call chaos harness:
  workload + faults + invariant audit + metrics fingerprint
  (``run_sharded("chaos", ...)`` fans it out over derived seeds).

:mod:`repro.faults.fleet` lifts the same machinery to fleet scope —
whole-switch crashes, control-plane partitions, flapping, heartbeat loss,
delayed detection, VIP reassignment — against a controller-managed
:class:`~repro.deploy.fleet.FleetSilkRoad` (:func:`run_fleet`;
``run_sharded("fleet", ...)`` sweeps it over the :data:`FAILURE_PATTERNS`).
"""

from .chaos import ChaosResult, chaos_config, run_chaos
from .fleet import (
    FAILURE_PATTERNS,
    FLEET_KINDS,
    FleetChaosResult,
    FleetFaultEvent,
    FleetFaultInjector,
    FleetFaultKind,
    FleetFaultPlan,
    run_fleet,
)
from .injector import FaultInjector
from .plan import ALL_KINDS, FaultEvent, FaultKind, FaultPlan

__all__ = [
    "ALL_KINDS",
    "ChaosResult",
    "FAILURE_PATTERNS",
    "FLEET_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FleetChaosResult",
    "FleetFaultEvent",
    "FleetFaultInjector",
    "FleetFaultKind",
    "FleetFaultPlan",
    "chaos_config",
    "run_chaos",
    "run_fleet",
]
