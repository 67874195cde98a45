"""Deterministic fault injection for one SilkRoad switch and for a fleet.

The data plane of a SilkRoad switch is hardware and essentially does not
fail in software-visible ways; the *slow path* — learning-filter
notifications, the switch CPU, PCI-E table writes, the 3-step update
machinery — is ordinary software and does, and so do whole switches and
the controller managing them.  This package injects those failures on a
seed-driven schedule so the hardened slow path (bounded backlog, install
retry, crash re-learning, update watchdogs) and the fleet controller
(heartbeat detection, re-homing, resync; see docs/robustness.md) can be
exercised reproducibly.  There is one fault model for both scopes:

* :class:`FaultKind` — every failure mode, :data:`SWITCH_KINDS` for one
  switch and :data:`FLEET_KINDS` for a fleet;
* :class:`FaultPlan` / :class:`FaultEvent` — frozen, seed-derived
  schedules of fault events (pure data), drawn by
  :meth:`FaultPlan.generate` from one declared table of ranges;
* :class:`FaultInjector` — replays a plan against a switch or a fleet
  through the shared simulation :class:`~repro.netsim.events.EventQueue`;
* :func:`run_chaos` / :class:`ChaosResult` — the one-call switch chaos
  harness: workload + faults + invariant audit + metrics fingerprint
  (``run_sharded("chaos", ...)`` fans it out over derived seeds);
* :func:`run_fleet` / :class:`FleetChaosResult` — the same one level up,
  against a controller-managed :class:`~repro.deploy.fleet.FleetSilkRoad`
  (``run_sharded("fleet", ...)`` sweeps it over the
  :data:`FAILURE_PATTERNS`).
"""

from .chaos import ChaosResult, chaos_config, run_chaos
from .fleet import FAILURE_PATTERNS, FleetChaosResult, run_fleet
from .injector import FaultInjector
from .plan import FLEET_KINDS, SWITCH_KINDS, FaultEvent, FaultKind, FaultPlan

__all__ = [
    "ChaosResult",
    "FAILURE_PATTERNS",
    "FLEET_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FleetChaosResult",
    "SWITCH_KINDS",
    "chaos_config",
    "run_chaos",
    "run_fleet",
]
