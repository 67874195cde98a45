"""The stable programmatic surface of the reproduction.

Everything scripts, notebooks and external tooling should import lives
here under one explicit ``__all__``; the package internals stay free to
move.  The facade groups:

* **Systems** — :class:`SilkRoadSwitch` / :class:`SilkRoadConfig` and the
  fleet, :class:`FleetSilkRoad` (its ``replication`` and ``conn_budget``
  are constructor keywords; its heartbeat timing is module constants).
* **Options** — :class:`ObsOptions` (flight recorder, timeline
  sampling), accepted by every runner below.  No runner takes a
  replay-driver choice: they all replay on the one default driver.
* **Runners** — seeded one-call harnesses: :func:`run_chaos` (single
  hardened switch under faults), :func:`run_fleet` (fleet failure domain),
  :func:`run_fleet_partitioned` (that one run, space-partitioned), and
  :func:`run_sharded` (``"fig16" | "fig18" | "chaos" | "fleet"`` as
  deterministic shards over a process pool).  A scenario knob and its
  default are declared once, in the signature of the runner that consumes
  it; ``run_sharded(task, params=...)`` and ``run_fleet_partitioned``
  forward only what they are given and reject a name their runner lacks.
* **Serving** — the long-lived mode: :class:`ServeConfig` /
  :class:`ServeSession` (in-process), :class:`ControlServer` (HTTP), and
  :func:`run_serve_script` (scripted end-to-end run).
* **Audits** — :func:`audit_switch` / :func:`audit_fleet`, the
  cross-table invariant + PCC-attribution checks every harness ends with.

Import from here::

    from repro.api import ServeConfig, run_serve_script
    result = run_serve_script(ServeConfig(seed=7, chaos=True))
    assert result.ok
"""

from __future__ import annotations

from .core import SilkRoadConfig, SilkRoadSwitch
from .core.verify import AuditReport, audit_switch
from .deploy.fleet import (
    FleetAuditReport,
    FleetSilkRoad,
    audit_fleet,
)
from .experiments.parallel import ShardedRunResult, run_fleet_partitioned, run_sharded
# ``chaos_config`` (the hardened preset ``run_chaos`` defaults to) rides along
# for ``repro chaos --conn-table-capacity`` / ``--step-deadline``, which
# shrink it; it is not part of ``__all__``.
from .faults.chaos import ChaosResult, chaos_config, run_chaos  # noqa: F401
from .faults.fleet import FleetChaosResult, run_fleet
from .options import ObsOptions
from .serve import (
    ControlServer,
    ServeConfig,
    ServeScriptResult,
    ServeSession,
    run_serve_script,
)

__all__ = [
    # systems
    "SilkRoadConfig",
    "SilkRoadSwitch",
    "FleetSilkRoad",
    # options
    "ObsOptions",
    # runners
    "run_chaos",
    "run_fleet",
    "run_fleet_partitioned",
    "run_sharded",
    "ChaosResult",
    "FleetChaosResult",
    "ShardedRunResult",
    # serving
    "ServeConfig",
    "ServeSession",
    "ServeScriptResult",
    "ControlServer",
    "run_serve_script",
    # audits
    "audit_switch",
    "audit_fleet",
    "AuditReport",
    "FleetAuditReport",
]
