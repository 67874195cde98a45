"""Long-lived serving mode with an online control API.

``repro serve`` runs a :class:`~repro.core.silkroad.SilkRoadSwitch` (or a
:class:`~repro.deploy.fleet.FleetSilkRoad`) against a *streaming* flow
source instead of a pre-materialized replay, and exposes an HTTP control
API for live operations: add a DIP, gracefully drain one, change its
weight, reassign a VIP across the fleet.  Every mutation maps onto the
existing PCC-safe machinery — the 3-step update coordinator
(:mod:`repro.core.pcc_update`) for pool changes, the fleet's
announce/drain/redirect reassignment — so the serving mode adds no second
consistency mechanism.  Nor a second replay loop: a session feeds each
drawn window to the loop a replay runs
(:class:`~repro.netsim.batchsim.BatchedFlowSimulator`).

Serve time is the session's event queue.  It moves by explicit ``POST
/advance`` steps (``ServeSession.advance`` — fully deterministic, the mode
CI runs) or, with ``wallclock``, by the
:class:`~repro.serve.clock.WallclockPacer` (self-pacing real time).  See
``docs/serving.md``.
"""

from .clock import WallclockPacer
from .http import ControlServer
from .script import DEFAULT_MIGRATION_SCRIPT, ServeScriptResult, run_serve_script
from .session import ApiError, ServeConfig, ServeSession
from .source import StreamingFlowSource

__all__ = [
    "ApiError",
    "ControlServer",
    "DEFAULT_MIGRATION_SCRIPT",
    "ServeConfig",
    "ServeScriptResult",
    "ServeSession",
    "StreamingFlowSource",
    "WallclockPacer",
    "run_serve_script",
]
