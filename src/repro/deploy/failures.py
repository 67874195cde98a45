"""Failure arithmetic (§7): switch-failure exposure and DIP health checks.

Flows of a failed SilkRoad switch re-ECMP to surviving switches, which
share the same latest VIPTable.  Connections pinned to the *latest* pool
version re-hash identically and keep PCC; connections pinned to an *older*
version lose their ConnTable state and may break — the same exposure an
SLB failure has.  :func:`switch_failure_breakage` quantifies it;
:mod:`repro.deploy.fleet` replays it live.

DIP failures are detected by BFD-style probes the ASIC can offload;
:func:`health_check_bandwidth_bps` is what they cost a switch.
"""

from __future__ import annotations

from typing import Dict


def switch_failure_breakage(
    connections_per_version: Dict[int, int], latest_version: int
) -> float:
    """Fraction of a failed switch's connections that may break PCC.

    Connections on the latest version re-hash identically at the surviving
    switches (same VIPTable); only connections pinned to older versions are
    exposed (their ConnTable state is lost with the switch).
    """
    total = sum(connections_per_version.values())
    if total == 0:
        return 0.0
    exposed = sum(
        count
        for version, count in connections_per_version.items()
        if version != latest_version
    )
    return exposed / total


#: The paper's health-check probing: one 100-byte probe per DIP every 10 s.
HEALTH_CHECK_INTERVAL_S = 10.0
HEALTH_CHECK_PROBE_BYTES = 100


def health_check_bandwidth_bps(num_dips: int) -> float:
    """Bandwidth one switch spends probing its DIPs.

    The paper's example: 10 K DIPs / 10 s / 100 B -> ~800 Kb/s.
    """
    if num_dips < 0:
        raise ValueError("num_dips must be non-negative")
    return num_dips / HEALTH_CHECK_INTERVAL_S * HEALTH_CHECK_PROBE_BYTES * 8.0
