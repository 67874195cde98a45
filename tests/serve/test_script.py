"""End-to-end scripted serve runs: the flagship migration + determinism.

The acceptance property this file pins: a scripted live DIP migration
through the HTTP API — with chaos faults firing mid-migration — completes
with zero unattributed PCC violations and is bit-identical across two
virtual-clock runs.
"""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig, run_serve_script

#: The CI serve smoke's two scripted chaos runs (``repro serve --chaos``
#: and ``--fleet 3 --chaos``).
PINNED_CONFIGS = {
    "switch": ServeConfig(chaos=True),
    "fleet3": ServeConfig(chaos=True, num_switches=3),
}

_SWITCH_REPORT = {
    "advances": 16,
    "audit_detail": "audit ok (7 checks)",
    "audit_ok": True,
    "drains": [
        {
            "completed_at": 59.0,
            "dip": "10.0.0.0:8080",
            "requested_at": 3.0,
            "status": "drained",
            "update_finished_at": 3.0,
            "vip": "20.0.0.0:80",
        }
    ],
    "fingerprint": "cfda30aafd5b11ff9f8838a516c39bc1e787e7cf82bc09160ff5ae4e1bf13b48",
    "mutations": 3,
    "now": 64.0,
    "pcc_violations": 0,
    "total_connections": 1598,
    "unattributed_violations": 0,
}

PINNED_REPORTS = {
    "switch": _SWITCH_REPORT,
    "fleet3": {
        "advances": 9,
        "audit_detail": (
            "fleet audit: ok — 22 violations (version_pinned_rehash=22), "
            "445 dropped, 0 unattributed violations, 0 unattributed drops; "
            "structural: 74 checks, 0 failures"
        ),
        "audit_ok": True,
        "drains": [
            {
                "completed_at": 24.0,
                "dip": "10.0.0.0:8080",
                "requested_at": 3.0,
                "status": "drained",
                "update_finished_at": 3.0011999999999923,
                "vip": "20.0.0.0:80",
            }
        ],
        "fingerprint": "aa1f1cf6308fe9a2dd92acb54225baeb2435b0e76ae128cc0db631ff519f7f2d",
        "mutations": 3,
        "now": 29.0,
        "pcc_violations": 22,
        "total_connections": 754,
        "unattributed_violations": 0,
    },
}


def _config(**overrides) -> ServeConfig:
    defaults = dict(seed=11, scale=0.02)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestMigrationScript:
    def test_migration_with_chaos_is_clean_and_deterministic(self):
        first = run_serve_script(_config(chaos=True))
        second = run_serve_script(_config(chaos=True))
        for result in (first, second):
            assert result.ok, result.report["audit_detail"]
            assert result.report["unattributed_violations"] == 0
            # The drained backend actually finished draining.
            drains = result.report["drains"]
            assert drains and drains[0]["status"] == "drained"
            assert drains[0]["completed_at"] is not None
        assert first.fingerprint == second.fingerprint
        assert first.fingerprint  # non-empty

    def test_script_responses_trace_the_migration(self):
        result = run_serve_script(_config())
        by_op = {}
        for entry in result.responses:
            by_op.setdefault(entry["op"], []).append(entry)
        assert by_op["add_spare"][0]["status"] == 200
        assert by_op["drain"][0]["status"] == 200
        # The idempotency probe returns the same drain record, not an error.
        redrain = by_op["redrain"][0]
        assert redrain["status"] == 200
        assert redrain["response"]["dip"] == by_op["drain"][0]["response"]["dip"]
        assert by_op["weight"][0]["status"] == 200
        # Single switch: the fleet_only reassign step was skipped.
        assert "reassign" not in by_op
        assert by_op["shutdown"][0]["status"] == 200
        # A graceful migration breaks nothing: every PCC violation would
        # be unattributed on a chaos-free run, so there must be none.
        assert result.report["pcc_violations"] == 0

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_shutdown_report_is_pinned(self, name):
        # The session forgets connections that ended on one DIP; what it
        # hands the shutdown audit must judge exactly as the whole history
        # did.  Captured before the session stopped keeping every record.
        result = run_serve_script(PINNED_CONFIGS[name])
        assert result.report == PINNED_REPORTS[name]

    def test_fleet_migration_with_reassign(self):
        result = run_serve_script(_config(num_switches=3, chaos=True))
        assert result.ok, result.report["audit_detail"]
        by_op = {e["op"]: e for e in result.responses}
        assert by_op["reassign"]["status"] == 200
        assert result.report["drains"][0]["status"] == "drained"
        # Telemetry is non-empty JSONL.
        assert result.telemetry.strip()
