"""Tests for the consolidated runner options (ObsOptions).

The dataclass is the one spelling of the observability knobs; runners
take no loose per-knob kwargs, and no runner takes a replay-driver
choice.  A field no caller sets is a module constant, not an option.
"""

from __future__ import annotations

import pytest

from repro.api import ServeConfig, run_chaos, run_fleet
from repro.options import ObsOptions


class TestResolveOptions:
    def test_defaults(self):
        obs = ObsOptions()
        assert not obs.record and obs.timeline_period_s is None

    def test_validation(self):
        with pytest.raises(ValueError, match="timeline_period_s"):
            ObsOptions(timeline_period_s=0.0)

    def test_resolved_source(self):
        assert ObsOptions().resolved_source("chaos") == "chaos"
        assert ObsOptions(record_source="mine").resolved_source("chaos") == "mine"


class TestRunnersAcceptOptions:
    def test_run_chaos_rejects_loose_kwargs(self):
        with pytest.raises(TypeError):
            run_chaos(batched=False)

    def test_serve_accepts_options(self):
        from repro.serve import ServeSession

        session = ServeSession(
            ServeConfig(seed=5, scale=0.01, obs=ObsOptions(record=True))
        )
        session.advance(2.0)
        assert session.recorder is not None
        assert session.recorder.source == "serve"


class TestRemovedOptions:
    """Options no caller set are gone: passing one is a ``TypeError``."""

    @pytest.mark.parametrize(
        "build, keyword",
        [
            (run_chaos, "driver"),
            (run_fleet, "driver"),
            (ServeConfig, "plan_horizon_s"),
            (ObsOptions, "record_capacity"),
        ],
    )
    def test_rejected(self, build, keyword):
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: None})
