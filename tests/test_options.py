"""Tests for the consolidated runner options (DriverOptions/ObsOptions).

The dataclasses are the one spelling of the replay-driver and
observability knobs; runners take no loose per-knob kwargs.
"""

from __future__ import annotations

import pytest

from repro.options import DriverOptions, ObsOptions


class TestResolveOptions:
    def test_defaults(self):
        driver, obs = DriverOptions(), ObsOptions()
        assert driver.batched and driver.batch_size == 256
        assert not obs.record and obs.timeline_period_s is None

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            DriverOptions(batch_size=0)
        with pytest.raises(ValueError, match="record_capacity"):
            ObsOptions(record_capacity=0)
        with pytest.raises(ValueError, match="timeline_period_s"):
            ObsOptions(timeline_period_s=0.0)

    def test_resolved_source(self):
        assert ObsOptions().resolved_source("chaos") == "chaos"
        assert ObsOptions(record_source="mine").resolved_source("chaos") == "mine"


class TestRunnersAcceptOptions:
    def test_run_chaos_rejects_loose_kwargs(self):
        from repro.faults.chaos import run_chaos

        with pytest.raises(TypeError):
            run_chaos(batched=False)

    def test_serve_accepts_options(self):
        from repro.serve import ServeConfig, ServeSession

        session = ServeSession(
            ServeConfig(
                seed=5,
                scale=0.01,
                obs=ObsOptions(record=True, record_capacity=256),
            )
        )
        session.advance(2.0)
        assert session.recorder is not None
        assert session.recorder.source == "serve"
