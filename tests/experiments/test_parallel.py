"""Tests for the sharded parallel replay engine."""

from __future__ import annotations

import pytest

from repro.core.verify import AuditReport
from repro.experiments import fig18, parallel
from repro.experiments.parallel import (
    ShardSpec,
    derive_shard_seed,
    make_shards,
    run_shard,
    run_sharded,
)
from repro.options import ObsOptions

#: A small fig16 slice: one system, few VIPs, short horizon — seconds, not
#: minutes, while still exercising workload build + replay + audit + merge.
FIG16_PARAMS = dict(
    num_vips=4,
    scale=0.1,
    horizon_s=20.0,
    warmup_s=3.0,
    updates_per_min=20.0,
    systems=("silkroad",),
)

CHAOS_PARAMS = dict(scale=0.03, horizon_s=10.0, updates_per_min=40.0)

#: A tiny Figure 18 grid that still breaks connections: a long learning-
#: filter timeout saturates the 8- and 16-byte filters in about a second.
FIG18_PARAMS = dict(
    sizes=(8, 16, 64),
    timeouts=(0.05,),
    scale=0.25,
    arrival_scale=8.0,
    horizon_s=8.0,
    warmup_s=2.0,
    updates_per_min=120.0,
)


class TestSeedDerivation:
    def test_distinct_per_shard(self):
        seeds = [derive_shard_seed(7, i) for i in range(64)]
        assert len(set(seeds)) == 64

    def test_distinct_per_base_seed(self):
        assert derive_shard_seed(7, 0) != derive_shard_seed(8, 0)

    def test_deterministic(self):
        assert derive_shard_seed(7, 3) == derive_shard_seed(7, 3)

    def test_rejects_negative_shard(self):
        with pytest.raises(ValueError):
            derive_shard_seed(7, -1)


class TestShardLayout:
    def test_layout_is_deterministic(self):
        a = make_shards("fig16", num_shards=3, seed=16, params=dict(FIG16_PARAMS))
        b = make_shards("fig16", num_shards=3, seed=16, params=dict(FIG16_PARAMS))
        assert a == b

    def test_fig16_vips_partition_exactly(self):
        specs = make_shards(
            "fig16", num_shards=3, seed=16, params=dict(FIG16_PARAMS)
        )
        assert sum(s.param_dict()["shard_vips"] for s in specs) == 4
        assert all(s.param_dict()["total_vips"] == 4 for s in specs)

    def test_fig16_rejects_more_shards_than_vips(self):
        with pytest.raises(ValueError):
            make_shards("fig16", num_shards=5, seed=16, params=dict(FIG16_PARAMS))

    def test_fig18_cells_partition_exactly(self):
        specs = make_shards(
            "fig18",
            num_shards=3,
            seed=18,
            params=dict(sizes=(8, 64, 256), timeouts=(0.5e-3, 5e-3)),
        )
        cells = [c for s in specs for c in s.param_dict()["cells"]]
        assert sorted(c[0] for c in cells) == list(range(6))
        # In fig18.run's order, each cell tagged with its index in the full
        # grid; every shard replays the base seed's trace, as fig18.run does.
        grid = fig18.grid((8, 64, 256), (0.5e-3, 5e-3))
        assert cells == [(i, *pair) for i, pair in enumerate(grid)]
        assert all(s.param_dict()["base_seed"] == 18 for s in specs)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_shards("nope", num_shards=2, seed=1)
        with pytest.raises(ValueError):
            run_shard(ShardSpec(task="nope", shard_id=0, num_shards=1, seed=1))


class TestOptionsAsValues:
    """Obs options cross the spawn boundary as the frozen dataclass
    itself; ``obs=`` is the only spelling, and there is no driver option."""

    OBS = ObsOptions(record=True, record_source="x", timeline_period_s=2.5)

    def test_spec_with_options_pickles_round_trip_and_hashes(self):
        import pickle

        specs = make_shards(
            "chaos",
            num_shards=2,
            seed=7,
            params=dict(CHAOS_PARAMS),
            obs=self.OBS,
        )
        for spec in specs:
            assert spec.obs == self.OBS
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec and hash(clone) == hash(spec)
            assert clone.obs.timeline_period_s == 2.5
        assert len(set(specs)) == 2
        # Options are part of the spec's identity, not of its params.
        plain = make_shards("chaos", num_shards=2, seed=7, params=dict(CHAOS_PARAMS))
        assert plain[0] != specs[0] and plain[0].params == specs[0].params

    @pytest.mark.parametrize(
        "params, keyword",
        [
            ({"record": True}, "obs="),
            ({"timeline_period_s": 1.0}, "obs="),
            ({"batched": False}, "not a chaos parameter"),
        ],
    )
    def test_option_keys_inside_params_are_rejected(self, params, keyword):
        with pytest.raises(ValueError, match=keyword):
            run_sharded("chaos", num_shards=1, workers=1, params=params)


@pytest.mark.usefixtures("no_spawn")
class TestParamsAreCheckedInTheParent:
    """A params key the task's runner does not take — misspelled, or
    another task's — and an unknown fleet pattern or fig16 system are the
    caller's errors: ``ValueError`` naming the offender and the accepted
    set, raised by the layout before any worker exists."""

    @pytest.mark.parametrize(
        "task, params, named",
        [
            ("chaos", {"scael": 0.01}, "'scael'.*scale"),  # misspelled
            ("fleet", {"patterns": ("crash", "bogus")}, "'bogus'.*cascade"),
            ("fleet", {"pattern": "crash"}, "'pattern'.*patterns"),  # shard's own
            ("fig18", {"systems": ("silkroad",)}, "'systems'.*fig18"),  # fig16's
            ("chaos", {"num_switches": 3}, "'num_switches'.*chaos"),  # fleet's
            ("fig16", {"systems": ("nope",)}, "'nope'.*silkroad"),
        ],
    )
    def test_bad_param_raises_naming_it(self, task, params, named):
        with pytest.raises(ValueError, match=named):
            run_sharded(task, num_shards=1, workers=2, params=params)

    def test_accepted_names_are_the_runner_signature(self):
        import inspect

        from repro.faults import run_chaos, run_fleet

        # Declared once: what a shard may be handed is read off the runner.
        chaos = set(inspect.signature(run_chaos).parameters) - {"seed", "obs"}
        assert parallel._accepted_params("chaos") == chaos
        fleet = set(inspect.signature(run_fleet).parameters)
        fleet -= {"seed", "fault_seed", "pattern", "obs"}
        assert parallel._accepted_params("fleet") == fleet | {
            "patterns", "plans_per_pattern",
        }
        cell_knobs = set(inspect.signature(fig18.cells).parameters) - {"pairs", "seed"}
        assert parallel._accepted_params("fig18") == cell_knobs | {"sizes", "timeouts"}
        # fig18's knobs and defaults live in fig18.cells, not in the shard.
        shard = inspect.signature(parallel._run_fig18_shard).parameters.values()
        assert all(p.default is p.empty for p in shard)

    def test_an_absent_knob_takes_the_runner_default(self):
        # No restated default between run_sharded and run_chaos: the spec of
        # an empty ``params`` carries nothing for the shard to forward.
        (spec,) = make_shards("chaos", num_shards=1, seed=7)
        assert spec.params == ()
        (spec,) = make_shards("chaos", num_shards=1, seed=7, params={"scale": 0.03})
        assert spec.params == (("scale", 0.03),)


class TestFingerprintEquivalence:
    """The ISSUE's property: worker count must not move the merged result."""

    def test_fig16_workers4_equals_workers1(self):
        serial = run_sharded(
            "fig16", num_shards=4, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        pooled = run_sharded(
            "fig16", num_shards=4, workers=4, seed=16, params=dict(FIG16_PARAMS)
        )
        assert serial.ok and pooled.ok
        assert pooled.fingerprint == serial.fingerprint
        assert pooled.details() == serial.details()
        assert pooled.audit.checks_run == serial.audit.checks_run

    def test_fig16_repeat_run_is_bit_identical(self):
        a = run_sharded(
            "fig16", num_shards=2, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        b = run_sharded(
            "fig16", num_shards=2, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        assert a.fingerprint == b.fingerprint

    def test_chaos_workers2_equals_workers1(self):
        serial = run_sharded(
            "chaos", num_shards=2, workers=1, seed=7, params=dict(CHAOS_PARAMS)
        )
        pooled = run_sharded(
            "chaos", num_shards=2, workers=2, seed=7, params=dict(CHAOS_PARAMS)
        )
        assert serial.ok and pooled.ok
        assert pooled.fingerprint == serial.fingerprint
        assert pooled.registry.get("chaos.faults_injected_total").value > 0

    def test_different_seed_moves_fingerprint(self):
        a = run_sharded(
            "fig16", num_shards=2, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        b = run_sharded(
            "fig16", num_shards=2, workers=1, seed=17, params=dict(FIG16_PARAMS)
        )
        assert a.fingerprint != b.fingerprint


class TestFig18ShardsReproduceTheFigure:
    """``run_sharded("fig18")`` runs fig18's own cell definition: every
    shard count reproduces ``fig18.run`` cell for cell."""

    @pytest.fixture(scope="class")
    def serial(self):
        return fig18.run(seed=18, **FIG18_PARAMS)

    @staticmethod
    def per_cell(result):
        return [
            (
                int(result.registry.get(f"cell{i:02d}.pcc_violations_total").value),
                int(result.registry.get(f"cell{i:02d}.transit_fp_adopted_total").value),
            )
            for i in range(3)
        ]

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_per_cell_results_equal_fig18_run(self, serial, num_shards):
        result = run_sharded(
            "fig18", num_shards=num_shards, workers=1, seed=18,
            params=dict(FIG18_PARAMS),
        )
        assert result.ok
        expected = [(p.violations, p.transit_fp_adopted) for p in serial]
        assert self.per_cell(result) == expected
        assert expected[0][0] > 0  # the shape does break connections

    def test_fingerprint_identical_on_1_and_2_workers(self):
        serial, pooled = (
            run_sharded(
                "fig18", num_shards=2, workers=workers, seed=18,
                params=dict(FIG18_PARAMS),
            )
            for workers in (1, 2)
        )
        assert pooled.fingerprint == serial.fingerprint
        assert pooled.details() == serial.details()


class TestTimelineAndRecorderSharding:
    """The observability layer extends the sharded-replay invariant: the
    merged Timeline fingerprint is bit-identical across worker counts."""

    OBS = ObsOptions(timeline_period_s=5.0, record=True)

    def test_timeline_fingerprint_identical_across_1_2_4_workers(self):
        results = {
            workers: run_sharded(
                "fig16",
                num_shards=4,
                workers=workers,
                seed=16,
                params=dict(FIG16_PARAMS),
                obs=self.OBS,
            )
            for workers in (1, 2, 4)
        }
        fingerprints = {
            r.timeline_fingerprint for r in results.values()
        }
        assert len(fingerprints) == 1 and None not in fingerprints
        # The recorder merge is deterministic too: same retained events in
        # the same order regardless of pool size.
        dumps = {
            workers: r.recorder.to_dicts() for workers, r in results.items()
        }
        assert dumps[1] == dumps[2] == dumps[4]
        assert results[1].fingerprint == results[4].fingerprint

    def test_merged_timeline_shape_and_columns(self):
        result = run_sharded(
            "fig16",
            num_shards=2,
            workers=1,
            seed=16,
            params=dict(FIG16_PARAMS),
            obs=self.OBS,
        )
        tl = result.timeline
        assert tl is not None
        # horizon 20s at period 5s: epochs 0, 5, 10, 15, 20.
        assert tl.epochs == [0.0, 5.0, 10.0, 15.0, 20.0]
        # Columns are system-prefixed, matching the registry fold.
        assert any(name.startswith("silkroad.") for name in tl.names())
        # The final epoch's merged counter equals the merged registry's.
        name = "silkroad.conn_table.inserts_total"
        if name in tl:
            assert tl.column(name)[-1] == result.registry.get(name).value

    def test_recorder_events_tagged_by_shard_and_system(self):
        result = run_sharded(
            "fig16",
            num_shards=2,
            workers=1,
            seed=16,
            params=dict(FIG16_PARAMS),
            obs=self.OBS,
        )
        rec = result.recorder
        assert rec is not None and len(rec) > 0
        sources = {e.source for e in rec.events()}
        assert sources == {"s0.silkroad", "s1.silkroad"}
        # Events interleave chronologically after the merge.
        times = [e.t for e in rec.events()]
        assert times == sorted(times)

    def test_chaos_shards_carry_timeline_and_recorder(self):
        result = run_sharded(
            "chaos",
            num_shards=2,
            workers=1,
            seed=7,
            params=dict(CHAOS_PARAMS),
            obs=ObsOptions(timeline_period_s=2.0, record=True),
        )
        assert result.timeline is not None
        assert result.timeline.epochs == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert result.recorder is not None and len(result.recorder) > 0
        assert {e.source for e in result.recorder.events()} == {
            "s0.chaos",
            "s1.chaos",
        }

    def test_disabled_by_default(self):
        result = run_sharded(
            "fig16", num_shards=2, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        assert result.timeline is None
        assert result.recorder is None
        assert result.timeline_fingerprint is None


class TestMergedView:
    def test_shards_carry_audits_and_metrics(self):
        result = run_sharded(
            "fig16", num_shards=2, workers=1, seed=16, params=dict(FIG16_PARAMS)
        )
        # Each shard audits its switch (7 checks with connections supplied).
        assert result.audit.checks_run == 14
        assert "silkroad.pcc_violations_total" in result.registry.names()
        assert "parallel.shards_total" in result.registry.names()
        assert result.registry.get("parallel.shards_total").value == 2.0
        # Switch metrics folded under the system prefix.
        assert any(
            name.startswith("silkroad.conn_table.") for name in result.registry.names()
        )

    def test_audit_merge_labels_violations(self):
        a = AuditReport(violations=["bad thing"], checks_run=3)
        b = AuditReport(checks_run=2)
        b.merge(a, label="shard-1")
        assert b.violations == ["[shard-1] bad thing"]
        assert b.checks_run == 5
        assert not b.ok

    def test_audit_merged_classmethod(self):
        merged = AuditReport.merged(
            [AuditReport(checks_run=1), AuditReport(violations=["x"], checks_run=2)]
        )
        assert merged.checks_run == 3
        assert merged.violations == ["x"]


class TestFaultTolerance:
    def test_crashed_shard_is_retried_once_and_recovers(self, tmp_path):
        marker = tmp_path / "crash-once"
        result = run_sharded(
            "_crashy",
            num_shards=2,
            workers=2,
            seed=1,
            params={"crash_once_marker": str(marker)},
        )
        # One shard died on its first attempt (os._exit, no message), was
        # retried in a fresh process, and succeeded.
        assert marker.exists()
        assert not result.failed
        assert result.registry.get("crashy.completions_total").value == 2.0

    def test_persistently_failing_shard_is_reported_not_fatal(self):
        result = run_sharded(
            "_crashy",
            num_shards=2,
            workers=2,
            seed=1,
            params={"always_fail": True},
        )
        assert len(result.failed) == 2
        assert not result.ok
        assert all("told to fail" in f.reason for f in result.failed)
        assert result.registry.get("parallel.shards_failed_total").value == 2.0

    def test_serial_path_reports_failures_too(self):
        result = run_sharded(
            "_crashy",
            num_shards=2,
            workers=1,
            seed=1,
            params={"always_fail": True},
        )
        assert len(result.failed) == 2 and not result.ok

    def test_worker_errors_counter_counts_every_failed_attempt(self):
        # 2 shards x (1 attempt + 1 retry), all failing: 4 error attempts.
        result = run_sharded(
            "_crashy",
            num_shards=2,
            workers=1,
            seed=1,
            retries=1,
            params={"always_fail": True},
        )
        assert result.registry.get("parallel.worker_errors_total").value == 4.0

    def test_worker_errors_counter_zero_on_clean_run(self):
        result = run_sharded("_crashy", num_shards=2, workers=1, seed=1)
        assert result.registry.get("parallel.worker_errors_total").value == 0.0
        assert result.registry.get("parallel.shards_failed_total").value == 0.0

    def test_recovered_crash_still_counts_an_error(self, tmp_path):
        marker = tmp_path / "crash-once"
        result = run_sharded(
            "_crashy",
            num_shards=2,
            workers=2,
            seed=1,
            params={"crash_once_marker": str(marker)},
        )
        assert not result.failed
        assert result.registry.get("parallel.worker_errors_total").value == 1.0

    def test_worker_with_a_dead_pipe_dies_loudly(self, capsys):
        """Both worker kinds ship through one wrapper: when even the error
        payload cannot be sent, the traceback lands on stderr and the
        exception propagates (a non-zero worker exit)."""
        from repro.experiments.parallel import _ship

        class DeadPipe:
            closed = False

            def send(self, message):
                raise BrokenPipeError("parent is gone")

            def close(self):
                self.closed = True

        def body():
            raise RuntimeError("shard blew up")

        pipe = DeadPipe()
        with pytest.raises(BrokenPipeError):
            _ship(pipe, "shard 3", body)
        err = capsys.readouterr().err
        assert "shard 3 failed and the error pipe is dead" in err
        assert "RuntimeError: shard blew up" in err
        assert pipe.closed

    def test_failed_attempts_are_logged(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel"):
            run_sharded(
                "_crashy",
                num_shards=1,
                workers=1,
                seed=1,
                retries=0,
                params={"always_fail": True},
            )
        assert any("told to fail" in r.message for r in caplog.records)


class TestFleetCellSeeding:
    """Fleet cells are seeded by content, not sweep position (the third
    ISSUE bugfix): permuting the patterns tuple must not move any cell's
    seeds, fingerprints or survival counters."""

    FLEET_PARAMS = dict(
        plans_per_pattern=2,
        num_switches=2,
        scale=0.03,
        horizon_s=10.0,
        warmup_s=2.0,
        faults_per_min=6.0,
    )

    def test_cell_identity_fixes_seeds_regardless_of_order(self):
        forward = make_shards(
            "fleet",
            num_shards=2,
            seed=9,
            params=dict(self.FLEET_PARAMS, patterns=("crash", "partition")),
        )
        backward = make_shards(
            "fleet",
            num_shards=2,
            seed=9,
            params=dict(self.FLEET_PARAMS, patterns=("partition", "crash")),
        )
        cells = lambda specs: {
            c for s in specs for c in s.param_dict()["cells"]
        }
        assert cells(forward) == cells(backward)
        assert all(
            s.param_dict()["base_seed"] == 9 for s in forward + backward
        )

    def test_pattern_permutation_preserves_fingerprint(self):
        forward = run_sharded(
            "fleet",
            num_shards=2,
            workers=1,
            seed=9,
            params=dict(self.FLEET_PARAMS, patterns=("crash", "partition")),
        )
        backward = run_sharded(
            "fleet",
            num_shards=2,
            workers=1,
            seed=9,
            params=dict(self.FLEET_PARAMS, patterns=("partition", "crash")),
        )
        assert forward.fingerprint == backward.fingerprint
        assert forward.details() == backward.details()
        assert forward.audit.checks_run == backward.audit.checks_run


class TestFleetShardAudit:
    """The sweep's audit is the fold of its cells' fleet audits: every
    attribution check counted once, every unattributed bucket reported
    once (the cell's own ``audit_fleet`` already carries both)."""

    CELL = dict(patterns=("crash",), scale=0.02, horizon_s=6.0)

    def _sweep(self, plans: int):
        return run_sharded(
            "fleet",
            num_shards=1,
            workers=1,
            seed=16,
            params=dict(self.CELL, plans_per_pattern=plans),
        )

    def test_checks_are_the_sum_of_the_cells_fleet_audits(self):
        from repro.faults import run_fleet

        sweep = self._sweep(plans=2)
        cells = [
            run_fleet(
                seed=parallel._fleet_cell_seed(16, "crash", i, 20_000),
                fault_seed=parallel._fleet_cell_seed(16, "crash", i, 30_000),
                pattern="crash",
                scale=0.02,
                horizon_s=6.0,
            )
            for i in range(2)
        ]
        assert sweep.audit.checks_run == sum(c.audit.audit.checks_run for c in cells)

    def test_an_unattributed_violation_is_reported_once(self, monkeypatch):
        from repro.deploy import fleet as deploy_fleet
        from repro.faults import fleet as faults_fleet

        def audit_with_a_ghost(fleet, connections):
            # One PCC violation no cause map or switch predicted.
            structural, predicted = deploy_fleet.collect_structural(fleet)
            rows = [(c.key, c.pcc_violated, c.ever_dropped) for c in connections]
            rows.append((b"ghost", True, False))
            return deploy_fleet.attribute_outcomes(
                structural, rows, fleet._move_cause, fleet._drop_cause, predicted
            )

        monkeypatch.setattr(faults_fleet, "audit_fleet", audit_with_a_ghost)
        sweep = self._sweep(plans=1)
        reports = [v for v in sweep.audit.violations if "PCC violations" in v]
        assert reports == [
            "[shard-0] [crash00] [fleet] 1 PCC violations with no attributable cause"
        ]
        assert sweep.registry.get("crash00.unattributed_total").value == 1.0
