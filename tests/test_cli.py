"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

#: ``pcc`` at the scenario the deleted ``telemetry`` command ran by default
#: (20 updates/min, a 50 K/s switch CPU, a 1 s timeline), shrunk.
TELEMETRY = (
    "pcc", "--scale", "0.05", "--horizon", "20", "--updates-per-min", "20",
    "--insertion-rate", "50000", "--timeline-period", "1",
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_args(self):
        args = build_parser().parse_args(["experiments", "fig2", "table2"])
        assert args.names == ["fig2", "table2"]

    def test_pcc_defaults(self):
        args = build_parser().parse_args(["pcc"])
        assert args.system == "silkroad"
        assert args.updates_per_min == 10.0

    def test_telemetry_defaults(self):
        # pcc's telemetry flags: untyped, a text rendering of the switch
        # at silkroad_factory's CPU rate, with no timeline sampled.
        args = build_parser().parse_args(["pcc"])
        assert args.format == "text"
        assert args.out is None
        assert args.timeline_period is None
        assert args.insertion_rate_per_s is None

    def test_the_eight_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        usage = capsys.readouterr().out
        listed = "{experiments,pcc,fleet,fleet-csv,forward,chaos,run,serve}"
        assert listed in usage

    @pytest.mark.parametrize("merged", ["trace", "explain", "telemetry"])
    def test_merged_commands_are_gone(self, merged, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([merged])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_observability_flags(self):
        args = build_parser().parse_args(
            ["run", "fig16", "--timeline", "--record", "--trace-out", "t.json"]
        )
        assert args.timeline and args.record
        assert args.timeline_period == 5.0
        assert args.trace_out == "t.json"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.trace_out is None
        assert args.timeline_period == 1.0

    def test_explain_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert not args.explain
        assert args.limit is None and args.json_out is None
        assert not args.require_complete
        assert args.conn_table_capacity is None and args.step_deadline_s is None


@pytest.mark.usefixtures("no_spawn")
class TestUsageErrors:
    """Input errors are usage errors: found in the parent process, one
    line on stderr naming the offender and the accepted set, exit 2 —
    never a spawned worker, never a retry."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fleet", "--patterns", "bogus"], ("'bogus'", "cascade")),
            (
                ["fleet", "--patterns", "bogus", "--partition-workers", "2"],
                ("'bogus'", "cascade"),
            ),
            (["fleet", "--replication", "0"], ("replication",)),
            (
                ["fleet", "--replication", "0", "--partition-workers", "2"],
                ("replication",),
            ),
            (
                ["run", "fig18", "--num-vips", "3", "--systems", "nope"],
                ("'systems'", "fig18", "sizes"),
            ),
            (["run", "fig16", "--systems", "nope"], ("'nope'", "silkroad")),
            (["chaos", "--scale", "0"], ("scale",)),
            (["run", "fleet"], ("'fleet'", "fig16", "fig18", "chaos")),
            (["pcc", "--system", "duet", "--format", "json"], ("duet", "--format")),
            (["pcc", "--system", "slb", "--insertion-rate", "1"], ("slb", "SilkRoad")),
            (["chaos", "--require-complete"], ("--explain",)),
        ],
    )
    def test_exit_2_with_one_line_naming_the_offender(self, argv, named, capsys, caplog):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: error: ")
        for word in named:
            assert word in line
        assert "retrying" not in caplog.text


class TestForwardOnlyWhatWasGiven:
    """A scenario flag has no default of its own: untyped, the runner's
    signature decides; typed, the value arrives as the same keyword."""

    def test_scenario_flags_default_to_untyped(self):
        parser = build_parser()
        for command in (
            "chaos", "chaos --explain", "chaos --trace-out t.json", "fleet", "serve",
            "run fig16",
        ):
            args = parser.parse_args(command.split())
            for dest in (
                "seed", "scale", "horizon_s", "updates_per_min", "faults_per_min",
                "num_switches", "num_shards", "workers",
            ):
                assert getattr(args, dest, None) is None, (command, dest)

    @pytest.fixture(scope="class")
    def default_run(self):
        from repro.api import run_chaos

        return run_chaos()

    def test_chaos_no_flags_is_run_chaos_no_arguments(self, capsys, default_run):
        assert main(["chaos", "--check-determinism"]) == 0
        printed = capsys.readouterr().out
        assert default_run.summary() in printed
        assert f"determinism ok (fingerprint {default_run.fingerprint[:16]})" in printed

    def test_one_explicit_flag_is_the_keyword(self, capsys, default_run):
        from repro.api import run_chaos

        assert main(["chaos", "--scale", "0.03", "--check-determinism"]) == 0
        printed = capsys.readouterr().out
        keyword = run_chaos(scale=0.03)
        assert keyword.fingerprint != default_run.fingerprint
        assert keyword.summary() in printed
        assert f"determinism ok (fingerprint {keyword.fingerprint[:16]})" in printed

    def test_run_chaos_and_the_python_api_agree(self, tmp_path):
        from repro.api import run_sharded

        fps = tmp_path / "fps.txt"
        argv = ["run", "chaos", "--num-shards", "2", "--workers", "1"]
        assert main([*argv, "--fingerprint-out", str(fps)]) == 0
        api = run_sharded("chaos", num_shards=2, workers=1)
        assert fps.read_text() == f"registry {api.fingerprint}\n"


class TestCommands:
    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "table2" in out

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "SRAM" in capsys.readouterr().out

    def test_fleet_csv(self, capsys):
        assert main(["fleet-csv", "--seed", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("name,kind,")
        assert len(out) == 1 + 100  # header + fleet

    def test_fleet_survival(self, capsys, tmp_path):
        fp_path = tmp_path / "fleet.fp"
        assert (
            main(
                [
                    "fleet",
                    "--plans", "5",
                    "--scale", "0.02",
                    "--horizon", "8",
                    "--num-switches", "3",
                    "--num-shards", "2",
                    "--workers", "1",
                    "--check-determinism",
                    "--fingerprint-out", str(fp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The one survival table (fleet_failover's renderer): one row per
        # pattern, one plan each, every audit ok and nothing unattributed.
        assert "fleet failover survival under seeded chaos" in out
        assert "determinism ok" in out
        rows = {
            cells[0]: cells
            for cells in (line.split() for line in out.splitlines())
            if len(cells) == 12 and cells[1].isdigit()
        }
        assert sorted(rows) == sorted(("crash", "partition", "flap", "cascade", "mixed"))
        for cells in rows.values():
            plans, measured, unattributed, audit = cells[1], cells[3], cells[10], cells[11]
            assert (plans, unattributed, audit) == ("1", "0", "ok")
            assert int(measured.replace(",", "")) > 0
        content = fp_path.read_text()
        assert content.startswith("registry ")

    def test_forward(self, capsys):
        assert main(["forward", "--vips", "2", "--dips", "4", "--count", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert all("->" in line for line in out)

    def test_telemetry_json(self, capsys):
        import json

        code = main([*TELEMETRY, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["metrics"]
        for name in (
            "conn_table.lookups_total",
            "learning_filter.events_offered_total",
            "switch_cpu.installs_total",
            "transit_table.checks_total",
        ):
            assert name in metrics
        complete = [
            s
            for s in doc["spans"]
            if s["name"] == "pcc_update"
            and {"t_req", "t_exec", "t_finish"} <= set(s["marks"])
        ]
        assert complete, "expected a complete 3-step update span"
        # Series are keyed by registry instrument name: one namespace.
        occupancy = doc["series"]["conn_table.occupancy"]
        assert set(occupancy) == {"min", "mean", "p50", "p99", "max", "last"}
        assert "switch_cpu.backlog" in doc["series"]

    def test_telemetry_prom_round_trips(self, capsys):
        from repro.obs import parse_prometheus_text

        code = main([*TELEMETRY, "--format", "prom"])
        assert code == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert "repro_conn_table_inserts_total" in samples

    def test_telemetry_out_file(self, tmp_path):
        import json

        out = tmp_path / "tel.jsonl"
        code = main([*TELEMETRY, "--format", "jsonl", "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = {r["record"] for r in records}
        assert {"metric", "span", "scenario", "report", "series"} <= kinds

    def test_run_with_timeline_record_and_trace_out(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace = tmp_path / "trace.json"
        fps = tmp_path / "fps.txt"
        code = main(
            [
                "run", "fig16", "--num-shards", "2", "--workers", "1",
                "--num-vips", "4", "--scale", "0.1", "--horizon", "20",
                "--updates-per-min", "20", "--systems", "silkroad",
                "--timeline", "--record",
                "--trace-out", str(trace), "--fingerprint-out", str(fps),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "recorder:" in out
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]
        lines = dict(
            line.split(maxsplit=1) for line in fps.read_text().splitlines()
        )
        assert set(lines) == {"registry", "timeline"}
        assert all(len(fp) == 64 for fp in lines.values())

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main(
            [
                "chaos", "--scale", "0.03", "--horizon", "10",
                "--timeline-period", "1", "--trace-out", str(out),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"i", "C", "M"} <= phases  # recorder lanes + timeline tracks

    def test_explain_require_complete_gate(self, tmp_path, capsys):
        import json

        out = tmp_path / "stories.json"
        code = main(
            [
                "chaos", "--explain", "--seed", "1", "--scale", "0.1", "--horizon", "20",
                "--updates-per-min", "200", "--faults-per-min", "90",
                "--conn-table-capacity", "400", "--limit", "2",
                "--json-out", str(out), "--require-complete",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "explain coverage complete" in stdout
        assert "cause:" in stdout
        doc = json.loads(out.read_text())
        assert doc["coverage"]["violations"] > 0
        assert doc["coverage"]["unattributed"] == 0
        assert len(doc["stories"]) == doc["coverage"]["violations"]

    def test_pcc_small_run(self, capsys):
        code = main(
            [
                "pcc", "--system", "slb", "--updates-per-min", "5",
                "--scale", "0.1", "--horizon", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "broke PCC" in out
        assert "peak_connections:" in out

    @pytest.mark.parametrize(
        "system, counts",
        [
            ("duet", ("migrations_to_slb:", "migrations_back:", "vips_at_slb:")),
            # A switch prints its registry once, as format_metrics renders
            # it, and its update records as format_spans does.
            ("silkroad", ("switch.stale_updates", "switch_cpu.jobs_shed_total",
                          "trace spans")),
        ],
    )
    def test_pcc_prints_the_system_counts(self, capsys, system, counts):
        argv = ["pcc", "--system", system, "--scale", "0.1", "--horizon", "30"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for count in counts:
            assert count in out
