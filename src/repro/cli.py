"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``experiments [names...]`` — regenerate paper tables/figures (all by
  default; see ``--list``).
* ``pcc`` — run one flow-level PCC simulation against a chosen system and
  print the report.
* ``fleet`` — run the fleet chaos survival sweep: seeded switch crashes,
  partitions, flaps, heartbeat loss, and VIP reassignments against a
  controller-managed fleet, print the kept/broken/blackholed survival
  table per failure pattern, and exit non-zero unless every PCC violation
  and drop is attributed (the CI fleet smoke step).
* ``fleet-csv`` — synthesize the cluster fleet and dump per-cluster
  statistics as CSV.
* ``forward`` — push a synthetic packet through the P4 SilkRoad pipeline
  and print the forwarding decision.
* ``telemetry`` — run a small scenario and emit the full metric/trace dump
  (JSON, JSONL, Prometheus text, or a human-readable table).
* ``chaos`` — run a seeded fault-injection simulation against the hardened
  slow path, audit every invariant, and exit non-zero on violations (the
  CI chaos smoke step).  ``--workers N`` fans the run out over derived
  seeds via the sharded replay engine.
* ``run`` — run one shardable experiment (``fig16``, ``fig18``,
  ``chaos``, ``fleet``) through the sharded parallel replay engine;
  ``--workers N``
  sizes the process pool without changing the merged result.
  ``--timeline`` / ``--record`` attach the time-resolved observability
  layer (epoch-sampled metric timeline, flight-recorder event ring) and
  ``--trace-out`` renders both to a Perfetto-loadable ``trace.json``.
* ``trace`` — run one fault-injected scenario with the tracer, flight
  recorder, and timeline sampler all armed, and write the merged
  Chrome-trace/Perfetto document.
* ``explain`` — PCC forensics: run a recorded chaos scenario and print
  the causal timeline behind every PCC violation (``--require-complete``
  exits non-zero unless every violation is attributed with recorder
  evidence; the CI gate).
* ``serve`` — long-lived serving mode: a switch (or ``--fleet N``) fed by
  a streaming flow source behind an HTTP control API (add/drain/remove a
  DIP, change weights, reassign a VIP, scrape ``/metrics``).  By default
  runs the scripted live DIP migration over real HTTP on the virtual
  clock and audits the result (the CI serve smoke step);  ``--listen``
  serves interactively instead, ``--wallclock`` self-paces time.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import List, Optional


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import runner

    if args.list:
        print("\n".join(runner.EXPERIMENTS))
        return 0
    names = args.names or None
    unknown = [n for n in (names or []) if n not in runner.EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    runner.run_all(names, stream=sys.stdout, telemetry=args.telemetry)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json

    from .analysis.reporting import format_metrics, format_spans
    from .experiments.common import build_workload, silkroad_factory
    from .obs import ObsHook, iter_jsonl, to_prometheus_text, tracer_stats, write_jsonl

    factory = silkroad_factory(
        use_transit_table=(args.system != "silkroad-no-tt"),
        insertion_rate_per_s=args.insertion_rate,
    )
    workload = build_workload(
        updates_per_min=args.updates_per_min,
        scale=args.scale,
        seed=args.seed,
        horizon_s=args.horizon,
    )
    # A timeline sampler rides the replay so the dump carries time series
    # alongside counters and spans.
    hook = ObsHook(
        _obs_options(timeline_period_s=args.period), "telemetry", workload.horizon_s
    )
    report, _conns, lb = workload.replay(factory, attach=hook)

    doc = report.telemetry or lb.telemetry_snapshot()
    doc["scenario"] = {
        "system": args.system,
        "updates_per_min": args.updates_per_min,
        "scale": args.scale,
        "horizon_s": args.horizon,
        "seed": args.seed,
        "insertion_rate_per_s": args.insertion_rate,
        "sample_period_s": args.period,
    }
    doc["report"] = {
        "total_connections": report.total_connections,
        "measured_connections": report.measured_connections,
        "pcc_violations": report.pcc_violations,
        "violation_fraction": report.violation_fraction,
    }
    doc["series"] = hook.timeline.summary()

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "json":
            json.dump(doc, out, indent=2, sort_keys=True, default=str)
            out.write("\n")
        elif args.format == "jsonl":
            records = list(iter_jsonl(lb.metrics, lb.tracer))
            for key in ("scenario", "report", "series"):
                records.append({"record": key, **doc[key]})
            write_jsonl(out, records)
        elif args.format == "prom":
            out.write(to_prometheus_text(lb.metrics, tracer=lb.tracer))
        else:  # text
            print(report.summary(), file=out)
            stats = tracer_stats(lb.tracer)
            print(
                f"spans: {stats['spans_started']} started, "
                f"{stats['spans_finished']} finished, "
                f"{stats['spans_dropped']} dropped, "
                f"{stats['spans_open']} open",
                file=out,
            )
            print(file=out)
            print(format_metrics(doc["metrics"]), file=out)
            print(file=out)
            print(format_spans(doc["spans"]), file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_pcc(args: argparse.Namespace) -> int:
    from .baselines import DuetLoadBalancer, MigrationPolicy, SoftwareLoadBalancer
    from .experiments.common import build_workload, silkroad_factory

    factories = {
        "silkroad": silkroad_factory(),
        "silkroad-no-tt": silkroad_factory(use_transit_table=False),
        "duet": lambda: DuetLoadBalancer(
            policy=MigrationPolicy.PERIODIC, migrate_period_s=args.duet_period
        ),
        "slb": lambda: SoftwareLoadBalancer(),
    }
    workload = build_workload(
        updates_per_min=args.updates_per_min,
        scale=args.scale,
        seed=args.seed,
        horizon_s=args.horizon,
    )
    report, _conns, lb = workload.replay(factories[args.system], batched=args.batched)
    print(report.summary())
    for key, value in sorted(report.extra.items()):
        print(f"  {key}: {value}")
    return 0


def _cmd_fleet_csv(args: argparse.Namespace) -> int:
    from .traces import FleetSynthesizer

    profiles = FleetSynthesizer(seed=args.seed).synthesize()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "name", "kind", "num_tors", "num_vips", "dips_per_vip",
            "active_conns_per_tor_p99", "updates_per_min_p99",
            "new_conns_per_vip_per_min", "traffic_gbps", "ipv6",
        ]
    )
    for p in profiles:
        writer.writerow(
            [
                p.name, p.kind.value, p.num_tors, p.num_vips, p.dips_per_vip,
                f"{p.active_conns_per_tor_p99:.0f}",
                f"{p.updates_per_min_p99:.2f}",
                f"{p.new_conns_per_vip_per_min:.0f}",
                f"{p.traffic_gbps:.1f}", p.ipv6,
            ]
        )
    print(out.getvalue(), end="")
    return 0


def _fail_sharded(result) -> int:
    """Print a failed sharded run's audit and per-shard reasons; exit 1."""
    print(str(result.audit), file=sys.stderr)
    for failure in result.failed:
        print(f"shard {failure.shard_id} FAILED: {failure.reason}", file=sys.stderr)
    return 1


def _cmd_fleet_partitioned(args: argparse.Namespace, pattern: str) -> int:
    """One fleet run, space-partitioned over ``--partition-workers``."""
    from .experiments.parallel import run_fleet_partitioned

    def once(workers, in_process=None):
        return run_fleet_partitioned(
            partition_workers=workers,
            in_process=in_process,
            seed=args.seed,
            pattern=pattern,
            num_switches=args.num_switches,
            scale=args.scale,
            horizon_s=args.horizon,
            updates_per_min=args.updates_per_min,
            faults_per_min=args.faults_per_min,
            replication=args.replication,
            conn_budget=args.conn_budget,
            driver=_driver_options(args),
        )

    result = once(args.partition_workers)
    print(result.summary())
    if args.check_determinism:
        # One worker, in-process: the unpartitioned baseline every
        # partition width must reproduce bit-for-bit.
        again = once(1, in_process=True)
        diverged = []
        if again.fingerprint != result.fingerprint:
            diverged.append("registry fingerprint")
        if again.audit_fingerprint != result.audit_fingerprint:
            diverged.append("audit fingerprint")
        if again.survival != result.survival:
            diverged.append("survival counts")
        if diverged:
            print(
                "FAIL: partitioned run diverged from 1-worker baseline "
                f"({', '.join(diverged)})",
                file=sys.stderr,
            )
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    if args.fingerprint_out:
        with open(args.fingerprint_out, "w") as fh:
            fh.write(f"registry {result.fingerprint}\n")
            fh.write(f"audit {result.audit_fingerprint}\n")
    if not result.ok:
        print(str(result.audit), file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .faults.fleet import run_fleet_sharded

    patterns = tuple(p for p in args.patterns.split(",") if p)
    if not patterns:
        print("no failure patterns given", file=sys.stderr)
        return 2
    if args.partition_workers is not None:
        return _cmd_fleet_partitioned(args, patterns[0])
    # --plans is the total sweep size; distribute evenly, rounding up so
    # the sweep never shrinks below what was asked for.
    plans_per_pattern = max(1, -(-args.plans // len(patterns)))

    def once(workers):
        return run_fleet_sharded(
            num_shards=args.num_shards,
            workers=workers,
            seed=args.seed,
            patterns=patterns,
            plans_per_pattern=plans_per_pattern,
            num_switches=args.num_switches,
            scale=args.scale,
            horizon_s=args.horizon,
            updates_per_min=args.updates_per_min,
            faults_per_min=args.faults_per_min,
            replication=args.replication,
            conn_budget=args.conn_budget,
            driver=_driver_options(args),
        )

    result = once(args.workers)
    print(result.summary())
    print(
        f"  survival over {len(patterns) * plans_per_pattern} fault plans "
        f"({plans_per_pattern} per pattern):"
    )
    for pattern in patterns:
        get = lambda key: int(result.counters.get(f"{pattern}.{key}", 0.0))
        measured = get("measured")
        kept = get("kept")
        pct = 100.0 * kept / measured if measured else 100.0
        print(
            f"    {pattern:>10}: {measured} measured — {kept} kept "
            f"({pct:.1f}%), {get('broken')} broken, "
            f"{get('blackholed')} blackholed, {get('shed')} shed"
        )
    if args.check_determinism:
        # The second pass runs serial: the survival table, audit, and
        # merged registry must not move with pool size (or across repeat
        # runs — the layout is a pure function of the flags).
        again = once(1)
        diverged = []
        if again.fingerprint != result.fingerprint:
            diverged.append("registry fingerprint")
        if (
            again.audit.checks_run != result.audit.checks_run
            or again.audit.violations != result.audit.violations
        ):
            diverged.append("audit report")
        if again.counters != result.counters:
            diverged.append("survival counters")
        if diverged:
            print(
                f"FAIL: same-seed fleet runs diverged ({', '.join(diverged)})",
                file=sys.stderr,
            )
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    if args.fingerprint_out:
        with open(args.fingerprint_out, "w") as fh:
            fh.write(f"registry {result.fingerprint}\n")
    return 0 if result.ok else _fail_sharded(result)


def _cmd_forward(args: argparse.Namespace) -> int:
    from .netsim import make_cluster
    from .netsim.packet import TupleFactory
    from .p4 import SilkRoadP4, build_packet, read_pcap, write_pcap

    cluster = make_cluster(num_vips=args.vips, dips_per_vip=args.dips)
    p4 = SilkRoadP4()
    for service in cluster.services:
        p4.program_vip(service.vip, version=0)
        p4.program_pool(service.vip, 0, service.dips)

    if args.pcap_in:
        frames = read_pcap(args.pcap_in)
        for ts, data in frames:
            result = p4.process(data)
            state = "dropped" if result.dropped else f"-> {result.dip}"
            print(f"[{ts:12.6f}] {state}")
        return 0

    factory = TupleFactory()
    emitted = []
    for i in range(args.count):
        ft = factory.next_for(cluster.vips[i % args.vips])
        frame = build_packet(ft, syn=True)
        result = p4.process(frame)
        emitted.append((float(i) * 1e-3, frame))
        print(
            f"{ft} -> {result.dip} (version v{result.version}, "
            f"{'learned' if result.learned else 'hit'})"
        )
    if args.pcap_out:
        count = write_pcap(args.pcap_out, emitted)
        print(f"wrote {count} frames to {args.pcap_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.workers > 1 or args.num_shards > 1:
        return _cmd_chaos_sharded(args)
    from .faults import run_chaos

    result = run_chaos(
        seed=args.seed,
        fault_seed=args.fault_seed,
        scale=args.scale,
        horizon_s=args.horizon,
        updates_per_min=args.updates_per_min,
        faults_per_min=args.faults_per_min,
        driver=_driver_options(args),
    )
    print(result.summary())
    if args.check_determinism:
        # The second pass swaps drivers: same-seed batched and scalar runs
        # must land on the same fingerprint (the differential contract).
        again = run_chaos(
            seed=args.seed,
            fault_seed=args.fault_seed,
            scale=args.scale,
            horizon_s=args.horizon,
            updates_per_min=args.updates_per_min,
            faults_per_min=args.faults_per_min,
            driver=_driver_options(args, batched=not args.batched),
        )
        if again.fingerprint != result.fingerprint:
            print("FAIL: same-seed runs diverged", file=sys.stderr)
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    if not result.ok:
        print(str(result.audit), file=sys.stderr)
        if result.overdue_updates:
            print(
                f"FAIL: {result.overdue_updates} updates overran the "
                f"watchdog budget",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_chaos_sharded(args: argparse.Namespace) -> int:
    from .faults import run_chaos_sharded

    def once():
        return run_chaos_sharded(
            num_shards=args.num_shards,
            workers=args.workers,
            seed=args.seed,
            scale=args.scale,
            horizon_s=args.horizon,
            updates_per_min=args.updates_per_min,
            faults_per_min=args.faults_per_min,
            driver=_driver_options(args),
        )

    result = once()
    print(result.summary())
    if args.check_determinism:
        # The second pass runs serial: a pool-size change must not move
        # the merged fingerprint, so this checks both repeatability and
        # worker-count independence at once.
        again = run_chaos_sharded(
            num_shards=args.num_shards,
            workers=1,
            seed=args.seed,
            scale=args.scale,
            horizon_s=args.horizon,
            updates_per_min=args.updates_per_min,
            faults_per_min=args.faults_per_min,
            driver=_driver_options(args),
        )
        if again.fingerprint != result.fingerprint:
            print("FAIL: same-seed sharded runs diverged", file=sys.stderr)
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    return 0 if result.ok else _fail_sharded(result)


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.parallel import run_sharded
    from .experiments.runner import PARALLEL_TASKS

    seed = args.seed if args.seed is not None else PARALLEL_TASKS[args.task]
    params = {}
    if args.scale is not None:
        params["scale"] = args.scale
    if args.horizon is not None:
        params["horizon_s"] = args.horizon
    if args.updates_per_min is not None:
        params["updates_per_min"] = args.updates_per_min
    if args.num_vips is not None and args.task == "fig16":
        params["num_vips"] = args.num_vips
    if args.systems is not None and args.task == "fig16":
        params["systems"] = tuple(args.systems.split(","))
    result = run_sharded(
        args.task,
        num_shards=args.num_shards,
        workers=args.workers,
        seed=seed,
        params=params,
        driver=_driver_options(args),
        obs=_obs_options(
            record=args.record,
            timeline_period_s=args.timeline_period if args.timeline else None,
        ),
    )
    print("\n".join([result.summary(), *result.details()]))
    if args.trace_out:
        from .obs import validate_chrome_trace, to_chrome_trace, write_chrome_trace

        doc = to_chrome_trace(
            recorder=result.recorder,
            timeline=result.timeline,
            metadata={"task": args.task, "seed": seed},
        )
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(f"trace schema: {problem}", file=sys.stderr)
            return 1
        count = write_chrome_trace(
            args.trace_out,
            recorder=result.recorder,
            timeline=result.timeline,
            metadata={"task": args.task, "seed": seed},
        )
        print(f"  wrote {count} trace events to {args.trace_out}")
    if args.fingerprint_out:
        with open(args.fingerprint_out, "w") as fh:
            fh.write(f"registry {result.fingerprint}\n")
            if result.timeline is not None:
                fh.write(f"timeline {result.timeline_fingerprint}\n")
    return 0 if result.ok else _fail_sharded(result)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .faults import run_chaos
    from .obs import validate_chrome_trace, to_chrome_trace, write_chrome_trace

    result = run_chaos(
        seed=args.seed,
        scale=args.scale,
        horizon_s=args.horizon,
        updates_per_min=args.updates_per_min,
        faults_per_min=args.faults_per_min,
        obs=_obs_options(record=True, timeline_period_s=args.period),
    )
    print(result.summary())
    recorder = result.recorder
    print(
        f"recorder: {len(recorder)} events retained, "
        f"{recorder.total_dropped} dropped"
    )
    print(
        f"timeline: {len(result.timeline)} epochs x "
        f"{len(result.timeline.columns)} columns"
    )
    doc = to_chrome_trace(
        tracer=result.switch.tracer,
        recorder=recorder,
        timeline=result.timeline,
        metadata={"scenario": "chaos", "seed": args.seed},
    )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"trace schema: {problem}", file=sys.stderr)
        return 1
    count = write_chrome_trace(
        args.out,
        tracer=result.switch.tracer,
        recorder=recorder,
        timeline=result.timeline,
        metadata={"scenario": "chaos", "seed": args.seed},
    )
    print(f"wrote {count} trace events to {args.out} (load in ui.perfetto.dev)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .faults import run_chaos
    from .faults.chaos import chaos_config
    from .obs import coverage, explain_violations, format_stories

    config = None
    if args.conn_table_capacity is not None or args.step_deadline is not None:
        kwargs = {}
        if args.conn_table_capacity is not None:
            kwargs["conn_table_capacity"] = args.conn_table_capacity
        if args.step_deadline is not None:
            kwargs["step_deadline_s"] = args.step_deadline
        config = chaos_config(**kwargs)
    result = run_chaos(
        seed=args.seed,
        fault_seed=args.fault_seed,
        scale=args.scale,
        horizon_s=args.horizon,
        updates_per_min=args.updates_per_min,
        faults_per_min=args.faults_per_min,
        config=config,
        obs=_obs_options(record=True),
    )
    stories = explain_violations(
        result.switch, result.connections, recorder=result.recorder
    )
    print(result.summary())
    print()
    print(format_stories(stories, limit=args.limit))
    stats = coverage(stories)
    print()
    print(
        f"coverage: {stats['violations']} violation(s), "
        f"{stats['attributed']} attributed, "
        f"{stats['attributed_with_events']} with recorder evidence, "
        f"{stats['unattributed']} unattributed"
    )
    if args.json_out:
        import json

        with open(args.json_out, "w") as fh:
            json.dump(
                {
                    "coverage": stats,
                    "stories": [story.to_dict() for story in stories],
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    if args.require_complete:
        incomplete = (
            stats["unattributed"] > 0
            or stats["attributed_with_events"] < stats["attributed"]
        )
        if incomplete:
            print(
                "FAIL: not every PCC violation has an attributed causal "
                "chain with recorder evidence",
                file=sys.stderr,
            )
            return 1
        print("explain coverage complete")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeConfig

    if args.wallclock and args.listen is None:
        print("--wallclock requires --listen", file=sys.stderr)
        return 2
    config = ServeConfig(
        seed=args.seed,
        scale=args.scale,
        num_switches=args.fleet,
        chaos=args.chaos,
        faults_per_min=args.faults_per_min,
        driver=_driver_options(args),
        obs=_obs_options(record=args.record),
        wallclock=args.wallclock,
    )

    if args.listen is not None:
        # Interactive mode: serve the control API until POST /shutdown.
        import asyncio

        from .serve import ControlServer, ServeSession

        async def serve() -> int:
            session = ServeSession(config)
            server = ControlServer(session, host=args.host, port=args.listen)
            await server.start()
            clock = "wallclock" if args.wallclock else "virtual (POST /advance)"
            print(
                f"serving on http://{server.host}:{server.port} "
                f"[{clock} clock, "
                f"{'fleet of ' + str(args.fleet) if args.fleet > 1 else 'single switch'}"
                f"{', chaos' if args.chaos else ''}]; POST /shutdown to stop"
            )
            await server.wait_shutdown()
            return 0

        return asyncio.run(serve())

    # Scripted mode: drive the default live-migration script (or a JSON
    # op list) over real HTTP, then audit.
    from .serve import run_serve_script

    script = None
    if args.script is not None:
        with open(args.script) as fh:
            script = json.load(fh)
    result = run_serve_script(config, script)
    report = result.report
    print(
        f"serve[{args.seed}]: {report['total_connections']} connections, "
        f"{report['mutations']} mutations over {report['advances']} advances, "
        f"{report['pcc_violations']} PCC violations "
        f"({report['unattributed_violations']} unattributed), "
        f"audit {'ok' if report['audit_ok'] else 'FAILED'}"
    )
    if args.check_determinism:
        again = run_serve_script(config, script)
        if again.fingerprint != result.fingerprint:
            print("FAIL: same-script serve runs diverged", file=sys.stderr)
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    if args.telemetry_out:
        with open(args.telemetry_out, "w") as fh:
            fh.write(result.telemetry)
        print(f"wrote {args.telemetry_out}")
    if args.fingerprint_out:
        with open(args.fingerprint_out, "w") as fh:
            fh.write(result.fingerprint + "\n")
    if not result.ok:
        print(str(report.get("audit_detail", "audit failed")), file=sys.stderr)
        return 1
    return 0


def _add_driver_flags(parser: argparse.ArgumentParser) -> None:
    """``--batched`` / ``--scalar``: which replay driver to use.

    Batched (the default) is the chunked-arrival
    :class:`~repro.netsim.batchsim.BatchedFlowSimulator`; ``--scalar``
    selects the event-at-a-time oracle.  Results are bit-identical either
    way — the flag trades speed for the simpler driver.  Commands turn
    the parsed flags into a :class:`repro.options.DriverOptions` via
    :func:`_driver_options` rather than threading the loose boolean.
    """
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--batched",
        dest="batched",
        action="store_true",
        default=True,
        help="chunked-arrival replay driver (default)",
    )
    group.add_argument(
        "--scalar",
        dest="batched",
        action="store_false",
        help="scalar event-at-a-time oracle driver",
    )


def _driver_options(args: argparse.Namespace, batched: Optional[bool] = None):
    """The :class:`~repro.options.DriverOptions` the parsed flags selected."""
    from .options import DriverOptions

    return DriverOptions(batched=args.batched if batched is None else batched)


def _obs_options(
    record: bool = False, timeline_period_s: Optional[float] = None
):
    """An :class:`~repro.options.ObsOptions` for a CLI-requested run."""
    from .options import ObsOptions

    return ObsOptions(record=record, timeline_period_s=timeline_period_s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SilkRoad reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", help="experiment names (default: all)")
    p_exp.add_argument("--list", action="store_true", help="list experiment names")
    p_exp.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write per-experiment runner metrics to PATH as JSONL",
    )
    p_exp.set_defaults(fn=_cmd_experiments)

    p_pcc = sub.add_parser("pcc", help="run one PCC simulation")
    p_pcc.add_argument(
        "--system",
        choices=("silkroad", "silkroad-no-tt", "duet", "slb"),
        default="silkroad",
    )
    p_pcc.add_argument("--updates-per-min", type=float, default=10.0)
    p_pcc.add_argument("--scale", type=float, default=0.5)
    p_pcc.add_argument("--horizon", type=float, default=120.0)
    p_pcc.add_argument("--seed", type=int, default=7)
    p_pcc.add_argument("--duet-period", type=float, default=120.0)
    _add_driver_flags(p_pcc)
    p_pcc.set_defaults(fn=_cmd_pcc)

    p_fleet = sub.add_parser(
        "fleet", help="fleet chaos survival sweep with attribution audit"
    )
    p_fleet.add_argument("--seed", type=int, default=7)
    p_fleet.add_argument(
        "--plans",
        type=int,
        default=20,
        help="total fault plans in the sweep (split across patterns)",
    )
    p_fleet.add_argument(
        "--patterns",
        default="crash,partition,flap,cascade,mixed",
        help="comma-separated failure patterns to sweep",
    )
    p_fleet.add_argument("--num-switches", type=int, default=4)
    p_fleet.add_argument("--scale", type=float, default=0.05)
    p_fleet.add_argument("--horizon", type=float, default=20.0)
    p_fleet.add_argument("--updates-per-min", type=float, default=60.0)
    p_fleet.add_argument("--faults-per-min", type=float, default=4.0)
    p_fleet.add_argument(
        "--replication",
        type=int,
        default=None,
        help="switches each VIP is announced on (default: all)",
    )
    p_fleet.add_argument(
        "--conn-budget",
        type=int,
        default=None,
        help="per-switch connection budget; over it, low-priority VIPs shed",
    )
    p_fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: min(num_shards, CPU count))",
    )
    p_fleet.add_argument(
        "--num-shards",
        type=int,
        default=4,
        help="deterministic shard count; fixes the merged fingerprint",
    )
    p_fleet.add_argument(
        "--partition-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "space-partition ONE fleet run across N workers (one switch "
            "subset each, epoch-barrier lockstep) instead of sweeping a "
            "bag of runs; uses the first --patterns entry"
        ),
    )
    p_fleet.add_argument(
        "--check-determinism",
        action="store_true",
        help="rerun serial and require identical fingerprints/audit/counters",
    )
    p_fleet.add_argument(
        "--fingerprint-out",
        metavar="PATH",
        help="write the merged registry fingerprint to PATH",
    )
    _add_driver_flags(p_fleet)
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_fleet_csv = sub.add_parser(
        "fleet-csv", help="dump the synthetic fleet as CSV"
    )
    p_fleet_csv.add_argument("--seed", type=int, default=0xF1EE7)
    p_fleet_csv.set_defaults(fn=_cmd_fleet_csv)

    p_fwd = sub.add_parser("forward", help="forward packets through the P4 pipeline")
    p_fwd.add_argument("--vips", type=int, default=2)
    p_fwd.add_argument("--dips", type=int, default=4)
    p_fwd.add_argument("--count", type=int, default=5)
    p_fwd.add_argument("--pcap-out", help="write the generated frames to a pcap")
    p_fwd.add_argument("--pcap-in", help="replay frames from a pcap instead")
    p_fwd.set_defaults(fn=_cmd_forward)

    p_tel = sub.add_parser(
        "telemetry", help="run a scenario and dump the metric/trace telemetry"
    )
    p_tel.add_argument(
        "--system", choices=("silkroad", "silkroad-no-tt"), default="silkroad"
    )
    p_tel.add_argument("--updates-per-min", type=float, default=20.0)
    p_tel.add_argument("--scale", type=float, default=0.2)
    p_tel.add_argument("--horizon", type=float, default=60.0)
    p_tel.add_argument("--seed", type=int, default=7)
    p_tel.add_argument("--period", type=float, default=1.0, help="sample period (s)")
    p_tel.add_argument(
        "--insertion-rate",
        type=float,
        default=50_000.0,
        help="switch-CPU insertion rate (lower it to see queueing in spans)",
    )
    p_tel.add_argument(
        "--format", choices=("json", "jsonl", "prom", "text"), default="json"
    )
    p_tel.add_argument("--out", help="write to a file instead of stdout")
    p_tel.set_defaults(fn=_cmd_telemetry)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection run with invariant audit"
    )
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument(
        "--fault-seed", type=int, default=None, help="default: seed + 1000"
    )
    p_chaos.add_argument("--scale", type=float, default=0.05)
    p_chaos.add_argument("--horizon", type=float, default=20.0)
    p_chaos.add_argument("--updates-per-min", type=float, default=60.0)
    p_chaos.add_argument("--faults-per-min", type=float, default=30.0)
    p_chaos.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice and require identical metric fingerprints",
    )
    p_chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for a sharded chaos run (1 = in-process)",
    )
    p_chaos.add_argument(
        "--num-shards",
        type=int,
        default=1,
        help="independent derived-seed shards (fixes the merged result)",
    )
    _add_driver_flags(p_chaos)
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_run = sub.add_parser(
        "run", help="run a shardable experiment on the parallel replay engine"
    )
    p_run.add_argument("task", choices=("fig16", "fig18", "chaos", "fleet"))
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: min(num_shards, CPU count))",
    )
    p_run.add_argument(
        "--num-shards",
        type=int,
        default=4,
        help="deterministic shard count; fixes the merged fingerprint",
    )
    p_run.add_argument(
        "--seed", type=int, default=None, help="default: the figure's seed"
    )
    p_run.add_argument("--scale", type=float, default=None)
    p_run.add_argument("--horizon", type=float, default=None)
    p_run.add_argument("--updates-per-min", type=float, default=None)
    p_run.add_argument(
        "--num-vips", type=int, default=None, help="fig16 only: VIPs to shard"
    )
    p_run.add_argument(
        "--systems",
        default=None,
        help="fig16 only: comma-separated systems to replay",
    )
    p_run.add_argument(
        "--timeline",
        action="store_true",
        help="sample every shard's registry into a mergeable timeline",
    )
    p_run.add_argument(
        "--timeline-period",
        type=float,
        default=5.0,
        help="timeline epoch period in simulation seconds",
    )
    p_run.add_argument(
        "--record",
        action="store_true",
        help="attach a flight recorder to every SilkRoad replay",
    )
    p_run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the merged recorder/timeline as Chrome trace JSON",
    )
    p_run.add_argument(
        "--fingerprint-out",
        metavar="PATH",
        help="write the merged registry (and timeline) fingerprints to PATH",
    )
    _add_driver_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run a fault-injected scenario and export a Perfetto trace"
    )
    p_trace.add_argument("--seed", type=int, default=7)
    p_trace.add_argument("--scale", type=float, default=0.05)
    p_trace.add_argument("--horizon", type=float, default=20.0)
    p_trace.add_argument("--updates-per-min", type=float, default=60.0)
    p_trace.add_argument("--faults-per-min", type=float, default=30.0)
    p_trace.add_argument(
        "--period", type=float, default=1.0, help="timeline epoch period (s)"
    )
    p_trace.add_argument(
        "--out", default="trace.json", help="output path (default: trace.json)"
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_explain = sub.add_parser(
        "explain", help="causal timeline behind every PCC violation"
    )
    p_explain.add_argument("--seed", type=int, default=7)
    p_explain.add_argument(
        "--fault-seed", type=int, default=None, help="default: seed + 1000"
    )
    p_explain.add_argument("--scale", type=float, default=0.05)
    p_explain.add_argument("--horizon", type=float, default=20.0)
    p_explain.add_argument("--updates-per-min", type=float, default=60.0)
    p_explain.add_argument("--faults-per-min", type=float, default=30.0)
    p_explain.add_argument(
        "--conn-table-capacity",
        type=int,
        default=None,
        help="shrink the ConnTable to force overflow-attributed violations",
    )
    p_explain.add_argument(
        "--step-deadline",
        type=float,
        default=None,
        help="tighten the update watchdog (induces at-risk reclassification)",
    )
    p_explain.add_argument(
        "--limit", type=int, default=None, help="print at most N stories"
    )
    p_explain.add_argument(
        "--json-out", metavar="PATH", help="also dump stories + coverage as JSON"
    )
    p_explain.add_argument(
        "--require-complete",
        action="store_true",
        help="exit non-zero unless every violation is attributed with "
        "recorder evidence (the CI gate)",
    )
    p_explain.set_defaults(fn=_cmd_explain)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived serving mode with an online HTTP control API",
    )
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--scale", type=float, default=0.05)
    p_serve.add_argument(
        "--fleet",
        type=int,
        default=1,
        metavar="N",
        help="number of switches (1 = single switch, >1 = fleet)",
    )
    p_serve.add_argument(
        "--chaos", action="store_true", help="attach the seeded fault injector"
    )
    p_serve.add_argument("--faults-per-min", type=float, default=30.0)
    p_serve.add_argument(
        "--script",
        metavar="FILE",
        help="JSON op list to run over HTTP (default: the live DIP "
        "migration script)",
    )
    p_serve.add_argument(
        "--listen",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the control API interactively on PORT (0 = ephemeral) "
        "instead of running a script",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--wallclock",
        action="store_true",
        help="pace time from the wallclock (requires --listen; scripts "
        "use the deterministic virtual clock)",
    )
    p_serve.add_argument(
        "--record", action="store_true", help="attach the flight recorder"
    )
    p_serve.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the script twice and require identical fingerprints",
    )
    p_serve.add_argument(
        "--telemetry-out", metavar="FILE", help="write the JSONL telemetry dump"
    )
    p_serve.add_argument(
        "--fingerprint-out", metavar="FILE", help="write the final fingerprint"
    )
    _add_driver_flags(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
