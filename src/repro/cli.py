"""Command-line interface: ``python -m repro.cli <command>``.

``repro --help`` lists the commands and ``repro <command> --help`` their
flags; each is described there, once.  This module is argparse plus one
call per command into :mod:`repro.api`, under three rules:

* **A scenario flag carries no default of its own.**  ``--scale``,
  ``--horizon``, ``--faults-per-min`` … are ``None`` unless typed, and only
  what the user typed reaches the runner (:func:`_given`); the rest takes
  the default in that runner's signature, the one place it is declared.
  (``pcc`` sizes its own workload.)
* **An input error is a usage error.**  Runners reject a bad value — an
  unknown failure pattern, a parameter the task does not take — with
  ``ValueError`` in this process, before any worker is spawned;
  :func:`main` prints it on one line and exits 2.
* **One tail.**  ``chaos``, ``fleet``, ``run`` and ``serve`` end in
  :func:`_finish`: determinism rerun, ``--fingerprint-out``, failure report.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial
from typing import Callable, Dict, List, Optional

#: Runner keywords the shared flag groups set: the workload's shape, plus
#: its seed, plus everything else a chaos run takes.
SHAPE = ("scale", "horizon_s", "updates_per_min")
WORKLOAD = ("seed", *SHAPE)
CHAOS = (*WORKLOAD, "fault_seed", "faults_per_min")
#: The replay report's headline, as ``pcc --format json`` / ``jsonl`` dump it.
REPORT = (
    "total_connections", "measured_connections", "pcc_violations", "violation_fraction"
)


def _given(args: argparse.Namespace, *dests: str) -> Dict[str, object]:
    """The flags among ``dests`` the user typed, keyed by runner keyword
    (an untyped value flag is ``None``, or not on this command at all)."""
    given = {dest: getattr(args, dest, None) for dest in dests}
    return {dest: value for dest, value in given.items() if value is not None}


def _facets(result) -> Dict[str, object]:
    """What a same-seed rerun of ``result`` must reproduce.  The leading
    ``registry`` / ``timeline`` / ``audit`` entries are fingerprints — the
    lines ``--fingerprint-out`` writes."""
    facets: Dict[str, object] = {"registry": result.fingerprint}
    for label in ("timeline", "audit"):
        value = getattr(result, f"{label}_fingerprint", None)
        if value is not None:
            facets[label] = value
    if hasattr(result, "audit"):
        facets["audit report"] = str(result.audit)
    for name in ("survival", "counters"):
        if hasattr(result, name):
            facets[name] = getattr(result, name)
    return facets


def _finish(args, result, rerun: Optional[Callable[[], object]] = None) -> int:
    """The shared tail of ``chaos`` / ``fleet`` / ``run`` / ``serve``.

    ``rerun`` repeats the run (same seed, or one worker, or in process);
    under ``--check-determinism`` every facet must come back
    identical.  ``--fingerprint-out`` gets one ``label hex`` line per
    fingerprint.  A result that is not ``ok`` is reported on stderr and
    exits 1.
    """
    facets = _facets(result)
    if rerun is not None and args.check_determinism:
        again = _facets(rerun())
        diverged = [what for what in facets if facets[what] != again[what]]
        if diverged:
            print(
                f"FAIL: same-seed rerun diverged ({', '.join(diverged)})",
                file=sys.stderr,
            )
            return 1
        print(f"determinism ok (fingerprint {result.fingerprint[:16]})")
    if getattr(args, "fingerprint_out", None):
        with open(args.fingerprint_out, "w") as fh:
            for label in ("registry", "timeline", "audit"):
                if label in facets:
                    fh.write(f"{label} {facets[label]}\n")
    if result.ok:
        return 0
    audit = getattr(result, "audit", None)
    if audit is None:  # serve: the audit is a field of the JSON report
        audit = result.report.get("audit_detail", "audit failed")
    print(str(audit), file=sys.stderr)
    for failure in getattr(result, "failed", ()):
        print(f"shard {failure.shard_id} FAILED: {failure.reason}", file=sys.stderr)
    if getattr(result, "overdue_updates", 0):
        print(
            f"FAIL: {result.overdue_updates} updates overran the watchdog budget",
            file=sys.stderr,
        )
    return 1


def _write_trace(path: str, **sources) -> bool:
    """Build the Chrome-trace document once, schema-check it, write that
    same document and print its event count; ``False`` (problems on
    stderr, nothing written) when the check fails."""
    from .obs import to_chrome_trace, validate_chrome_trace, write_chrome_trace

    doc = to_chrome_trace(**sources)
    problems = validate_chrome_trace(doc)
    for problem in problems:
        print(f"trace schema: {problem}", file=sys.stderr)
    if problems:
        return False
    count = write_chrome_trace(path, doc=doc)
    print(f"  wrote {count} trace events to {path} (load in ui.perfetto.dev)")
    return True


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import runner

    if args.list:
        print("\n".join(runner.EXPERIMENTS))
        return 0
    unknown = [n for n in args.names if n not in runner.EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    runner.run_all(args.names or None, stream=sys.stdout)
    return 0


def _cmd_pcc(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_metrics, format_spans
    from .api import ObsOptions
    from .baselines import DuetLoadBalancer, MigrationPolicy, SoftwareLoadBalancer
    from .experiments.common import build_workload, silkroad_factory
    from .obs import ObsHook, iter_jsonl, to_prometheus_text, write_jsonl

    switch_flags = _given(args, "insertion_rate_per_s", "timeline_period")
    baselines = {
        "duet": lambda: DuetLoadBalancer(
            policy=MigrationPolicy.PERIODIC, migrate_period_s=args.duet_period
        ),
        "slb": SoftwareLoadBalancer,
    }
    if args.system in baselines and (switch_flags or args.format != "text"):
        flags = "--format, --insertion-rate and --timeline-period"
        raise ValueError(f"{flags} need a SilkRoad switch; {args.system} has none")
    factory = baselines.get(args.system) or silkroad_factory(
        use_transit_table=(args.system != "silkroad-no-tt"),
        **_given(args, "insertion_rate_per_s"),
    )
    workload = build_workload(**_given(args, *WORKLOAD))
    # --timeline-period arms a sampler: the dump carries time series too.
    obs = ObsOptions(timeline_period_s=args.timeline_period)
    hook = ObsHook(obs, "pcc", workload.horizon_s)
    report, _conns, lb = workload.replay(factory, attach=hook)

    if isinstance(lb, DuetLoadBalancer):
        to, back = lb.migrations_to_slb, lb.migrations_back
        counts = {"migrations_to_slb": to, "migrations_back": back}
        counts["vips_at_slb"] = to - back
    elif isinstance(lb, SoftwareLoadBalancer):
        counts = {"peak_connections": lb.peak_connections}
    else:  # a SilkRoad switch: its registry, in the chosen format
        doc = lb.telemetry_snapshot()
    with (open(args.out, "w") if args.out else nullcontext(sys.stdout)) as out:
        if args.system in baselines:
            lines = [f"  {name}: {value:.12g}" for name, value in counts.items()]
            print(report.summary(), *lines, sep="\n", file=out)
        elif args.format == "text":
            metrics, spans = format_metrics(doc["metrics"]), format_spans(doc["spans"])
            print(report.summary(), "", metrics, "", spans, sep="\n", file=out)
        elif args.format == "prom":
            out.write(to_prometheus_text(lb.metrics))
        else:
            scenario = {**_given(args, *WORKLOAD), **switch_flags}
            doc["scenario"] = {"system": args.system, **scenario}
            doc["report"] = {name: getattr(report, name) for name in REPORT}
            if hook.timeline is not None:
                doc["series"] = hook.timeline.summary()
            if args.format == "json":
                json.dump(doc, out, indent=2, sort_keys=True, default=str)
                out.write("\n")
            else:  # jsonl
                records = list(iter_jsonl(lb.metrics, lb.coordinator.timings))
                for key in ("scenario", "report", "series"):
                    if key in doc:
                        records.append({"record": key, **doc[key]})
                write_jsonl(out, records)
    return 0


def _cmd_fleet_csv(args: argparse.Namespace) -> int:
    from .traces import FleetSynthesizer, dump_fleet

    dump_fleet(FleetSynthesizer(seed=args.seed).synthesize(), sys.stdout)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .api import run_fleet_partitioned, run_sharded
    from .experiments.fleet_failover import survival_points, survival_table

    patterns = tuple(p for p in args.patterns.split(",") if p)
    if not patterns:
        raise ValueError("no failure patterns given")
    seed = _given(args, "seed")
    knobs = _given(
        args, *SHAPE, "faults_per_min", "num_switches", "replication", "conn_budget"
    )
    if args.partition_workers is not None:
        replay = partial(run_fleet_partitioned, pattern=patterns[0], **seed, **knobs)
        result = replay(args.partition_workers)
        print(result.summary())
        # One worker, in-process: the unpartitioned baseline every
        # partition width must reproduce bit-for-bit.
        return _finish(args, result, rerun=lambda: replay(1, in_process=True))

    # --plans is the total sweep size; distribute evenly, rounding up so
    # the sweep never shrinks below what was asked for.
    plans_per_pattern = max(1, -(-args.plans // len(patterns)))
    params = dict(knobs, patterns=patterns, plans_per_pattern=plans_per_pattern)
    sweep = partial(run_sharded, "fleet", params=params, **seed)
    pool = _given(args, "num_shards", "workers")
    result = sweep(**pool)
    print(result.summary())
    print(survival_table(survival_points(result, patterns, plans_per_pattern)))
    # The second pass runs serial: the survival table, audit, and merged
    # registry must not move with pool size (or across repeat runs — the
    # layout is a pure function of the flags).
    return _finish(args, result, rerun=lambda: sweep(**{**pool, "workers": 1}))


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
        for ts, data in read_pcap(args.pcap_in):
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


def _explain(args: argparse.Namespace, result) -> bool:
    """Print the causal story behind every PCC violation of a recorded
    chaos run; ``False`` when ``--require-complete`` is not met."""
    from .obs import coverage, explain_violations, format_stories

    stories = explain_violations(
        result.switch, result.connections, recorder=result.recorder
    )
    stats = coverage(stories)
    print(
        "", format_stories(stories, limit=args.limit), "",
        "coverage: {violations} violation(s), {attributed} attributed, "
        "{attributed_with_events} with recorder evidence, "
        "{unattributed} unattributed".format(**stats),
        sep="\n",
    )
    if args.json_out:
        payload = {"coverage": stats, "stories": [s.to_dict() for s in stories]}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.require_complete:
        return True
    if stats["unattributed"] or stats["attributed_with_events"] < stats["attributed"]:
        gap = "not every PCC violation has an attributed causal chain"
        print(f"FAIL: {gap} with recorder evidence", file=sys.stderr)
        return False
    print("explain coverage complete")
    return True


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .api import ObsOptions, chaos_config, run_chaos

    explain_only = args.require_complete or _given(args, "limit", "json_out")
    if explain_only and not args.explain:
        raise ValueError("--limit, --json-out and --require-complete need --explain")
    knobs = _given(args, *CHAOS)
    # --conn-table-capacity / --step-deadline shrink the hardened config a
    # chaos run uses; untyped, the run builds that config itself.
    shrunk = _given(args, "conn_table_capacity", "step_deadline_s")
    traced = args.trace_out is not None
    period = args.timeline_period if traced else None
    obs = ObsOptions(record=args.explain or traced, timeline_period_s=period)
    config = chaos_config(**shrunk) if shrunk else None
    chaos = partial(run_chaos, config=config, obs=obs, **knobs)
    result = chaos()
    print(result.summary())
    complete = _explain(args, result) if args.explain else True
    if traced:
        recorder, timeline = result.recorder, result.timeline
        print(
            f"  recorder: {len(recorder)} events retained, "
            f"{recorder.total_dropped} dropped\n"
            f"  timeline: {len(timeline)} epochs x {len(timeline.columns)} columns"
        )
        if not _write_trace(
            args.trace_out,
            spans=result.switch.coordinator.timings,
            recorder=recorder,
            timeline=timeline,
            metadata={"scenario": "chaos", "fault_seed": result.plan.seed, **knobs},
        ):
            return 1
    code = _finish(args, result, rerun=chaos)
    return code or (0 if complete else 1)


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import ObsOptions, run_sharded
    from .experiments.runner import PARALLEL_TASKS

    if args.task not in PARALLEL_TASKS:  # not argparse choices: that import is slow
        raise ValueError(f"unknown task {args.task!r} (have {sorted(PARALLEL_TASKS)})")
    seed = PARALLEL_TASKS[args.task] if args.seed is None else args.seed
    result = run_sharded(
        args.task,
        seed=seed,
        params=_given(args, *SHAPE, "num_vips", "systems"),
        obs=ObsOptions(
            record=args.record,
            timeline_period_s=args.timeline_period if args.timeline else None,
        ),
        **_given(args, "num_shards", "workers"),
    )
    print("\n".join([result.summary(), *result.details()]))
    if args.trace_out and not _write_trace(
        args.trace_out,
        recorder=result.recorder,
        timeline=result.timeline,
        metadata={"task": args.task, "seed": seed},
    ):
        return 1
    return _finish(args, result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import api

    if args.wallclock and args.listen is None:
        raise ValueError("--wallclock requires --listen")
    config = api.ServeConfig(
        chaos=args.chaos,
        obs=api.ObsOptions(record=args.record),
        wallclock=args.wallclock,
        **_given(args, "seed", "scale", "num_switches", "faults_per_min"),
    )

    if args.listen is not None:
        # Interactive mode: serve the control API until POST /shutdown.
        import asyncio

        async def serve() -> int:
            session = api.ServeSession(config)
            server = api.ControlServer(session, host=args.host, port=args.listen)
            await server.start()
            clock = "wallclock" if args.wallclock else "virtual (POST /advance)"
            fleet = config.num_switches
            print(
                f"serving on http://{server.host}:{server.port} "
                f"[{clock} clock, "
                f"{'fleet of ' + str(fleet) if fleet > 1 else 'single switch'}"
                f"{', chaos' if args.chaos else ''}]; POST /shutdown to stop"
            )
            await server.wait_shutdown()
            return 0

        return asyncio.run(serve())

    # Scripted mode: drive the default live-migration script (or a JSON
    # op list) over real HTTP, then audit.
    script = None
    if args.script is not None:
        with open(args.script) as fh:
            script = json.load(fh)
    result = api.run_serve_script(config, script)
    print(f"serve[{config.seed}]: {result.summary()}")
    code = _finish(args, result, rerun=lambda: api.run_serve_script(config, script))
    if args.telemetry_out:
        with open(args.telemetry_out, "w") as fh:
            fh.write(result.telemetry)
        print(f"wrote {args.telemetry_out}")
    return code


def _flags(parser: argparse.ArgumentParser, *rows, **defaults):
    """Declare flags on ``parser`` from ``(flag, kind, help[, dest])`` rows.

    ``kind`` is a type (a value flag), ``bool`` (a ``store_true`` switch) or
    a tuple of choices (default: the first).  A value flag defaults to
    ``defaults[dest]`` when given, else to ``None`` — untyped, so the
    default in its runner's signature applies.
    """
    for flag, kind, text, *dest in rows:
        dest = dest[0] if dest else flag.lstrip("-").replace("-", "_")
        if kind is bool:
            how = {"action": "store_true"}
        elif isinstance(kind, tuple):
            how = {"choices": kind, "default": kind[0]}
        else:
            how = {"type": kind, "default": defaults.get(dest)}
        parser.add_argument(flag, dest=dest, help=text, **how)
    return parser


def _group(*rows, **defaults) -> argparse.ArgumentParser:
    """One shared flag group, as a ``parents=`` parser."""
    return _flags(argparse.ArgumentParser(add_help=False), *rows, **defaults)


def _workload_group(**defaults) -> argparse.ArgumentParser:
    return _group(
        ("--seed", int, "workload seed"),
        ("--scale", float, "workload scale (VIP count and arrival rate)"),
        ("--horizon", float, "simulated seconds", "horizon_s"),
        ("--updates-per-min", float, "DIP-pool updates per minute"),
        **defaults,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SilkRoad reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, text: str, parents=(), rows=(), **defaults):
        p = sub.add_parser(name, help=text, description=text, parents=list(parents))
        p.set_defaults(fn=fn)
        return _flags(p, *rows, **defaults)

    # The shared groups.  Untyped, none of their value flags reaches a runner.
    workload = _workload_group()
    faults = _group(("--faults-per-min", float, "injected faults per minute"))
    fault_seed = _group(("--fault-seed", int, "fault-plan seed (default: seed + 1000)"))
    sharding = _group(
        ("--workers", int, "worker processes (default: min(num_shards, CPU count))"),
        ("--num-shards", int, "deterministic shard count; fixes the merged result"),
    )
    determinism = _group(
        ("--check-determinism", bool,
         "same-seed rerun (serial where it was pooled); results must be identical"),
    )
    fingerprint = _group(("--fingerprint-out", str, "write the fingerprints here"))
    trace = _group(("--trace-out", str, "write recorder + timeline as a Chrome trace"))
    session = _group(
        ("--seed", int, "session seed"),
        ("--scale", float, "workload scale"),
        ("--fleet", int, "switches (1 = one switch, >1 = a fleet)", "num_switches"),
    )

    command(
        "experiments", _cmd_experiments, "regenerate paper tables/figures",
        rows=(("--list", bool, "list experiment names"),),
    ).add_argument("names", nargs="*", help="experiment names (default: all)")
    command(
        "pcc", _cmd_pcc, "one flow-level PCC simulation against a chosen system",
        (_workload_group(seed=7, scale=0.5, horizon_s=120.0, updates_per_min=10.0),),
        (
            ("--system", ("silkroad", "silkroad-no-tt", "duet", "slb"), "system"),
            ("--duet-period", float, "Duet migrate-back period (s)"),
            ("--format", ("text", "json", "jsonl", "prom"), "switch dump format"),
            ("--out", str, "write to a file instead of stdout"),
            ("--timeline-period", float, "SilkRoad only: sample a timeline (s)"),
            ("--insertion-rate", float, "SilkRoad only: switch-CPU rate (insertions/s)",
             "insertion_rate_per_s"),
        ),
        duet_period=120.0,
    )
    command(
        "fleet", _cmd_fleet,
        "fleet chaos survival sweep (switch crashes, partitions, flaps, "
        "cascades): a kept/broken/blackholed table per pattern; exits "
        "non-zero unless every PCC violation and drop is attributed",
        (workload, faults, sharding, determinism, fingerprint),
        (
            ("--plans", int, "total fault plans in the sweep, split across patterns"),
            ("--patterns", str, "comma-separated failure patterns to sweep"),
            ("--num-switches", int, "switches in the fleet"),
            ("--replication", int, "switches announcing each VIP (default: all)"),
            ("--conn-budget", int, "per-switch connection budget; over it, VIPs shed"),
            ("--partition-workers", int,
             "instead of sweeping: ONE run of the first pattern, space-partitioned"),
        ),
        plans=20,
        patterns="crash,partition,flap,cascade,mixed",
    )
    command(
        "fleet-csv", _cmd_fleet_csv, "dump the synthetic cluster fleet as CSV",
        rows=(("--seed", int, "synthesizer seed"),),
        seed=0xF1EE7,
    )
    command(
        "forward", _cmd_forward, "push packets through the P4 pipeline",
        rows=(
            ("--vips", int, "VIPs to program"),
            ("--dips", int, "DIPs per VIP"),
            ("--count", int, "synthetic SYNs to forward"),
            ("--pcap-out", str, "write the generated frames to a pcap"),
            ("--pcap-in", str, "replay frames from a pcap instead"),
        ),
        vips=2, dips=4, count=5,
    )
    command(
        "chaos", _cmd_chaos,
        "seeded fault injection against the hardened slow path with every "
        "invariant audited; exits non-zero on a violation (`run chaos` shards it)",
        (workload, faults, fault_seed, determinism, trace),
        (
            ("--conn-table-capacity", int, "shrink the ConnTable to force overflow"),
            ("--step-deadline", float, "tighten update watchdog", "step_deadline_s"),
            ("--timeline-period", float, "--trace-out's timeline epoch period (s)"),
            ("--explain", bool, "print the causal story of every PCC violation"),
            ("--limit", int, "--explain: print at most this many stories"),
            ("--json-out", str, "--explain: also dump stories + coverage as JSON"),
            ("--require-complete", bool,
             "--explain: exit 1 unless every violation has an evidenced attribution"),
        ),
        timeline_period=1.0,
    )
    command(
        "run", _cmd_run,
        "one shardable experiment on the sharded replay engine; the merged "
        "result depends on --num-shards, never on --workers",
        (workload, sharding, fingerprint, trace),
        (
            ("--num-vips", int, "fig16: VIPs to shard; fig18: VIPs in the workload"),
            ("--systems", lambda text: tuple(text.split(",")),
             "fig16 only: comma-separated systems to replay"),
            ("--timeline", bool, "sample every shard's registry into a timeline"),
            ("--timeline-period", float, "timeline epoch period (simulated s)"),
            ("--record", bool, "attach a flight recorder to every SilkRoad replay"),
        ),
        timeline_period=5.0,
    ).add_argument("task", help="fig16, fig18 or chaos")
    command(
        "serve", _cmd_serve,
        "long-lived serving mode behind an HTTP control API; by default "
        "runs the scripted live DIP migration on the virtual clock, audited",
        (session, faults, determinism, fingerprint),
        (
            ("--chaos", bool, "attach the seeded fault injector"),
            ("--script", str, "JSON op list to run (default: the live DIP migration)"),
            ("--listen", int,
             "serve interactively on this port (0 = ephemeral); no script is run"),
            ("--host", str, "interface to bind"),
            ("--wallclock", bool, "pace time from the wallclock (needs --listen)"),
            ("--record", bool, "attach the flight recorder"),
            ("--telemetry-out", str, "write the JSONL telemetry dump here"),
        ),
        host="127.0.0.1",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # Runners validate their inputs in this process before doing any
        # work, so a ValueError here is the user's to fix, not a crash.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
