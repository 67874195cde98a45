"""One command for the whole benchmark.

Human use, from the repo root::

    python perf/run.py [--seed N] [--workload NAME] [--traced] [--out FILE]

runs every workload (or the named one) **each in its own fresh,
single-threaded process**, prints every metric by name with its unit,
checks the outputs, writes the result set to ``perf/out/results.json``
(or ``--out``) and exits non-zero if any output check failed.
``--traced`` adds the separate traced run that yields the per-layer
metrics and writes ``perf/out/trace_<workload>.json``.

The builder's driver instead calls::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

which runs that one workload in this process and prints, as the last line
of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — with ``--trace 0`` the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics.  Giving
``--trace`` is what selects this mode.

Simulated statistics must repeat exactly across repetitions (checked by
registry fingerprint).  Host-time metrics are medians over the in-process
repetitions, each first scaled to a reference machine speed by the
yardstick kernel that runs *inside* the repetition
(``perf/calibrate.py``: the box's speed swings by tens of percent, and
unscaled numbers from the same commit spread 10-30 %).  The unscaled
median is printed next to it as ``conns_per_s_wall``.  Between
repetitions every reference to the previous one is dropped and
``gc.collect()`` runs, because retained switches measurably slow later
repetitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):
    # Run as a script: drop perf/ itself from the path (it would shadow
    # the stdlib ``trace`` module) and import through the package.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
    sys.path.insert(0, str(_HERE.parent))

from perf import metrics as catalogue  # noqa: E402
from perf.calibrate import at_reference_speed, bracket  # noqa: E402
from perf.trace import ROOT_SPAN, SPAN_NAMES, Tracer, layer_totals  # noqa: E402

DEFAULT_SEED = 16
DEFAULT_SECONDS = 12.0
#: set-up repetitions per run (``setup_s`` is their median), and the
#: yardstick chunks run before and after each.
SETUP_REPS = 7
SETUP_CHUNKS = 10
#: timed repetitions a run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
OUT_DIR = _HERE / "out"
EXTRA_PREFIX = "extra: "


def _median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _quantile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


class Harness:
    """Runs one workload in this process."""

    def __init__(self, name: str, seed: int, seconds: float, size: str) -> None:
        from perf.workloads import WORKLOAD_CLASSES

        self.workload = WORKLOAD_CLASSES[name](seed, size)
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.min_reps = 2 if size == "tiny" else MIN_REPS
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.fingerprint: Optional[str] = None

    # -- pieces ----------------------------------------------------------

    def setup(self) -> float:
        """Median of :data:`SETUP_REPS` full set-ups at reference speed;
        the last one's inputs are what the repetitions run on."""
        kernel = self.workload.kernel
        samples = []
        for _ in range(SETUP_REPS):
            gc.collect()
            before_s, _ = bracket(kernel, SETUP_CHUNKS)
            start = time.perf_counter()
            self.workload.setup()
            elapsed = time.perf_counter() - start
            after_s, _ = bracket(kernel, SETUP_CHUNKS)
            samples.append(
                at_reference_speed(elapsed, (before_s + after_s, 2 * SETUP_CHUNKS))
            )
        return statistics.median(samples)

    def rep(self, tracer: Optional[Tracer] = None):
        """One repetition, with the always-on output checks; a rep that
        raises counts as one failed operation."""
        gc.collect()
        if tracer is not None:
            tracer.begin_run(f"{self.name}/seed{self.seed}/rep{len(tracer.runs)}")
        try:
            rep = self.workload.rep(tracer)
        except Exception as exc:  # noqa: BLE001 - report, count, keep going
            self.attempted += 1
            self._fail(f"rep raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.end_run()
        self.account(rep)
        return rep

    def account(self, rep) -> None:
        self.attempted += rep.connections + len(rep.ctl)
        self.failed += rep.unattributed
        for failure in rep.failures:
            self._fail(failure)
        if self.fingerprint is None:
            self.fingerprint = rep.fingerprint
        elif rep.fingerprint != self.fingerprint:
            self._fail("registry fingerprint differs between repetitions")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"CHECK FAILED [{self.name}]: {message}")

    # -- untraced: the end-to-end metrics --------------------------------

    def run_end_to_end(self) -> Dict[str, float]:
        setup_s = self.setup()
        reps = []
        timed = 0.0
        while len(reps) < self.min_reps or timed < self.seconds:
            rep = self.rep()
            if rep is None:
                break  # a raising rep is a defect, not noise: stop and report
            timed += rep.timed_s
            reps.append(rep)
        values: Dict[str, float] = {"setup_s": setup_s, "reps": float(len(reps))}
        print("  rep seconds:", " ".join(f"{r.work_s:.3f}" for r in reps))
        if reps:
            first = reps[0]
            values["conns_per_s"] = first.connections / statistics.median(
                at_reference_speed(r.work_s, r.cal) for r in reps
            )
            values["conns_per_s_wall"] = first.connections / statistics.median(
                r.work_s for r in reps
            )
            values["ctl_ms_p50"] = statistics.median(
                at_reference_speed(_median_ms([s for _, s in r.ctl]), r.cal)
                for r in reps
            )
            values["sim_update_s_p50"] = first.sim_update_s_p50
            values["pcc_violations"] = float(first.pcc_violations)
            values["unattributed"] = float(sum(r.unattributed for r in reps))
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        values["failed_share"] = self.failed / max(1, self.attempted)
        return values

    # -- traced: the per-layer metrics -----------------------------------

    def run_traced(self) -> Dict[str, float]:
        from perf import drills

        self.setup()
        values: Dict[str, float] = {m.name: 0.0 for m in catalogue.driver_per_layer()}
        base = self.rep()
        if base is None:
            return values
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.rep(tracer)
        finally:
            tracer.uninstall()
        if traced is None:
            return values
        run = tracer.runs[-1]
        totals = layer_totals(run)
        for span in SPAN_NAMES + (ROOT_SPAN,):
            row = totals.get(span)
            if row is not None:
                values[f"{span}.self_s"] = row["self_s"]
                if span != ROOT_SPAN:
                    values[f"{span}.calls"] = float(row["calls"])
        values.update(traced.counts)
        values.update(run["peaks"])
        values["bench.trace.overhead_frac"] = traced.work_s / base.work_s - 1.0
        # The simulated end-to-end numbers and the serve latencies come
        # from the *untraced* repetition.
        values["sim_update_s_p50"] = base.sim_update_s_p50
        values["pcc_violations"] = float(base.pcc_violations)
        values["unattributed"] = float(base.unattributed + traced.unattributed)
        ctl = [seconds for _, seconds in base.ctl]
        values["ctl_ms_p50"] = _median_ms(ctl)
        for kind in ("read", "write"):
            values[f"serve.http.{kind}_ms_p50"] = _median_ms(
                [seconds for k, seconds in base.ctl if k == kind]
            )
        values["serve.http.ctl_ms_p90"] = _quantile_ms(ctl, 0.90)
        values["serve.http.ctl_ms_p99"] = _quantile_ms(ctl, 0.99)
        extras, failures = self.workload.extras(base)
        values.update(extras)
        for failure in failures:
            self._fail(failure)
        if self.name == "pop_steady":
            workload = self.workload.workload
            service = workload.cluster.services[0]
            samples = (1, 0.01) if self.workload.tiny else (drills.SAMPLES, drills.MIN_SAMPLE_S)
            for drill, ns in drills.run_drills(
                [c.key for c in workload.connections], service.vip, service.dips, *samples
            ).items():
                values[f"drill.{drill}.ns_per_op"] = ns
        values["failed_share"] = self.failed / max(1, self.attempted)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{self.name}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": self.name,
                    "seed": self.seed,
                    "clock": "time.perf_counter",
                    "untraced_work_s": base.work_s,
                    "traced_work_s": traced.work_s,
                    "runs": tracer.runs,
                    "layers": {k: totals[k] for k in sorted(totals)},
                },
                indent=1,
            )
        )
        print(f"trace written to {trace_path.relative_to(_HERE.parent)}")
        return values


def run_child(args) -> int:
    """Driver mode: one workload in this process, result on the last line."""
    harness = Harness(args.workload, args.seed, args.seconds, args.size)
    if args.trace:
        values = harness.run_traced()
        listed = catalogue.driver_per_layer()
    else:
        values = harness.run_end_to_end()
        listed = catalogue.driver_end_to_end()
    print(f"[{args.workload}] seed={args.seed} size={args.size} trace={args.trace}")
    if args.workload == "serve_migration":
        print("  load: loopback, closed loop, 1 client, 1 keep-alive connection")
    for metric in catalogue.END_TO_END + (catalogue.LAYERS if args.trace else ()):
        if metric.name in values and metric.applies_to(args.workload):
            print(f"  {metric.name:<48} {values[metric.name]:>16.6g} {metric.unit}")
    if "conns_per_s_wall" in values:
        print(f"  {'conns_per_s_wall (unscaled, for reference)':<48} "
              f"{values['conns_per_s_wall']:>16.6g} 1/s")
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "fingerprint": harness.fingerprint,
        "failures": harness.failures,
        "values": values,
    }
    print(EXTRA_PREFIX + json.dumps(extra))
    result = {
        "correct": harness.failed == 0,
        "attempted": max(1, harness.attempted),
        "failed": harness.failed,
        "metrics": {
            m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in listed
        },
    }
    print(json.dumps(result))
    return 0 if harness.failed == 0 else 1


def spawn(workload: str, seed: int, seconds: float, trace: int, size: str) -> Dict[str, object]:
    """Run one workload in a fresh process; returns its parsed output."""
    command = [
        sys.executable, str(_HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
    }
    for line in lines:
        if line.startswith(EXTRA_PREFIX):
            record["extra"] = json.loads(line[len(EXTRA_PREFIX):])
        elif line.startswith("{"):
            record["result"] = json.loads(line)
        else:
            print(line)
    return record


def run_all(args) -> int:
    """Human mode: every workload, each in its own process."""
    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    records = []
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            records.append(spawn(name, args.seed, args.seconds, trace, args.size))
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"seed": args.seed, "size": args.size, "seconds": args.seconds,
             "runs": records},
            indent=1,
        )
    )
    bad = [r for r in records if r["exit"] != 0 or not r.get("result", {}).get("correct")]
    print(f"{len(records)} runs, {len(bad)} failed; result set written to {out}")
    return 1 if bad else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed work per workload (repetitions fill it)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: run --workload here, JSON on the last line")
    parser.add_argument("--traced", action="store_true",
                        help="human mode: also make the traced per-layer run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="result-set file (human mode)")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace is not None:
        return run_child(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
