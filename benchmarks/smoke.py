"""CI benchmark smoke check: catch wall-clock regressions early.

Times three representative workloads —

* the single-pass hashing fan-out (the per-packet hot path),
* a small Figure 16 configuration (the full switch model end to end),
  in **both** replay modes: the batched chunked-arrival driver and the
  scalar event-at-a-time oracle, and
* the hardened slow path with fault injection disabled —

and compares them against a checked-in baseline
(``benchmarks/smoke_baseline.json``).  Raw seconds are useless across CI
runners of different speeds, so every measurement is *normalized* by a
calibration loop (pure-Python integer/dict work, independent of the code
under test) run on the same machine.  The check fails when a normalized
measurement exceeds the baseline by more than the tolerance (default 25%),
when the batched fig16 run's metric fingerprint diverges from the scalar
oracle's, or when the batched speedup drops below ``MIN_FIG16_SPEEDUP``.

With ``--workers N`` (N > 1) the script additionally runs a small
sharded Figure 16 replay on an N-worker pool and on a single worker, and
fails if the merged fingerprints differ — the CI guard for the parallel
engine's bit-identity property.

With ``--obs-out PATH`` it also measures the observability layer's
overhead (the same replay bare vs with the flight recorder and timeline
sampler attached) and writes the numbers as JSON — CI uploads this as the
``BENCH_obs.json`` artifact.

Usage::

    python benchmarks/smoke.py                  # compare against baseline
    python benchmarks/smoke.py --write-baseline # record a new baseline
    python benchmarks/smoke.py --workers 2      # also check sharded identity
    python benchmarks/smoke.py --obs-out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "smoke_baseline.json"
DEFAULT_TOLERANCE = 1.25


# ----------------------------------------------------------------------
# Calibration: machine-speed yardstick, independent of the repo's code
# ----------------------------------------------------------------------


def calibration_loop() -> float:
    """Seconds for a fixed amount of plain-Python integer and dict work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(400_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = acc
        if acc & 7 == 0:
            acc ^= table.get((acc >> 10) & 1023, 0)
    assert table  # keep the loop's side effects alive
    return time.perf_counter() - t0


def calibrate(rounds: int = 3) -> float:
    return min(calibration_loop() for _ in range(rounds))


# ----------------------------------------------------------------------
# Measured workloads
# ----------------------------------------------------------------------


def bench_hashing() -> float:
    """The per-packet derivation fan-out from one cached base hash."""
    from repro.asicsim.hashing import base_hash, hash_family

    rnd = random.Random(16)
    keys = [bytes(rnd.getrandbits(8) for _ in range(13)) for _ in range(20_000)]
    index_units = hash_family(4)
    digest_units = hash_family(4, base_seed=0xD16E57)
    bloom_units = hash_family(4, base_seed=0xB100F)

    def fanout() -> int:
        out = 0
        for key in keys:
            base = base_hash(key)
            for unit in index_units:
                out ^= unit.index_base(base, 1024)
            for unit in digest_units:
                out ^= unit.digest_base(base, 16)
            for unit in bloom_units:
                out ^= unit.index_base(base, 2048)
        return out

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fanout()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_fig16_small(batched: bool = True, rounds: int = 2):
    """A small Figure 16 configuration through the full SilkRoad model.

    Runs the same workload through the chunked-arrival driver
    (``batched=True``) or the scalar oracle, and returns
    ``(best_seconds, registry_fingerprint)`` — the smoke gate times both
    modes and fails the build if the fingerprints diverge (the CI-level
    differential check) or if the batched speedup regresses.
    """
    from repro.experiments import fig16
    from repro.experiments.common import build_workload

    systems = fig16.default_systems(
        insertion_rate_per_s=10_000.0, duet_period_s=60.0
    )
    best = float("inf")
    fingerprint = None
    for _ in range(rounds):
        # Same content fig16.run times: workload generation plus replay.
        t0 = time.perf_counter()
        workload = build_workload(
            updates_per_min=50.0, scale=0.5, seed=16, horizon_s=60.0
        )
        report, _conns, lb = workload.replay(systems["silkroad"], batched=batched)
        best = min(best, time.perf_counter() - t0)
        # The run must stay correct, not just fast.
        assert report.pcc_violations == 0, "smoke run broke PCC"
        fingerprint = lb.metrics.fingerprint()
    return best, fingerprint


def bench_slow_path_no_faults() -> float:
    """The hardened slow path with fault injection *disabled*.

    The crash/shed/retry/watchdog hooks are always wired into the switch
    now; this measurement pins down that with no injector attached they
    stay off the hot path (a regression here means the hardening got
    expensive for everyone, not just for chaos runs).
    """
    from repro.experiments.common import build_workload, silkroad_factory

    workload = build_workload(
        updates_per_min=60.0, scale=0.1, seed=16, horizon_s=30.0, warmup_s=3.0
    )
    factory = silkroad_factory(conn_table_capacity=100_000)

    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        report, _conns, switch = workload.replay(factory)
        best = min(best, time.perf_counter() - t0)
        # No faults injected: nothing may shed, relearn, or trip a watchdog.
        counts = switch.metrics.snapshot()
        for name in (
            "switch_cpu.jobs_shed_total", "switch_cpu.jobs_lost_total",
            "switch_cpu.crashes_total", "slow_path.relearns_total",
            "switch.at_risk_connections", "update.watchdog_forced_steps_total",
        ):
            assert counts[name] == 0.0, f"fault path fired without faults: {name}"
    return best


MEASUREMENTS = {
    "hashing_fanout": bench_hashing,
    "slow_path_no_faults": bench_slow_path_no_faults,
}

#: Minimum batched-over-scalar wall-clock speedup on the fig16_small
#: workload.  Measured ~1.4-1.5x on the dev box; gated with slack for
#: runner noise.  A failure here means the batched driver stopped paying
#: for itself.
MIN_FIG16_SPEEDUP = 1.15


def measure_fig16_pair(normalized: dict, calibration_s: float) -> int:
    """Run fig16_small in both modes; fail on divergence or lost speedup.

    Fills ``normalized['fig16_small']`` (batched, the headline number)
    and ``normalized['fig16_small_scalar']`` (the oracle).  Returns a
    non-zero exit code on oracle divergence or speedup regression.
    """
    batched_s, batched_fp = bench_fig16_small(batched=True)
    scalar_s, scalar_fp = bench_fig16_small(batched=False)
    normalized["fig16_small"] = batched_s / calibration_s
    normalized["fig16_small_scalar"] = scalar_s / calibration_s
    print(
        f"fig16_small: {batched_s:.4f}s batched / {scalar_s:.4f}s scalar "
        f"({normalized['fig16_small']:.2f}x / "
        f"{normalized['fig16_small_scalar']:.2f}x calibration)"
    )
    if batched_fp != scalar_fp:
        print(
            "ERROR: batched run diverged from the scalar oracle "
            f"({batched_fp[:16]}… vs {scalar_fp[:16]}…)"
        )
        return 4
    speedup = scalar_s / batched_s
    status = "ok" if speedup >= MIN_FIG16_SPEEDUP else "REGRESSION"
    print(
        f"fig16_small speedup: {speedup:.2f}x over scalar "
        f"({status}, floor {MIN_FIG16_SPEEDUP}x)"
    )
    if speedup < MIN_FIG16_SPEEDUP:
        print("ERROR: batched driver lost its speedup over the scalar oracle")
        return 5
    return 0


# ----------------------------------------------------------------------
# Observability overhead report (--obs-out)
# ----------------------------------------------------------------------


def measure_obs(rounds: int = 3) -> dict:
    """Bare vs observability-armed replay of the same fig16-style slice.

    Interleaves the two modes and keeps best-of-N of each — the effect
    being measured (the ISSUE's 15% ceiling) is smaller than scheduler
    noise on shared runners, so paired minima are the only stable
    comparison.  Returns the document written to ``BENCH_obs.json``.
    """
    from repro.experiments.common import build_workload, silkroad_factory
    from repro.obs import DEFAULT_RING_SIZE, FlightRecorder, TimelineSampler

    workload_params = dict(
        updates_per_min=60.0, scale=0.2, seed=16, horizon_s=60.0, warmup_s=5.0
    )
    last = {}

    def replay_seconds(armed: bool) -> float:
        workload = build_workload(**workload_params)
        attach = None
        if armed:
            recorder = FlightRecorder(capacity=DEFAULT_RING_SIZE, source="smoke")
            sampler_box = []

            def attach(sim, lb):
                lb.attach_recorder(recorder)
                sampler = TimelineSampler(lb.metrics, 5.0)
                sampler.attach(sim.queue, horizon_s=workload.horizon_s)
                sampler_box.append(sampler)

            last["recorder"] = recorder
            last["samplers"] = sampler_box
        t0 = time.perf_counter()
        workload.replay(silkroad_factory(), attach=attach)
        return time.perf_counter() - t0

    bare_s = armed_s = float("inf")
    for _ in range(rounds):
        bare_s = min(bare_s, replay_seconds(armed=False))
        armed_s = min(armed_s, replay_seconds(armed=True))

    recorder = last["recorder"]
    timeline = last["samplers"][0].timeline
    return {
        "bare_s": round(bare_s, 4),
        "armed_s": round(armed_s, 4),
        "overhead_frac": round(armed_s / bare_s - 1.0, 4),
        "recorder": recorder.summary(),
        "timeline": {
            "epochs": len(timeline),
            "columns": len(timeline.columns),
            "fingerprint": timeline.fingerprint(),
        },
        "note": (
            "Best-of-N interleaved wall clock for one fig16-style replay, "
            "bare vs with flight recorder + timeline sampler attached. "
            "Regenerate with: python benchmarks/smoke.py --obs-out ..."
        ),
    }


# ----------------------------------------------------------------------
# Sharded-replay identity check (--workers N)
# ----------------------------------------------------------------------


def check_sharded_identity(workers: int) -> bool:
    """Run a small sharded fig16 pooled and serially; compare fingerprints.

    Returns True when the merged results are bit-identical (the parallel
    engine's contract — pool size must never move the result).
    """
    from repro.experiments.parallel import run_sharded

    params = dict(
        num_vips=4,
        scale=0.1,
        horizon_s=20.0,
        warmup_s=3.0,
        updates_per_min=20.0,
        systems=("silkroad",),
    )
    pooled = run_sharded(
        "fig16", num_shards=4, workers=workers, seed=16, params=dict(params)
    )
    serial = run_sharded(
        "fig16", num_shards=4, workers=1, seed=16, params=dict(params)
    )
    ok = (
        pooled.ok
        and serial.ok
        and pooled.fingerprint == serial.fingerprint
        and pooled.details() == serial.details()
    )
    status = "ok" if ok else "MISMATCH"
    print(
        f"sharded_identity (workers={workers} vs 1): {status}\n"
        f"  pooled {pooled.fingerprint[:16]}…  serial {serial.fingerprint[:16]}…"
    )
    return ok


# ----------------------------------------------------------------------
# Baseline compare / record
# ----------------------------------------------------------------------


def run(
    baseline_path: Path,
    write: bool,
    tolerance: float,
    workers: int = 1,
    obs_out: Path = None,
) -> int:
    if workers > 1 and not check_sharded_identity(workers):
        print("ERROR: sharded replay fingerprint differs from 1-worker run")
        return 3

    if obs_out is not None:
        doc = measure_obs()
        obs_out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(
            f"obs overhead: bare {doc['bare_s']}s, armed {doc['armed_s']}s "
            f"({doc['overhead_frac']:+.1%}); report written to {obs_out}"
        )

    calibration_s = calibrate()
    print(f"calibration: {calibration_s:.4f}s")
    normalized = {}
    for name, fn in MEASUREMENTS.items():
        seconds = fn()
        normalized[name] = seconds / calibration_s
        print(f"{name}: {seconds:.4f}s  ({normalized[name]:.2f}x calibration)")
    code = measure_fig16_pair(normalized, calibration_s)
    if code:
        return code

    if write:
        doc = {
            "calibration_s": round(calibration_s, 4),
            "normalized": {k: round(v, 3) for k, v in normalized.items()},
            "note": (
                "Normalized = workload seconds / calibration-loop seconds on "
                "the same machine. Regenerate with: "
                "python benchmarks/smoke.py --write-baseline"
            ),
        }
        baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline written to {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(f"ERROR: no baseline at {baseline_path}; run with --write-baseline")
        return 2
    baseline = json.loads(baseline_path.read_text())["normalized"]
    failed = False
    for name, value in normalized.items():
        ref = baseline.get(name)
        if ref is None:
            print(f"WARNING: no baseline entry for {name}; skipping")
            continue
        ratio = value / ref
        status = "ok" if ratio <= tolerance else "REGRESSION"
        print(f"{name}: {ratio:.2f}x baseline ({status}, tolerance {tolerance}x)")
        if ratio > tolerance:
            failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also check sharded-replay fingerprint identity on this pool size",
    )
    parser.add_argument(
        "--obs-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="measure observability-layer overhead and write the report here",
    )
    args = parser.parse_args()
    return run(
        args.baseline, args.write_baseline, args.tolerance, args.workers,
        obs_out=args.obs_out,
    )


if __name__ == "__main__":
    sys.exit(main())
