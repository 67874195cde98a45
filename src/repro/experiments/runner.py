"""Run every paper experiment and print its table/series.

``python -m repro.experiments.runner`` regenerates the whole evaluation at
laptop scale (see EXPERIMENTS.md for the paper-vs-measured record).
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from . import (
    digest_fp,
    economics,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig8,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fleet_failover,
    hybrid,
    insertion_cost,
    latency,
    meter_accuracy,
    multi_digest,
    switch_failure,
    table1,
    table2,
)

EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": table1.main,
    "fig2": fig2.main,
    "fig3": fig3.main,
    "fig4": fig4.main,
    "fig5": fig5.main,
    "fig6": fig6.main,
    "fig8": fig8.main,
    "table2": table2.main,
    "fig12": fig12.main,
    "fig13": fig13.main,
    "fig14": fig14.main,
    "fig15": fig15.main,
    "fig16": fig16.main,
    "fig17": fig17.main,
    "fig18": fig18.main,
    "fleet_failover": fleet_failover.main,
    "latency": latency.main,
    "hybrid": hybrid.main,
    "switch_failure": switch_failure.main,
    "multi_digest": multi_digest.main,
    "insertion_cost": insertion_cost.main,
    "digest_fp": digest_fp.main,
    "meter_accuracy": meter_accuracy.main,
    "economics": economics.main,
}


def run_all(names=None, stream=None, telemetry=None) -> str:
    """Run the chosen experiments; optionally stream each section to
    ``stream`` as it completes (the CLI does, so long runs show progress).

    When ``telemetry`` is a path, the runner records its own metrics — one
    span and one duration gauge per experiment, plus a wall-time histogram —
    and writes them there as JSONL when the run finishes.
    """
    registry = tracer = duration_hist = None
    if telemetry is not None:
        from ..obs import MetricRegistry, Tracer, iter_jsonl, write_jsonl

        registry = MetricRegistry(labels={"component": "runner"})
        tracer = Tracer()
        duration_hist = registry.histogram(
            "runner.experiment_duration_s",
            buckets=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0),
            quantiles=(0.5, 0.99),
            help="wall time per experiment",
        )
    chosen = list(EXPERIMENTS if names is None else names)
    sections = []
    for name in chosen:
        start = time.time()
        span = (
            tracer.start_span("experiment", t=start, experiment=name)
            if tracer is not None
            else None
        )
        body = EXPERIMENTS[name]()
        elapsed = time.time() - start
        if registry is not None:
            duration_hist.observe(elapsed)
            registry.gauge(
                f"runner.{name}.duration_s", "wall time of this experiment"
            ).set(elapsed)
            span.finish(start + elapsed)
        section = f"==== {name} ({elapsed:.1f}s) ====\n{body}"
        sections.append(section)
        if stream is not None:
            print(section, end="\n\n", file=stream, flush=True)
    if telemetry is not None:
        with open(telemetry, "w") as fh:
            write_jsonl(fh, iter_jsonl(registry, tracer))
    return "\n\n".join(sections)


#: Default base seeds of the shardable experiments (match the figures').
PARALLEL_TASKS: Dict[str, int] = {"fig16": 16, "fig18": 18, "chaos": 7, "fleet": 7}


def run_parallel(
    task: str,
    workers=None,
    num_shards: int = 4,
    seed=None,
    params=None,
    stream=None,
) -> str:
    """Run one shardable experiment via the sharded replay engine.

    Returns the printable fleet summary (and streams it, like
    :func:`run_all`); raises ``KeyError`` for tasks the engine does not
    shard — ``PARALLEL_TASKS`` lists the supported ones with their default
    seeds.
    """
    from .parallel import run_sharded

    if task not in PARALLEL_TASKS:
        raise KeyError(
            f"task {task!r} is not shardable (have {sorted(PARALLEL_TASKS)})"
        )
    if seed is None:
        seed = PARALLEL_TASKS[task]
    start = time.time()
    result = run_sharded(
        task, num_shards=num_shards, workers=workers, seed=seed, params=params
    )
    elapsed = time.time() - start
    lines = [
        f"==== {task} sharded ({elapsed:.1f}s) ====",
        result.summary(),
        *result.details(),
    ]
    for failure in result.failed:
        first = failure.reason.strip().splitlines()[-1] if failure.reason else ""
        lines.append(f"  shard {failure.shard_id} FAILED: {first}")
    if not result.audit.ok:
        lines.append(f"  {result.audit}")
    body = "\n".join(lines)
    if stream is not None:
        print(body, file=stream, flush=True)
    return body


def main() -> None:
    import sys

    names = sys.argv[1:] or None
    run_all(names, stream=sys.stdout)


if __name__ == "__main__":
    main()
