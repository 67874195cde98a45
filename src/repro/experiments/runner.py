"""Run every paper experiment and print its table/series.

``python -m repro.experiments.runner`` regenerates the whole evaluation at
laptop scale (see EXPERIMENTS.md for the paper-vs-measured record).
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Callable, Dict

from . import EXPERIMENT_NAMES

EXPERIMENTS: Dict[str, Callable[[], str]] = {
    name: import_module(f"{__package__}.{name}").main for name in EXPERIMENT_NAMES
}


def run_all(names=None, stream=None) -> str:
    """Run the chosen experiments; optionally stream each section to
    ``stream`` as it completes (the CLI does, so long runs show progress)."""
    chosen = list(EXPERIMENTS if names is None else names)
    sections = []
    for name in chosen:
        start = time.time()
        body = EXPERIMENTS[name]()
        section = f"==== {name} ({time.time() - start:.1f}s) ====\n{body}"
        sections.append(section)
        if stream is not None:
            print(section, end="\n\n", file=stream, flush=True)
    return "\n\n".join(sections)


#: Default base seeds of the shardable experiments (match the figures').
PARALLEL_TASKS: Dict[str, int] = {"fig16": 16, "fig18": 18, "chaos": 7}


def main() -> None:
    import sys

    names = sys.argv[1:] or None
    run_all(names, stream=sys.stdout)


if __name__ == "__main__":
    main()
