"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning structured results and
``main()`` returning the printable table with the paper's anchor values;
``runner.run_all()`` regenerates the whole evaluation.
"""

from importlib import import_module

#: Every experiment module, in the order ``runner.run_all`` prints them —
#: the one listing; ``runner.EXPERIMENTS`` and ``__all__`` derive from it.
EXPERIMENT_NAMES = (
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "table2",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fleet_failover", "latency", "hybrid", "switch_failure", "multi_digest",
    "insertion_cost", "digest_fp", "meter_accuracy", "economics",
)

__all__ = ["common", "parallel", *EXPERIMENT_NAMES]

for _name in __all__:
    import_module(f"{__name__}.{_name}")
