"""Benchmarks for the scalability results (Table 2, Figures 12, 13, 14)."""

from __future__ import annotations

import pytest

from repro.analysis import Cdf
from repro.experiments import fig12, fig13, fig14, table2
from repro.experiments.table2 import PAPER_TABLE2
from repro.netsim.cluster import ClusterType


def test_bench_table2(benchmark):
    measured = benchmark(table2.run)
    for metric, expected in PAPER_TABLE2.items():
        assert measured[metric] == pytest.approx(expected, abs=0.01), metric


def test_bench_fig12(once):
    result = once(lambda: fig12.run(seed=12))
    pop = result.cdf(ClusterType.POP)
    backend = result.cdf(ClusterType.BACKEND)
    frontend = result.cdf(ClusterType.FRONTEND)
    # Paper: PoPs 14 MB median / 32 MB peak; Backends 15 / 58;
    # Frontends < 2 MB; everything fits 50-100 MB ASICs.
    assert 7 < pop.median < 28
    assert 15 < pop.quantile(1.0) < 70
    assert 6 < backend.median < 30
    assert 25 < backend.quantile(1.0) < 90
    assert frontend.quantile(1.0) < 4
    for kind in ClusterType:
        assert result.cdf(kind).quantile(1.0) < 100


def test_bench_fig13(once):
    result = once(lambda: fig13.run(seed=13))
    pop = result.cdf(ClusterType.POP)
    frontend = result.cdf(ClusterType.FRONTEND)
    backend = result.cdf(ClusterType.BACKEND)
    # Paper: PoPs 2-3, Frontends 11 median, Backends 3 median / 277 peak.
    assert 1 <= pop.median <= 12
    assert 5 <= frontend.median <= 20
    assert 1 <= backend.median <= 8
    assert backend.quantile(1.0) > 50  # hundreds at the volume-heavy peak


def test_bench_fig14(once):
    result = once(lambda: fig14.run(seed=14))
    # Paper: all clusters save >40 %; PoPs ~85 % with digest+version.
    assert fig14.run_min_saving(result) > 0.40
    pop = Cdf.of(result.digest_version[ClusterType.POP])
    assert pop.median > 0.75
    # digest+version beats digest-only for the short-connection clusters.
    pop_digest = Cdf.of(result.digest_only[ClusterType.POP])
    assert pop.median > pop_digest.median
