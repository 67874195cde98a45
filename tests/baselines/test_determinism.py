"""Same-seed replays must be bit-identical — in-process and across processes.

The sharded replay engine (:mod:`repro.experiments.parallel`) farms shards
out to spawned workers, so any load balancer whose decisions depend on
``id()`` ordering (``Set[Connection]``) or hash-randomized iteration
(``set`` of VIPs) would produce different decision streams per process.
These tests pin the fix: ``_active`` maps keyed by connection key and the
insertion-ordered ``_at_slb`` dict in Duet.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _replay_digest() -> str:
    """Replay a small workload through every baseline; digest all decisions."""
    from repro.baselines import (
        DuetLoadBalancer,
        EcmpLoadBalancer,
        MigrationPolicy,
        SoftwareLoadBalancer,
    )
    from repro.netsim import ArrivalGenerator, FlowSimulator, uniform_vip_workloads
    from repro.netsim.cluster import make_cluster, spare_pool
    from repro.netsim.updates import UpdateGenerator

    factories = [
        EcmpLoadBalancer,
        SoftwareLoadBalancer,
        lambda: DuetLoadBalancer(
            policy=MigrationPolicy.PERIODIC, migrate_period_s=5.0
        ),
    ]
    h = hashlib.sha256()
    for factory in factories:
        cluster = make_cluster(num_vips=3, dips_per_vip=4)
        lb = factory()
        for service in cluster.services:
            lb.announce_vip(service.vip, service.dips)
        conns = ArrivalGenerator(seed=2).generate(
            uniform_vip_workloads(cluster.vips, 1200.0), horizon_s=30.0
        ).records()
        updates = UpdateGenerator(seed=3).poisson_updates(
            cluster.pools(),
            updates_per_min=40.0,
            horizon_s=30.0,
            spare_dips=spare_pool(cluster),
        )
        report = FlowSimulator(lb).run(conns, updates, horizon_s=30.0)
        for conn in conns:
            h.update(conn.key)
            for when, dip in conn.decisions:
                h.update(repr(when).encode())
                h.update(str(dip).encode())
            h.update(b"1" if conn.pcc_violated else b"0")
        h.update(repr(report).encode())
        # Each baseline's own state counts (None where it keeps none).
        counts = ("migrations_to_slb", "migrations_back", "peak_connections")
        h.update(repr([getattr(lb, name, None) for name in counts]).encode())
        h.update(repr(len(getattr(lb, "_conn_table", ()))).encode())
    return h.hexdigest()


def test_same_seed_double_run_is_bit_identical():
    assert _replay_digest() == _replay_digest()


def test_digest_stable_across_hash_seeds():
    # PYTHONHASHSEED randomizes str/bytes hashing per process; spawn two
    # interpreters with different seeds and require the same digest — the
    # exact situation sharded workers are in.
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import tests.baselines.test_determinism as m;"
                "print(m._replay_digest())",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
