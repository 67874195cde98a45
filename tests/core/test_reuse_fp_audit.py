"""Version reuse × TransitTable false positives: the audit stays strict.

A step-2 Bloom-FP adopter is pinned to the *old* pool version after the
removal executed, so it can hash to the removed DIP's own slot without
ever being flagged ``broken_by_removal``.  It installs with the old
version, a later ``ADD`` substitutes that slot (version reuse), and its
decision is then stale exactly like a removal-broken connection's.  The
auditor exempts it through the persisted ``fp_adopted_keys`` set — and
nothing else: a stale decision on any other installed connection fails.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.experiments.common import build_workload
from repro.netsim.packet import DirectIP

#: perf's ``slow_cpu_updates`` shape with the default ``version_reuse=True``.
CONFIG = SilkRoadConfig(
    conn_table_capacity=300_000,
    insertion_rate_per_s=230.0,
    learning_filter_timeout_s=5e-3,
    transit_table_bytes=1024,
)


def replay(seed: int, batched: bool):
    workload = build_workload(60, scale=0.5, horizon_s=90, seed=seed)
    _report, conns, switch = workload.replay(
        lambda: SilkRoadSwitch(CONFIG), batched=batched
    )
    return switch, conns


# The seeds of 10..17 on which the audit used to fail structurally.
@pytest.mark.parametrize("seed", [10, 12, 13, 16, 17])
def test_substituted_slot_of_an_fp_adopter_audits_clean(seed):
    batched, batched_conns = replay(seed, batched=True)
    scalar, scalar_conns = replay(seed, batched=False)
    assert batched.config.version_reuse and batched.fp_adopted_keys
    for switch, conns in ((batched, batched_conns), (scalar, scalar_conns)):
        audit = audit_switch(switch, conns)
        assert audit.ok, str(audit)
    assert batched.metrics.fingerprint() == scalar.metrics.fingerprint()


def test_stale_decision_on_a_non_adopter_still_fails():
    switch, conns = replay(10, batched=True)
    assert audit_switch(switch, conns).ok
    state = next(
        state
        for key, state in switch._states.items()
        if state.installed
        and not state.dead
        and not state.conn.broken_by_removal
        and key not in switch.fp_adopted_keys
    )
    state.current_dip = DirectIP.parse("10.99.99.99:8080")
    audit = audit_switch(switch, conns)
    assert not audit.ok
    assert any("not in pinned pool" in v for v in audit.violations)
