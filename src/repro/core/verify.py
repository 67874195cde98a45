"""Whole-switch invariant verification and runtime auditing.

Deep consistency checks across a :class:`~repro.core.silkroad.SilkRoadSwitch`'s
tables and bookkeeping — the kind of checker the paper's control-plane
software would run in debug builds.  Used by the test suite after
simulations (including chaos runs with fault injection), and callable by
library users after driving a switch directly.

:func:`audit_switch` runs every check, *collects* violations, and returns
an :class:`AuditReport` — the full picture rather than the first failure;
``audit_switch(switch).raise_if_failed()`` raises
:class:`InvariantViolation` on the first collected violation instead.

Checked invariants:

1. ConnTable's internal cuckoo structures are self-consistent and no
   resident connection's data-plane lookup is shadowed.
2. Every installed (non-overflow) live connection is resident in ConnTable
   with its pinned version; every pending connection is absent.
3. DIPPoolTable refcounts equal the number of live connections pinned to
   each (VIP, version) — no leaked references.
4. Every live connection's pinned version maps to an existing pool, and
   its recorded forwarding decision equals that pool's selection.
5. The pending index contains exactly the un-installed live connections
   (no orphaned ``_pending_by_vip`` keys).
6. Every key waiting to be re-learned after a dropped slow-path job is a
   live, un-installed, non-overflowed connection in the pending index.
7. No VIP is left mid-transition when its coordinator is idle, and step 2
   always has dual versions (VIPTable/coordinator phase agreement).
8. With connections supplied: PCC violations occur *only* where the fault
   model predicts them — connections a watchdog reclassified at-risk, that
   overflowed a full ConnTable, or that adopted the old version through a
   TransitTable false positive — and no connection was dropped
   (:mod:`repro.obs.causes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..netsim.flows import Connection
from ..obs.causes import AttributionRule, Tally
from .pcc_update import Phase
from .silkroad import SilkRoadSwitch

Fail = Callable[[str], None]


class InvariantViolation(AssertionError):
    """Raised when a switch's internal state is inconsistent."""


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_switch` pass."""

    violations: List[str] = field(default_factory=list)
    checks_run: int = 0
    #: PCC violations outside the fault model's predicted exposure sets.
    unattributed_violations: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise InvariantViolation(self.violations[0])

    def merge(self, other: "AuditReport", label: Optional[str] = None) -> "AuditReport":
        """Fold another audit into this one, in place; returns ``self``.

        The sharded replay engine audits every worker's switch
        independently and merges the reports in shard order, so the fleet
        view keeps each violation's text (prefixed with ``label``, e.g.
        ``shard-3``) and the total number of checks that ran.
        """
        prefix = f"[{label}] " if label else ""
        self.violations.extend(prefix + v for v in other.violations)
        self.checks_run += other.checks_run
        self.unattributed_violations += other.unattributed_violations
        return self

    @classmethod
    def merged(cls, reports: Iterable["AuditReport"]) -> "AuditReport":
        """A fresh report holding the fold of ``reports`` in order."""
        out = cls()
        for report in reports:
            out.merge(report)
        return out

    def __str__(self) -> str:
        if self.ok:
            return f"audit ok ({self.checks_run} checks)"
        lines = "\n  ".join(self.violations)
        return f"audit FAILED ({len(self.violations)} violations):\n  {lines}"


def audit_switch(
    switch: SilkRoadSwitch,
    connections: Optional[Iterable[Connection]] = None,
) -> AuditReport:
    """Run every cross-table invariant, collecting all violations.

    ``connections``, when given (every connection that can still be
    violated or dropped, live or finished), are also judged by
    :class:`~repro.obs.causes.AttributionRule` — unless the TransitTable
    is ablated, which makes violations the expected behaviour.
    """
    report = AuditReport()
    fail = report.violations.append
    for check in (
        _check_cuckoo,
        _check_conn_residency,
        _check_refcounts,
        _check_decisions,
        _check_pending_index,
        _check_transitions,
    ):
        check(switch, fail)
        report.checks_run += 1
    if connections is not None:
        if switch.config.use_transit_table:
            tally = Tally()
            tally.count(
                AttributionRule.for_switch(switch),
                ((c.key, c.pcc_violated, c.ever_dropped) for c in connections),
            )
            report.unattributed_violations = tally.unattributed_violations
            report.violations.extend(tally.failures())
        report.checks_run += 1
    return report


def _live_states(switch: SilkRoadSwitch):
    return {
        key: state
        for key, state in switch._states.items()
        if not state.dead
    }


def _check_cuckoo(switch: SilkRoadSwitch, fail: Fail) -> None:
    try:
        switch.conn_table.check_invariants()
    except AssertionError as exc:
        fail(f"ConnTable cuckoo invariants: {exc}")


def _check_conn_residency(switch: SilkRoadSwitch, fail: Fail) -> None:
    overflowed = switch.table_full_events > 0
    for key, state in _live_states(switch).items():
        resident = key in switch.conn_table
        if state.installed and not resident and not overflowed:
            fail(f"installed connection missing from ConnTable: {key!r}")
        if resident:
            stored = switch.conn_table.get_exact(key)
            if stored != state.version:
                fail(f"ConnTable version {stored} != pinned {state.version}")
        if not state.installed and resident:
            fail(f"pending connection already resident: {key!r}")


def _check_refcounts(switch: SilkRoadSwitch, fail: Fail) -> None:
    expected: Dict[Tuple[object, int], int] = {}
    for state in switch._states.values():
        # Dead-but-installed connections hold their version until the
        # idle-timeout expiry removes the entry.
        if state.dead and not state.installed:
            continue
        expected[(state.conn.vip, state.version)] = (
            expected.get((state.conn.vip, state.version), 0) + 1
        )
    for vip in switch.vip_table.vips():
        for version in switch.dip_pools.live_versions(vip):
            actual = switch.dip_pools.refcount(vip, version)
            want = expected.get((vip, version), 0)
            if actual != want:
                fail(
                    f"refcount mismatch for {vip} v{version}: "
                    f"table says {actual}, states say {want}"
                )


def _check_decisions(switch: SilkRoadSwitch, fail: Fail) -> None:
    for key, state in _live_states(switch).items():
        if state.current_dip is None:
            fail(f"live connection without a decision: {key!r}")
            continue
        if state.conn.broken_by_removal:
            # Version reuse may have substituted this connection's slot
            # (its DIP went down); its stale decision is expected.
            continue
        pool = switch.dip_pools.pool(state.conn.vip, state.version)
        if (
            state.installed
            and key in switch.fp_adopted_keys
            and state.current_dip not in pool
        ):
            # A step-2 Bloom-FP adopter lands on the old version *after*
            # the removal, so it can hash to the removed DIP's own slot
            # without ever being flagged broken_by_removal; once version
            # reuse substitutes that slot its decision is stale in the same
            # way.  Its violation is attributed through fp_adopted_keys.
            continue
        # Protected/pending conns may momentarily point at a different
        # version's choice; installed ones must match their pinned pool.
        if state.installed and not state.adopted_old_via_fp:
            expected = switch.dip_pools.select(state.conn.vip, state.version, key)
            if state.current_dip != expected:
                fail(
                    f"decision {state.current_dip} != pinned pool choice "
                    f"{expected} for {key!r}"
                )
        if state.current_dip not in pool and state.installed:
            fail(f"decision {state.current_dip} not in pinned pool for {key!r}")


def _check_pending_index(switch: SilkRoadSwitch, fail: Fail) -> None:
    indexed = {
        key
        for keys in switch._pending_by_vip.values()
        for key in keys
    }
    live_pending = {
        key
        for key, state in _live_states(switch).items()
        if not state.installed
    }
    missing = live_pending - indexed
    if missing:
        fail(f"pending connections missing from index: {len(missing)}")
    stale = {
        key
        for key in indexed
        if key not in switch._states or switch._states[key].dead
        or switch._states[key].installed
    }
    if stale:
        fail(f"stale keys in pending index: {len(stale)}")
    # Invariant 6, against the same index.
    states = switch._states
    stray = [
        key
        for key in switch._waiting
        if key not in indexed
        or key not in states
        or states[key].dead
        or states[key].installed
        or states[key].overflowed
    ]
    if stray:
        fail(f"waiting keys not live and pending: {len(stray)}")


def _check_transitions(switch: SilkRoadSwitch, fail: Fail) -> None:
    for vip in switch.vip_table.vips():
        entry = switch.vip_table.lookup(vip)
        phase = switch.coordinator.phase(vip)
        if entry.in_transition and phase is Phase.IDLE:
            fail(f"{vip} stuck mid-transition")
        if phase is Phase.STEP2 and not entry.in_transition:
            fail(f"{vip} in step 2 without dual versions")
