"""The one PCC judgment: every cause a broken connection can carry, and
the one rule that picks a connection's causes.

Each cause is recorded by the layer that causes it, when it happens: a
switch's three exposure sets (``at_risk_keys``, ``overflow_keys``,
``fp_adopted_keys``) and a fleet's move and drop maps.
docs/robustness.md ("One cause table") says who records each cause and
which audit reads it.  ``audit_switch``, ``audit_fleet`` (serial and
partitioned) and ``repro chaos --explain`` take their causes from
:class:`AttributionRule`, each over its own population.  Switches are
duck-typed, so :mod:`repro.obs` imports nothing from :mod:`repro.core`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Mapping, Tuple

AT_RISK = "at_risk"
OVERFLOW = "overflow"
FP_ADOPTED = "fp_adopted"
SWITCH_LOCAL = "switch_local"
REHASH = "version_pinned_rehash"
BLACKHOLE = "blackhole_detection"
SHED = "overflow_shed"
RACE = "reassignment_race"

#: The causes a fleet records in its move and drop maps, in report order.
FLEET_CAUSES: Tuple[str, ...] = (REHASH, BLACKHOLE, SHED, RACE)

#: ``(key, pcc_violated, ever_dropped)``: what the rule judges.
Outcome = Tuple[bytes, bool, bool]


@dataclass(frozen=True)
class AttributionRule:
    """A violation takes the fleet-recorded move cause if there is one,
    otherwise every exposure set that holds the key; a drop takes the
    fleet-recorded drop cause; anything else is unattributed.  A switch
    is the rule with no fleet causes, so a switch drop is unattributed."""

    #: ``(cause, keys)`` pairs, checked in order.
    exposures: Tuple[Tuple[str, Collection[bytes]], ...] = ()
    move_causes: Mapping[bytes, str] = field(default_factory=dict)
    drop_causes: Mapping[bytes, str] = field(default_factory=dict)

    @classmethod
    def for_switch(cls, switch) -> "AttributionRule":
        """One switch: its three exposure sets and no fleet causes."""
        return cls(
            (
                (AT_RISK, switch.at_risk_keys),
                (OVERFLOW, switch.overflow_keys),
                (FP_ADOPTED, switch.fp_adopted_keys),
            )
        )

    def violation(self, key: bytes) -> Tuple[str, ...]:
        """The causes of a PCC violation on ``key`` (empty: unattributed)."""
        moved = self.move_causes.get(key)
        if moved is not None:
            return (moved,)
        return tuple(cause for cause, keys in self.exposures if key in keys)


@dataclass
class Tally:
    """Violations and drops counted by cause under one rule.  A violation
    with several causes counts once, under their ``+``-joined name; seed
    the counters with zeros to fix which causes a report lists."""

    violation_causes: Counter = field(default_factory=Counter)
    drop_causes: Counter = field(default_factory=Counter)
    violations: int = 0
    dropped: int = 0
    unattributed_violations: int = 0
    unattributed_drops: int = 0

    def count(self, rule: AttributionRule, outcomes: Iterable[Outcome]) -> None:
        for key, violated, dropped in outcomes:
            if violated:
                self.violations += 1
                name = "+".join(rule.violation(key))
                if name:
                    self.violation_causes[name] += 1
                else:
                    self.unattributed_violations += 1
            if dropped:
                self.dropped += 1
                cause = rule.drop_causes.get(key)
                if cause is not None:
                    self.drop_causes[cause] += 1
                else:
                    self.unattributed_drops += 1

    def failures(self, prefix: str = "") -> List[str]:
        """One audit line per non-empty unattributed bucket."""
        return [
            f"{prefix}{count} {what} with no attributable cause"
            for count, what in (
                (self.unattributed_violations, "PCC violations"),
                (self.unattributed_drops, "dropped connections"),
            )
            if count
        ]


def survival(rows: Iterable[Tuple[float, bool, bool]]) -> Dict[str, int]:
    """Kept / broken / blackholed over the measured (``start >= 0``)
    ``(start, pcc_violated, ever_dropped)`` rows; broken wins over dropped."""
    out = dict.fromkeys(("measured", "kept", "broken", "blackholed"), 0)
    for start, violated, dropped in rows:
        if start >= 0:
            out["measured"] += 1
            out["broken" if violated else "blackholed" if dropped else "kept"] += 1
    return out
