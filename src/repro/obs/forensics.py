"""PCC forensics: join violations against the flight recorder.

The auditor proves every PCC violation is *attributable* (at-risk
watchdog reclassification, ConnTable overflow, or a step-2 Bloom false
positive, picked by the audit's own rule,
:class:`~repro.obs.causes.AttributionRule`); this module reconstructs
*how* each one happened.  For every measured connection that broke PCC
it assembles a causal timeline —

    conn 814: learned @1.204 -> cpu_crash fault @1.210 ->
    relearn @1.310 -> update t_exec @1.350 -> decision changed -> violation

— from three sources: the connection's own recorder events (joined by
connection key), update/fault context events overlapping its lifetime, and
the connection's decision log itself.

The switch is duck-typed (see :mod:`repro.obs.causes`), with an
optional ``recorder``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .causes import AttributionRule
from .recorder import FlightRecorder, RecorderEvent

__all__ = ["ViolationStory", "explain_violations", "format_stories", "coverage"]

#: Context events this close outside the connection's lifetime still count
#: — a fault landing just before the SYN is usually the cause.
WINDOW_SLACK_S = 0.25

#: Recorder categories that provide VIP-or-global context (as opposed to
#: per-connection-key events).
_CONTEXT_CATEGORIES = ("update", "fault")


@dataclass
class ViolationStory:
    """The causal timeline of one PCC violation."""

    conn_id: int
    key: bytes
    vip: str
    causes: Tuple[str, ...]
    start: float
    end: float
    #: chronological entries: {"t", "category", "name", "detail"}
    timeline: List[Dict[str, object]] = field(default_factory=list)
    decision_changes: int = 0

    @property
    def cause(self) -> str:
        return "+".join(self.causes) if self.causes else "unattributed"

    @property
    def attributed(self) -> bool:
        return bool(self.causes)

    @property
    def has_events(self) -> bool:
        """True when recorder evidence (not just the decision log) exists."""
        return any(e["category"] != "decision" for e in self.timeline)

    def to_dict(self) -> Dict[str, object]:
        return {
            "conn_id": self.conn_id,
            "key": self.key.hex(),
            "vip": self.vip,
            "cause": self.cause,
            "start": self.start,
            "end": self.end,
            "decision_changes": self.decision_changes,
            "timeline": list(self.timeline),
        }


def _entry(t: float, category: str, name: str, detail: str) -> Dict[str, object]:
    return {"t": t, "category": category, "name": name, "detail": detail}


def _detail_of(event: RecorderEvent) -> str:
    parts = [f"{k}={v}" for k, v in event.attrs]
    if event.source:
        parts.append(f"source={event.source}")
    return " ".join(parts)


def explain_violations(
    switch,
    connections: Sequence,
    recorder: Optional[FlightRecorder] = None,
) -> List[ViolationStory]:
    """One :class:`ViolationStory` per measured PCC-violating connection.

    ``connections`` are the replayed
    :class:`~repro.netsim.flows.Connection` objects (warm-up connections,
    ``start < 0``, are skipped — the simulator excludes them from the
    violation counts too).  ``recorder`` defaults to ``switch.recorder``.
    """
    if recorder is None:
        recorder = getattr(switch, "recorder", None)
    rule = AttributionRule.for_switch(switch)

    by_key: Dict[bytes, List[RecorderEvent]] = {}
    context: List[RecorderEvent] = []
    if recorder is not None:
        for event in recorder.events():
            if event.key is not None:
                by_key.setdefault(event.key, []).append(event)
            if event.category in _CONTEXT_CATEGORIES and event.key is None:
                context.append(event)

    stories: List[ViolationStory] = []
    for conn in connections:
        if conn.start < 0 or not conn.pcc_violated:
            continue
        key = conn.key
        vip = str(conn.vip)

        timeline: List[Dict[str, object]] = []
        for event in by_key.get(key, ()):
            timeline.append(
                _entry(event.t, event.category, event.name, _detail_of(event))
            )
        lo = conn.start - WINDOW_SLACK_S
        hi = conn.end + WINDOW_SLACK_S
        for event in context:
            if not (lo <= event.t <= hi):
                continue
            attrs = dict(event.attrs)
            event_vip = attrs.get("vip")
            # Update transitions are per-VIP; faults are switch-global.
            if event.category == "update" and event_vip not in (None, vip):
                continue
            timeline.append(
                _entry(event.t, event.category, event.name, _detail_of(event))
            )
        previous = None
        changes = 0
        for t, dip in conn.decisions:
            label = "forward" if previous is None else "decision_change"
            if previous is not None and dip != previous:
                changes += 1
            timeline.append(_entry(t, "decision", label, f"-> {dip}"))
            previous = dip
        timeline.sort(key=lambda e: (e["t"], e["category"], e["name"]))
        stories.append(
            ViolationStory(
                conn_id=conn.conn_id,
                key=key,
                vip=vip,
                causes=rule.violation(key),
                start=conn.start,
                end=conn.end,
                timeline=timeline,
                decision_changes=changes,
            )
        )
    return stories


def coverage(stories: Iterable[ViolationStory]) -> Dict[str, int]:
    """Counts the ``repro chaos --explain --require-complete`` gate
    checks: how many violations are attributed, and how many of those have
    recorder evidence behind them."""
    stories = list(stories)
    attributed = [s for s in stories if s.attributed]
    return {
        "violations": len(stories),
        "attributed": len(attributed),
        "attributed_with_events": sum(1 for s in attributed if s.has_events),
        "unattributed": len(stories) - len(attributed),
    }


def format_stories(
    stories: Sequence[ViolationStory], limit: Optional[int] = None
) -> str:
    """Human-readable rendering for ``repro chaos --explain``."""
    if not stories:
        return "no PCC violations to explain"
    shown = stories if limit is None else stories[:limit]
    lines: List[str] = []
    for story in shown:
        lines.append(
            f"conn {story.conn_id} (key {story.key.hex()[:16]}) "
            f"vip {story.vip} — cause: {story.cause} — "
            f"{story.decision_changes} decision change(s) in "
            f"[{story.start:.3f}, {story.end:.3f}]"
        )
        for entry in story.timeline:
            detail = f"  {entry['detail']}" if entry["detail"] else ""
            lines.append(
                f"  {entry['t']:12.6f}  [{entry['category']}] "
                f"{entry['name']}{detail}"
            )
        lines.append("")
    if limit is not None and len(stories) > limit:
        lines.append(f"... and {len(stories) - limit} more violation(s)")
    return "\n".join(lines).rstrip("\n")
