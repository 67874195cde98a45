"""The event catalogue: every flight-recorder event, declared once.

An :class:`EventKind` names an event (``category`` + ``name``) and the
fields it carries, in the order its record site passes them.  The
:class:`~repro.obs.recorder.FlightRecorder` stores a reference to the
kind and the bare values; field names are joined back on only when an
event is read.  Every kind the code emits is a constant of this module —
there is no other place an ``EventKind`` is built
(``tests/test_layering.py::test_one_spelling_per_event``) — and the table
in ``docs/observability.md`` is checked against :data:`CATALOGUE`
(``tests/obs/test_events.py``).

Kinds pickle by reference: a recorder shipped back from a worker
resolves each ``(category, name)`` in the parent's catalogue, so the
clone holds the declared constants, not copies.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .causes import AT_RISK, FP_ADOPTED, OVERFLOW  # exposure events' names

__all__ = ["CATALOGUE", "EventKind", "RESERVED_FIELDS", "kind_of"]

#: The keys ``RecorderEvent.to_dict()`` writes for the event itself; a
#: field of the same name would silently replace one of them.
RESERVED_FIELDS = frozenset(("seq", "t", "category", "name", "key", "source"))

#: ``(category, name)`` -> the declared kind, in declaration order.
CATALOGUE: Dict[Tuple[str, str], "EventKind"] = {}


class EventKind:
    """One kind of event: ``category``, ``name`` and its field names."""

    __slots__ = ("category", "name", "fields")

    def __init__(self, category: str, name: str, fields: Tuple[str, ...] = ()) -> None:
        if not category or not name:
            raise ValueError("an event kind needs a category and a name")
        fields = tuple(fields)
        clash = RESERVED_FIELDS.intersection(fields)
        if clash:
            raise ValueError(
                f"{category}.{name}: field name(s) {sorted(clash)} are the "
                f"event's own"
            )
        if len(set(fields)) != len(fields):
            raise ValueError(f"{category}.{name}: duplicate field name")
        if (category, name) in CATALOGUE:
            raise ValueError(f"{category}.{name} is already declared")
        self.category = category
        self.name = name
        self.fields = fields
        CATALOGUE[(category, name)] = self

    def __reduce__(self):
        return kind_of, (self.category, self.name)

    def __repr__(self) -> str:
        return f"EventKind({self.category}.{self.name}{list(self.fields)})"


def kind_of(category: str, name: str) -> EventKind:
    """The declared kind called ``category``.``name`` (``KeyError`` if the
    catalogue has none)."""
    return CATALOGUE[(category, name)]


# -- conn: one connection's lifecycle (every event carries its key) --------

CONN_SYN = EventKind("conn", "syn", ("vip",))
CONN_FP_SYN_REDIRECT = EventKind("conn", "fp_syn_redirect")
CONN_FP_ADOPTED = EventKind("conn", FP_ADOPTED, ("vip", "old_version"))
CONN_MARKED = EventKind("conn", "marked", ("vip",))
CONN_INSTALL = EventKind("conn", "install", ("version", "moves"))
CONN_OVERFLOW = EventKind("conn", OVERFLOW, ("pinned",))
CONN_AT_RISK = EventKind("conn", AT_RISK, ("vip", "phase"))
CONN_RESUME = EventKind("conn", "resume", ("version",))
CONN_FIN = EventKind("conn", "fin", ("installed",))
CONN_EVICT = EventKind("conn", "evict")

# -- update: the 3-step PCC update of one VIP ------------------------------

UPDATE_T_REQ = EventKind("update", "t_req", ("vip", "update_id"))
UPDATE_T_EXEC = EventKind(
    "update", "t_exec", ("vip", "kind", "dip", "old_version", "new_version")
)
UPDATE_T_FINISH = EventKind("update", "t_finish", ("vip",))
UPDATE_STALE = EventKind("update", "stale", ("vip", "kind", "dip"))
UPDATE_VERSION_EXHAUSTED = EventKind("update", "version_exhausted", ("vip",))
UPDATE_WATCHDOG_FORCED = EventKind(
    "update", "watchdog_forced", ("vip", "phase", AT_RISK)
)

# -- slowpath: learning-filter notifications and the switch CPU ------------

SLOWPATH_BATCH_DELIVERED = EventKind("slowpath", "batch_delivered", ("size", "reason"))
SLOWPATH_BATCH_LOST = EventKind("slowpath", "batch_lost", ("size", "reason"))
SLOWPATH_BATCH_DELAYED = EventKind("slowpath", "batch_delayed", ("size", "delay_s"))
SLOWPATH_JOB_SHED = EventKind("slowpath", "job_shed")
SLOWPATH_JOB_LOST = EventKind("slowpath", "job_lost")
SLOWPATH_JOB_INSTALL_FAILED = EventKind("slowpath", "job_install_failed")
SLOWPATH_RELEARN = EventKind("slowpath", "relearn")
SLOWPATH_CPU_CRASH = EventKind(
    "slowpath", "cpu_crash", ("jobs_lost", "restart_delay_s")
)
SLOWPATH_CPU_STALL = EventKind("slowpath", "cpu_stall", ("duration_s",))
SLOWPATH_CPU_RESTART = EventKind("slowpath", "cpu_restart")

# -- fault: one injected fault-plan event ----------------------------------
# One per ``FaultKind`` member (``fault.<value>``): the switch kinds carry
# the plan event's four switch knobs, the fleet kinds the switch hit and a
# duration.

_SWITCH_FAULT = ("duration_s", "count", "probability", "delay_s")
FAULT_CPU_CRASH = EventKind("fault", "cpu_crash", _SWITCH_FAULT)
FAULT_CPU_STALL = EventKind("fault", "cpu_stall", _SWITCH_FAULT)
FAULT_INSTALL_FAIL_WINDOW = EventKind("fault", "install_fail_window", _SWITCH_FAULT)
FAULT_NOTIFICATION_LOSS = EventKind("fault", "notification_loss", _SWITCH_FAULT)
FAULT_BATCH_DELAY = EventKind("fault", "batch_delay", _SWITCH_FAULT)

_FLEET_FAULT = ("switch", "duration_s")
FAULT_SWITCH_CRASH = EventKind("fault", "switch_crash", _FLEET_FAULT)
FAULT_SWITCH_PARTITION = EventKind("fault", "switch_partition", _FLEET_FAULT)
FAULT_SWITCH_FLAP = EventKind("fault", "switch_flap", _FLEET_FAULT)
FAULT_HEARTBEAT_LOSS = EventKind("fault", "heartbeat_loss", _FLEET_FAULT)
FAULT_DETECTION_DELAY = EventKind("fault", "detection_delay", _FLEET_FAULT)
FAULT_VIP_REASSIGN = EventKind("fault", "vip_reassign", _FLEET_FAULT)

# -- fleet: the fleet controller's view of its switches and VIPs -----------

FLEET_CRASH = EventKind("fleet", "crash", ("switch", "blackholed"))
FLEET_RESTART = EventKind("fleet", "restart", ("switch", "generation"))
FLEET_PARTITION = EventKind("fleet", "partition", ("switch", "depth"))
FLEET_HEAL = EventKind("fleet", "heal", ("switch",))
FLEET_HEARTBEAT_LOSS = EventKind("fleet", "heartbeat_loss", ("switch", "count"))
FLEET_DECLARE_DOWN = EventKind("fleet", "declare_down", ("switch", "reason"))
FLEET_SHED = EventKind("fleet", "shed", ("vip", "dropped"))
FLEET_REJOIN = EventKind("fleet", "rejoin", ("switch", "generation"))
FLEET_RESYNC = EventKind("fleet", "resync", ("switch", "generation"))
FLEET_REASSIGN_ANNOUNCE = EventKind("fleet", "reassign_announce", ("vip", "src", "dst"))
FLEET_REASSIGN_DRAIN = EventKind("fleet", "reassign_drain", ("vip", "src", "dst"))
FLEET_REASSIGN_REDIRECT = EventKind(
    "fleet", "reassign_redirect", ("vip", "src", "moved")
)
FLEET_REASSIGN_ABORT = EventKind(
    "fleet", "reassign_abort", ("vip", "src", "dst", "reason", "races")
)
