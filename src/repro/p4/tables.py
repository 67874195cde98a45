"""Match-action tables and actions (P4 ``table`` / ``action`` equivalents).

Tables declare a key (a list of ``header.field`` paths with match kinds)
and a set of actions; the control plane installs entries at runtime.  The
interpreter applies a table to a packet context: build the key from the
context, find the exact-match entry, run its action with its bound
parameters, and report hit/miss — the same contract bmv2 gives a P4
program.  Every key field is matched exactly, the one kind the SilkRoad
program uses and the emitter writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from .context import PacketContext

#: An action body: ``fn(ctx, **params)``.
ActionFn = Callable[..., None]


@dataclass(frozen=True)
class Action:
    """A named action with a Python body (its 'primitive ops')."""

    name: str
    body: ActionFn

    def __call__(self, ctx: PacketContext, **params) -> None:
        self.body(ctx, **params)


def no_op(ctx: PacketContext) -> None:
    """The P4 ``NoAction``."""


NO_ACTION = Action("NoAction", no_op)


class MatchKind(enum.Enum):
    EXACT = "exact"


@dataclass(frozen=True)
class KeyField:
    """One component of a table key."""

    path: str  # "header.field", "meta.field", or "standard.field"
    kind: MatchKind = MatchKind.EXACT


@dataclass(frozen=True)
class TableEntry:
    """An installed entry: match values -> action(params)."""

    match: Tuple[int, ...]
    action: Action
    params: Dict[str, int] = field(default_factory=dict)


@dataclass
class ApplyResult:
    """Outcome of applying a table to a packet."""

    hit: bool


class Table:
    """One match-action table."""

    def __init__(
        self,
        name: str,
        key: Sequence[KeyField],
        actions: Sequence[Action],
        default_action: Action = NO_ACTION,
        size: int = 1024,
    ) -> None:
        if not key:
            raise ValueError("a table needs at least one key field")
        self.name = name
        self.key = list(key)
        self.actions = {a.name: a for a in actions}
        self.actions.setdefault(NO_ACTION.name, NO_ACTION)
        self.default_action = default_action
        self.size = size
        self._entries: Dict[Tuple[int, ...], TableEntry] = {}
        self.hits = 0
        self.misses = 0

    # -- control plane -----------------------------------------------------

    def insert(self, entry: TableEntry) -> None:
        if entry.action.name not in self.actions:
            raise ValueError(
                f"action {entry.action.name!r} not declared for table {self.name}"
            )
        if len(entry.match) != len(self.key):
            raise ValueError("match width does not equal key width")
        if len(self._entries) >= self.size:
            raise TableCapacityError(f"table {self.name} is full ({self.size})")
        if entry.match in self._entries:
            raise ValueError(f"duplicate entry in {self.name}: {entry.match}")
        self._entries[entry.match] = entry

    def remove(self, match: Tuple[int, ...]) -> None:
        if match not in self._entries:
            raise KeyError(f"no entry {match} in table {self.name}")
        del self._entries[match]

    def __len__(self) -> int:
        return len(self._entries)

    # -- data plane ----------------------------------------------------------

    def build_key(self, ctx: PacketContext) -> Tuple[int, ...]:
        return tuple(ctx.get(k.path) for k in self.key)

    def apply(self, ctx: PacketContext) -> ApplyResult:
        entry = self._entries.get(self.build_key(ctx))
        if entry is None:
            self.misses += 1
            self.default_action(ctx)
            return ApplyResult(hit=False)
        self.hits += 1
        entry.action(ctx, **entry.params)
        return ApplyResult(hit=True)


class TableCapacityError(RuntimeError):
    """Raised when a table has no room for another entry."""
