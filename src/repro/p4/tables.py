"""Match-action tables and actions (P4 ``table`` / ``action`` equivalents).

Tables declare a key (a list of ``header.field`` paths with match kinds)
and a set of actions; the control plane installs entries at runtime.  The
interpreter applies a table to a packet context: build the key from the
context, find the matching entry (exact > ternary by priority), run its
action with its bound parameters, and report hit/miss — the same contract
bmv2 gives a P4 program.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    TERNARY = "ternary"


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
    #: Per-field masks for ternary keys (ignored for exact).
    masks: Optional[Tuple[int, ...]] = None
    priority: int = 0


@dataclass
class ApplyResult:
    """Outcome of applying a table to a packet."""

    hit: bool
    action_name: str


class Table:
    """One match-action table."""

    def __init__(
        self,
        name: str,
        key: Sequence[KeyField],
        actions: Sequence[Action],
        default_action: Action = NO_ACTION,
        default_params: Optional[Dict[str, int]] = None,
        size: int = 1024,
    ) -> None:
        if not key:
            raise ValueError("a table needs at least one key field")
        self.name = name
        self.key = list(key)
        self.actions = {a.name: a for a in actions}
        self.actions.setdefault(NO_ACTION.name, NO_ACTION)
        self.default_action = default_action
        self.default_params = dict(default_params or {})
        self.size = size
        self._exact: Dict[Tuple[int, ...], TableEntry] = {}
        self._ternary: List[TableEntry] = []
        self.hits = 0
        self.misses = 0
        self._all_exact = all(k.kind is MatchKind.EXACT for k in self.key)

    # -- control plane -----------------------------------------------------

    def insert(self, entry: TableEntry) -> None:
        if entry.action.name not in self.actions:
            raise ValueError(
                f"action {entry.action.name!r} not declared for table {self.name}"
            )
        if len(entry.match) != len(self.key):
            raise ValueError("match width does not equal key width")
        if len(self._exact) + len(self._ternary) >= self.size:
            raise TableCapacityError(f"table {self.name} is full ({self.size})")
        if self._all_exact and entry.masks is None:
            if entry.match in self._exact:
                raise ValueError(f"duplicate entry in {self.name}: {entry.match}")
            self._exact[entry.match] = entry
        else:
            self._ternary.append(entry)
            self._ternary.sort(key=lambda e: -e.priority)

    def remove(self, match: Tuple[int, ...]) -> None:
        if match in self._exact:
            del self._exact[match]
            return
        for i, entry in enumerate(self._ternary):
            if entry.match == match:
                del self._ternary[i]
                return
        raise KeyError(f"no entry {match} in table {self.name}")

    def set_default(self, action: Action, **params) -> None:
        if action.name not in self.actions:
            raise ValueError(f"action {action.name!r} not declared")
        self.default_action = action
        self.default_params = params

    def clear(self) -> None:
        self._exact.clear()
        self._ternary.clear()

    def __len__(self) -> int:
        return len(self._exact) + len(self._ternary)

    # -- data plane ----------------------------------------------------------

    def build_key(self, ctx: PacketContext) -> Tuple[int, ...]:
        return tuple(ctx.get(k.path) for k in self.key)

    def apply(self, ctx: PacketContext) -> ApplyResult:
        key = self.build_key(ctx)
        entry = self._exact.get(key)
        if entry is None:
            for candidate in self._ternary:
                if self._ternary_match(candidate, key):
                    entry = candidate
                    break
        if entry is None:
            self.misses += 1
            self.default_action(ctx, **self.default_params)
            return ApplyResult(hit=False, action_name=self.default_action.name)
        self.hits += 1
        entry.action(ctx, **entry.params)
        return ApplyResult(hit=True, action_name=entry.action.name)

    @staticmethod
    def _ternary_match(entry: TableEntry, key: Tuple[int, ...]) -> bool:
        masks = entry.masks or tuple(~0 for _ in key)
        return all(
            (k & mask) == (m & mask)
            for k, m, mask in zip(key, entry.match, masks)
        )


class TableCapacityError(RuntimeError):
    """Raised when a table has no room for another entry."""
