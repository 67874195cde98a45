"""Tests for P4 match-action tables."""

from __future__ import annotations

import pytest

from repro.p4.context import PacketContext
from repro.p4.tables import (
    Action,
    KeyField,
    NO_ACTION,
    Table,
    TableCapacityError,
    TableEntry,
)


def make_ctx(vip_index=0, version=0) -> PacketContext:
    ctx = PacketContext()
    ctx.set("meta.vip_index", vip_index)
    ctx.set("meta.pool_version", version)
    return ctx


def set_version(ctx, version):
    ctx.set("meta.pool_version", version)


SET_VERSION = Action("set_version", set_version)


def make_table(**kwargs) -> Table:
    return Table(
        "t",
        key=[KeyField("meta.vip_index")],
        actions=[SET_VERSION],
        **kwargs,
    )


class TestExactMatch:
    def test_hit_runs_action(self):
        table = make_table()
        table.insert(TableEntry(match=(7,), action=SET_VERSION, params={"version": 3}))
        ctx = make_ctx(vip_index=7)
        result = table.apply(ctx)
        assert result.hit and result.action_name == "set_version"
        assert ctx.get("meta.pool_version") == 3
        assert table.hits == 1

    def test_miss_runs_default(self):
        table = make_table()
        ctx = make_ctx(vip_index=9)
        result = table.apply(ctx)
        assert not result.hit and result.action_name == NO_ACTION.name
        assert table.misses == 1

    def test_duplicate_entry_rejected(self):
        table = make_table()
        table.insert(TableEntry(match=(1,), action=SET_VERSION, params={"version": 1}))
        with pytest.raises(ValueError):
            table.insert(TableEntry(match=(1,), action=SET_VERSION, params={"version": 2}))

    def test_remove(self):
        table = make_table()
        table.insert(TableEntry(match=(1,), action=SET_VERSION, params={"version": 1}))
        table.remove((1,))
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.remove((1,))

    def test_capacity(self):
        table = make_table(size=2)
        table.insert(TableEntry(match=(1,), action=SET_VERSION, params={"version": 0}))
        table.insert(TableEntry(match=(2,), action=SET_VERSION, params={"version": 0}))
        with pytest.raises(TableCapacityError):
            table.insert(TableEntry(match=(3,), action=SET_VERSION, params={"version": 0}))

    def test_undeclared_action_rejected(self):
        table = make_table()
        rogue = Action("rogue", lambda ctx: None)
        with pytest.raises(ValueError):
            table.insert(TableEntry(match=(1,), action=rogue))

    def test_key_width_validated(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.insert(TableEntry(match=(1, 2), action=SET_VERSION))


    def test_no_key_rejected(self):
        with pytest.raises(ValueError):
            Table("empty", key=[], actions=[SET_VERSION])
