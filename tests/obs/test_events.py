"""The event catalogue: what a declaration rejects, and the documented
table against the declared one."""

from __future__ import annotations

import pickle
import re
from pathlib import Path

import pytest

from repro.obs import events
from repro.obs.events import CATALOGUE, CONN_SYN, RESERVED_FIELDS, EventKind

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


@pytest.mark.parametrize("field", sorted(RESERVED_FIELDS))
def test_a_field_may_not_shadow_the_events_own_keys(field):
    # ``RecorderEvent.to_dict()`` ends with ``out.update(attrs)``: such a
    # field would silently replace the event's own value.
    with pytest.raises(ValueError, match=field):
        EventKind("test", f"shadows_{field}", ("ok", field))


@pytest.mark.parametrize(
    "category, name, fields",
    [
        ("", "name", ()),
        ("test", "", ()),
        ("test", "twice", ("a", "a")),
        (CONN_SYN.category, CONN_SYN.name, CONN_SYN.fields),
    ],
)
def test_empty_names_and_duplicates_are_rejected(category, name, fields):
    with pytest.raises(ValueError):
        EventKind(category, name, fields)


def test_a_rejected_declaration_leaves_the_catalogue_alone():
    before = dict(CATALOGUE)
    for bad in (("test", "rejected", ("seq",)), ("conn", "syn", ())):
        with pytest.raises(ValueError):
            EventKind(*bad)
    assert CATALOGUE == before
    assert not any(category == "test" for category, _name in CATALOGUE)


def test_catalogue_is_the_modules_constants():
    constants = {
        name: value
        for name, value in vars(events).items()
        if isinstance(value, EventKind)
    }
    assert list(constants.values()) == list(CATALOGUE.values())
    for name, kind in constants.items():
        assert name == f"{kind.category}_{kind.name}".upper()
        assert CATALOGUE[kind.category, kind.name] is kind
        assert events.kind_of(kind.category, kind.name) is kind
    counts = {}
    for category, _name in CATALOGUE:
        counts[category] = counts.get(category, 0) + 1
    assert counts == {
        "conn": 10, "update": 6, "slowpath": 10, "fault": 11, "fleet": 13,
    }


def test_kinds_pickle_as_catalogue_references():
    for kind in CATALOGUE.values():
        assert pickle.loads(pickle.dumps(kind)) is kind


def _documented():
    """``(category, name, fields)`` per row of the catalogue table in
    docs/observability.md."""
    section = DOC.read_text().split("## Flight recorder", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 4 or not re.fullmatch(r"`\w+`", cells[0]):
            continue
        category, name = cells[0].strip("`"), cells[1].strip("`")
        fields = tuple(re.findall(r"`(\w+)`", cells[2]))
        assert fields or cells[2] == "—", line
        rows.append((category, name, fields))
    return rows


def test_documented_catalogue_is_the_declared_one():
    declared = [(k.category, k.name, k.fields) for k in CATALOGUE.values()]
    assert _documented() == declared


def test_a_dropped_job_with_an_unknown_reason_mints_no_event():
    from repro.api import SilkRoadConfig, SilkRoadSwitch
    from repro.obs import FlightRecorder

    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=64))
    recorder = FlightRecorder()
    switch.attach_recorder(recorder)
    for reason in ("shed", "lost", "install_failed"):
        switch._on_job_dropped(b"k", (), reason)
    assert [e.name for e in recorder.events()] == [
        "job_shed", "job_lost", "job_install_failed",
    ]
    with pytest.raises(KeyError):
        switch._on_job_dropped(b"k", (), "bogus")
    assert len(recorder) == 3
