"""Tests for the P4-16 source emitter."""

from __future__ import annotations

import re

import pytest

from repro.core import SilkRoadConfig
from repro.p4 import SilkRoadP4, emit_p4, emit_to_file


@pytest.fixture(scope="module")
def source() -> str:
    return emit_p4(SilkRoadP4())


class TestEmission:
    def test_all_figure10_tables_present(self, source):
        for table in (
            "vip_table_v4",
            "vip_table_v6",
            "conn_table",
            "dip_group_table",
            "dip_member_table",
            "transit_table",
        ):
            assert table in source, table

    def test_all_actions_present(self, source):
        for action in (
            "set_vip",
            "set_conn_version",
            "select_member",
            "rewrite_dst",
            "redirect_to_cpu",
        ):
            assert f"action {action}" in source, action

    def test_metadata_fields_emitted(self, source):
        for field in ("conn_digest", "pool_version", "old_version", "vip_in_update"):
            assert field in source

    def test_parser_states(self, source):
        for state in ("parse_ipv4", "parse_ipv6", "parse_tcp", "parse_udp"):
            assert f"state {state}" in source

    def test_braces_balance(self, source):
        assert source.count("{") == source.count("}")

    def test_register_sized_from_pipeline(self):
        small = emit_p4(SilkRoadP4(SilkRoadConfig(transit_table_bytes=8)))
        assert "register<bit<1>>(64) transit_table;" in small
        large = emit_p4(SilkRoadP4(SilkRoadConfig(transit_table_bytes=256)))
        assert "register<bit<1>>(2048) transit_table;" in large

    def test_line_count_near_paper_scale(self, source):
        # The paper: "~400 lines of P4" for the SilkRoad addition.
        lines = source.count("\n")
        assert 200 < lines < 600

    def test_no_python_artifacts(self, source):
        assert "lambda" not in source
        assert not re.search(r"\bself\b", source)

    def test_emit_to_file(self, tmp_path):
        path = tmp_path / "silkroad.p4"
        count = emit_to_file(SilkRoadP4(), path)
        assert path.exists()
        assert count == path.read_text().count("\n")
