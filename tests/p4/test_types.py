"""Tests for P4 header types and instances."""

from __future__ import annotations

import pytest

from repro.p4.types import (
    ETHERNET,
    FieldSpec,
    HeaderInstance,
    HeaderSpec,
    IPV4,
    IPV6,
    TCP,
    UDP,
    silkroad_metadata,
)


class TestSpecs:
    def test_header_widths(self):
        assert ETHERNET.bits == 112
        assert IPV4.bits == 160
        assert IPV6.bits == 320
        assert TCP.bits == 160
        assert UDP.bits == 64

    def test_bytes(self):
        assert ETHERNET.bytes == 14
        assert IPV4.bytes == 20
        assert IPV6.bytes == 40

    def test_field_lookup(self):
        assert IPV4.field("dst_addr").bits == 32
        with pytest.raises(KeyError):
            IPV4.field("nonexistent")

    def test_field_validation(self):
        with pytest.raises(ValueError):
            FieldSpec("bad", 0)

    def test_metadata_is_small(self):
        # The paper reports SilkRoad metadata costs <1 % of PHV bits.
        assert silkroad_metadata().bits < 128


class TestHeaderInstance:
    def test_starts_invalid_and_zeroed(self):
        inst = HeaderInstance(IPV4)
        assert not inst.valid
        assert inst["dst_addr"] == 0

    def test_set_get(self):
        inst = HeaderInstance(IPV4)
        inst.set_valid()
        inst["ttl"] = 64
        assert inst["ttl"] == 64

    def test_width_enforced(self):
        inst = HeaderInstance(IPV4)
        with pytest.raises(ValueError):
            inst["ttl"] = 256
        with pytest.raises(ValueError):
            inst["ttl"] = -1
