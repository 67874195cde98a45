"""Tests for the fabric/topology model."""

from __future__ import annotations

import pytest

from repro.netsim.topology import Fabric, Layer, VipPlacement


@pytest.fixture
def fabric() -> Fabric:
    return Fabric.build(num_tors=8, num_aggs=4, num_cores=2)


class TestFabric:
    def test_layer_widths(self, fabric):
        widths = [len(fabric.layer_switches(layer)) for layer in Layer]
        assert widths == [8, 4, 2]
        assert len(fabric.all_switches()) == 14

    def test_build_validation(self):
        with pytest.raises(ValueError):
            Fabric.build(num_tors=0)


class TestVipPlacement:
    def test_default_layer_is_tor(self, fabric, vip):
        placement = VipPlacement(fabric=fabric)
        assert placement.layer_of(vip) is Layer.TOR

    def test_assignment(self, fabric, vip):
        placement = VipPlacement(fabric=fabric)
        placement.assign(vip, Layer.CORE)
        assert placement.layer_of(vip) is Layer.CORE

    def test_strict_raises_on_unknown_vip(self, fabric, vip):
        placement = VipPlacement(fabric=fabric, strict=True)
        with pytest.raises(KeyError):
            placement.layer_of(vip)
        placement.assign(vip, Layer.AGG)
        assert placement.layer_of(vip) is Layer.AGG

    def test_strict_override_per_call(self, fabric, vip):
        lenient = VipPlacement(fabric=fabric)
        with pytest.raises(KeyError):
            lenient.layer_of(vip, strict=True)
        strict = VipPlacement(fabric=fabric, strict=True)
        assert strict.layer_of(vip, strict=False) is Layer.TOR
