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
    def test_assignment(self, vip):
        placement = VipPlacement()
        placement.assign(vip, Layer.CORE)
        assert placement.assignment == {vip: Layer.CORE}
