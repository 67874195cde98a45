"""Shared fixtures for the SilkRoad reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.packet import DirectIP, TupleFactory, VirtualIP


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def vip() -> VirtualIP:
    return VirtualIP.parse("20.0.0.1:80")


@pytest.fixture
def vip6() -> VirtualIP:
    return VirtualIP.parse("[2001:db8::1]:443")


@pytest.fixture
def dips() -> list:
    return [DirectIP.parse(f"10.0.0.{i}:8080") for i in range(1, 9)]


@pytest.fixture
def tuples() -> TupleFactory:
    return TupleFactory()


@pytest.fixture
def keys(tuples, vip):
    """A generator of unique connection keys towards the VIP."""

    def make(count: int):
        return [tuples.next_for(vip).key_bytes() for _ in range(count)]

    return make


@pytest.fixture
def no_spawn(monkeypatch):
    """Fail the test if the sharded engine starts a shard, pooled or serial:
    invalid input must be rejected before that."""
    from repro.experiments import parallel

    def refuse(*_args, **_kwargs):
        raise AssertionError("a worker was spawned for invalid input")

    monkeypatch.setattr(parallel, "_spawn", refuse)
    monkeypatch.setattr(parallel, "run_shard", refuse)
