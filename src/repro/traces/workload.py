"""Synthetic cluster fleet: the ~100-cluster study of §3.1 and §6.

:class:`FleetSynthesizer` draws a fleet of cluster *profiles* whose
marginal statistics follow the fits in :mod:`repro.traces.distributions`.
The profiles carry everything the scalability figures need — active
connections per ToR, new-connection rates, update rates, traffic volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..netsim.cluster import ClusterType
from .distributions import (
    ACTIVE_CONNS_PER_TOR_P99,
    ACTIVE_MEDIAN_TO_P99_RATIO,
    AVG_PACKET_BYTES,
    CLUSTER_TRAFFIC_GBPS,
    NEW_CONNS_PER_VIP_PER_MIN,
    UPDATE_MEDIAN_TO_P99_RATIO,
    UPDATE_P99_PER_MIN,
)

#: Fleet composition: the paper studies PoPs, Frontends and Backends; the
#: backend population dominates (most churn happens there).
DEFAULT_MIX = {
    ClusterType.POP: 30,
    ClusterType.FRONTEND: 25,
    ClusterType.BACKEND: 45,
}


@dataclass(frozen=True)
class ClusterProfile:
    """Summary statistics of one synthesized cluster."""

    name: str
    kind: ClusterType
    num_tors: int
    num_vips: int
    dips_per_vip: int
    active_conns_per_tor_p99: float
    active_conns_per_tor_median: float
    new_conns_per_vip_per_min: float  # fleet-level representative (median VIP)
    updates_per_min_p99: float
    updates_per_min_median: float
    traffic_gbps: float
    avg_packet_bytes: float
    ipv6: bool

    @property
    def total_dips(self) -> int:
        return self.num_vips * self.dips_per_vip

    @property
    def peak_pps(self) -> float:
        """Peak packets/second of the cluster's VIP traffic."""
        return self.traffic_gbps * 1e9 / 8.0 / self.avg_packet_bytes

    @property
    def peak_connections(self) -> float:
        """Peak simultaneous connections across the cluster's ToRs."""
        return self.active_conns_per_tor_p99 * self.num_tors


class FleetSynthesizer:
    """Draws reproducible fleets of cluster profiles."""

    def __init__(self, seed: int = 0xF1EE7) -> None:
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def synthesize(self) -> List[ClusterProfile]:
        """Generate a fleet of ``DEFAULT_MIX`` (~100 clusters)."""
        profiles: List[ClusterProfile] = []
        for kind, count in DEFAULT_MIX.items():
            for index in range(count):
                profiles.append(self._one(kind, index))
        return profiles

    def _one(self, kind: ClusterType, index: int) -> ClusterProfile:
        rng = self._rng
        active_p99 = float(ACTIVE_CONNS_PER_TOR_P99[kind].sample(rng))
        active_median = active_p99 * min(float(ACTIVE_MEDIAN_TO_P99_RATIO.sample(rng)), 1.0)
        upd_p99 = float(UPDATE_P99_PER_MIN[kind].sample(rng))
        upd_median = upd_p99 * min(float(UPDATE_MEDIAN_TO_P99_RATIO.sample(rng)), 1.0)
        new_per_vip = float(NEW_CONNS_PER_VIP_PER_MIN[kind].sample(rng))
        traffic = float(CLUSTER_TRAFFIC_GBPS[kind].sample(rng))
        if kind is ClusterType.POP:
            num_tors = int(rng.integers(8, 33))
            num_vips = int(rng.integers(80, 300))
            dips_per_vip = int(rng.integers(8, 64))
        elif kind is ClusterType.FRONTEND:
            num_tors = int(rng.integers(8, 33))
            num_vips = int(rng.integers(20, 120))
            dips_per_vip = int(rng.integers(8, 48))
        else:
            num_tors = int(rng.integers(16, 65))
            num_vips = int(rng.integers(100, 800))
            dips_per_vip = int(rng.integers(4, 32))
        return ClusterProfile(
            name=f"{kind.value}-{index}",
            kind=kind,
            num_tors=num_tors,
            num_vips=num_vips,
            dips_per_vip=dips_per_vip,
            active_conns_per_tor_p99=active_p99,
            active_conns_per_tor_median=active_median,
            new_conns_per_vip_per_min=new_per_vip,
            updates_per_min_p99=upd_p99,
            updates_per_min_median=upd_median,
            traffic_gbps=traffic,
            avg_packet_bytes=AVG_PACKET_BYTES[kind],
            # Most Backends run IPv6, most PoPs/Frontends IPv4 (§6.1).
            ipv6=kind is ClusterType.BACKEND,
        )

    def vip_rates(self, profile: ClusterProfile) -> np.ndarray:
        """Per-VIP new-connection rates for one cluster (Fig 8 samples)."""
        fit = NEW_CONNS_PER_VIP_PER_MIN[profile.kind]
        return fit.sample(self._rng, size=profile.num_vips)

    def monthly_minutes(self, profile: ClusterProfile, minutes: int = 43_200) -> np.ndarray:
        """Per-minute update counts for a month in one cluster (Fig 2).

        A mixture: most minutes hum at the median rate; a heavy tail of
        bursty minutes reaches the cluster's p99 rate.
        """
        rng = self._rng
        base = rng.poisson(max(profile.updates_per_min_median, 1e-6), size=minutes)
        # Bursty minutes: ~1.5% of minutes spike towards the p99 level.
        burst_mask = rng.random(minutes) < 0.015
        bursts = rng.poisson(max(profile.updates_per_min_p99, 1e-6), size=minutes)
        return np.where(burst_mask, base + bursts, base)
