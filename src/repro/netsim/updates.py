"""DIP-pool update workload: root causes, downtimes, rolling reboots.

§3.1 of the paper measures, across ~100 production clusters:

* **Update frequency** (Fig 2): 32 % of clusters see >10 updates/min in
  their 99th-percentile minute; 3 % see >50; Backends update more than
  PoPs/Frontends.
* **Root causes** (Fig 3): 82.7 % of DIP additions/removals come from VIP
  service *upgrades* in Backends; testing, failures, preemption,
  provisioning and removal split the rest (<13 % combined for any one).
* **Downtime** (Fig 4): an upgraded DIP is down 3 min in the median but
  100 min at the 99th percentile; provisioning causes no downtime.

This module generates update *event streams* with those properties: a
rolling-reboot upgrade takes DIPs down a fixed number at a time, each DIP
staying down for a sampled downtime before being re-added (which is when
SilkRoad's version-reuse kicks in: the re-added DIP substitutes the removed
one in an existing pool version).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .packet import DirectIP, VirtualIP


class UpdateKind(enum.Enum):
    """One DIP-pool change.

    The generated update streams (§3.1) only use ``ADD`` and ``REMOVE``;
    the serving mode (:mod:`repro.serve`) adds two operator-initiated
    kinds:

    * ``DRAIN`` — a *graceful* removal: the DIP leaves the current pool
      (new connections stop landing on it) but the server stays up, so
      connections pinned to older pool versions keep flowing until they
      end naturally.  ``REMOVE`` models the server dying — it breaks the
      connections currently mapped to the DIP.
    * ``WEIGHT`` — change a DIP's share of new connections by replicating
      its slot in a *new* pool version (``UpdateEvent.weight`` copies);
      existing versions are immutable, so pinned connections never move.
    """

    ADD = "add"
    REMOVE = "remove"
    DRAIN = "drain"
    WEIGHT = "weight"


class RootCause(enum.Enum):
    """Why a DIP was added/removed (Fig 3 categories)."""

    UPGRADE = "upgrade"
    TESTING = "testing"
    FAILURE = "failure"
    PREEMPTING = "preempting"
    PROVISIONING = "provisioning"
    REMOVING = "removing"


#: Share of DIP additions/removals by root cause (Fig 3).  Upgrades are
#: 82.7 % (stated exactly); the remainder splits across the small causes,
#: consistent with the paper's "all others account for less than 13 %".
ROOT_CAUSE_SHARES: Dict[RootCause, float] = {
    RootCause.UPGRADE: 0.827,
    RootCause.TESTING: 0.050,
    RootCause.FAILURE: 0.038,
    RootCause.PREEMPTING: 0.029,
    RootCause.PROVISIONING: 0.028,
    RootCause.REMOVING: 0.028,
}


@dataclass(frozen=True)
class DowntimeModel:
    """Lognormal DIP downtime parameterized by median and 99th percentile."""

    median_s: float
    p99_s: float

    def __post_init__(self) -> None:
        if self.median_s <= 0 or self.p99_s < self.median_s:
            raise ValueError("need 0 < median <= p99")

    @property
    def sigma(self) -> float:
        # z(0.99) = 2.3263
        return math.log(self.p99_s / self.median_s) / 2.3263

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if self.sigma == 0:
            return (
                np.full(size, self.median_s) if size is not None else self.median_s
            )
        return rng.lognormal(mean=math.log(self.median_s), sigma=self.sigma, size=size)


#: Fig 4: upgrade downtime is 3 min median, 100 min p99.
DOWNTIME_BY_CAUSE: Dict[RootCause, Optional[DowntimeModel]] = {
    RootCause.UPGRADE: DowntimeModel(median_s=180.0, p99_s=6000.0),
    RootCause.TESTING: DowntimeModel(median_s=120.0, p99_s=3600.0),
    RootCause.FAILURE: DowntimeModel(median_s=300.0, p99_s=10800.0),
    RootCause.PREEMPTING: DowntimeModel(median_s=240.0, p99_s=7200.0),
    RootCause.PROVISIONING: None,  # provisioning causes no downtime
    RootCause.REMOVING: None,  # removal is permanent
}


@dataclass(frozen=True)
class UpdateEvent:
    """One DIP-pool change applied to a VIP at a point in time."""

    time: float
    vip: VirtualIP
    kind: UpdateKind
    dip: DirectIP
    cause: RootCause = RootCause.UPGRADE
    #: Slot copies for ``WEIGHT`` updates; ignored by every other kind.
    weight: int = 1

    def __str__(self) -> str:
        return f"[{self.time:9.3f}] {self.kind.value:6s} {self.dip} @ {self.vip} ({self.cause.value})"


@dataclass
class RollingUpgrade:
    """A rolling-reboot service upgrade (§3.1).

    The cluster scheduler reboots ``batch_size`` DIPs every ``period_s``
    seconds; each rebooted DIP comes back after a sampled downtime and is
    re-added (possibly substituting into an old pool version).
    """

    vip: VirtualIP
    dips: Sequence[DirectIP]
    start: float = 0.0
    batch_size: int = 2
    period_s: float = 300.0
    downtime: DowntimeModel = DOWNTIME_BY_CAUSE[RootCause.UPGRADE]

    def events(self, rng: np.random.Generator) -> List[UpdateEvent]:
        """Generate the interleaved remove/add stream of the upgrade."""
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        events: List[UpdateEvent] = []
        for batch_idx in range(0, len(self.dips), self.batch_size):
            batch = self.dips[batch_idx : batch_idx + self.batch_size]
            t_down = self.start + (batch_idx // self.batch_size) * self.period_s
            downtimes = self.downtime.sample(rng, size=len(batch))
            for dip, dt in zip(batch, np.atleast_1d(downtimes)):
                events.append(
                    UpdateEvent(
                        time=t_down,
                        vip=self.vip,
                        kind=UpdateKind.REMOVE,
                        dip=dip,
                        cause=RootCause.UPGRADE,
                    )
                )
                events.append(
                    UpdateEvent(
                        time=t_down + float(dt),
                        vip=self.vip,
                        kind=UpdateKind.ADD,
                        dip=dip,
                        cause=RootCause.UPGRADE,
                    )
                )
        events.sort(key=lambda e: e.time)
        return events


class UpdateGenerator:
    """Generates Poisson update streams at a target rate (Figs 5, 16, 17).

    The paper's PCC experiments apply "an average of 1 to 50 updates per
    minute" to the VIPs of a cluster.  Each update alternates removing a
    random pool member and re-adding a previously removed one (the dominant
    upgrade pattern), with occasional pure adds/removes per the root-cause
    mix.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def poisson_updates(
        self,
        vips: Dict[VirtualIP, List[DirectIP]],
        updates_per_min: float,
        horizon_s: float,
        spare_dips: Optional[Dict[VirtualIP, List[DirectIP]]] = None,
    ) -> List[UpdateEvent]:
        """A Poisson stream of single-DIP updates across the given VIPs.

        ``vips`` maps each VIP to its initial pool; updates pick a uniform
        random VIP.  Removals never drain a pool below one DIP.  Additions
        draw from ``spare_dips`` (previously removed or fresh capacity).
        """
        if updates_per_min < 0:
            raise ValueError("updates_per_min must be non-negative")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        rate = updates_per_min / 60.0
        count = self._rng.poisson(rate * horizon_s)
        times = np.sort(self._rng.uniform(0.0, horizon_s, size=count))
        vip_list = list(vips.keys())
        pools = {vip: list(pool) for vip, pool in vips.items()}
        spares = {vip: list((spare_dips or {}).get(vip, [])) for vip in vip_list}
        causes = list(ROOT_CAUSE_SHARES.keys())
        cause_p = np.array([ROOT_CAUSE_SHARES[c] for c in causes])
        cause_p = cause_p / cause_p.sum()
        events: List[UpdateEvent] = []
        for t in times:
            vip = vip_list[self._rng.integers(len(vip_list))]
            cause = causes[self._rng.choice(len(causes), p=cause_p)]
            pool = pools[vip]
            spare = spares[vip]
            # Prefer the remove/re-add alternation of a rolling upgrade.
            do_add = bool(spare) and (len(pool) <= 1 or self._rng.random() < 0.5)
            if do_add:
                dip = spare.pop(self._rng.integers(len(spare)))
                pool.append(dip)
                events.append(
                    UpdateEvent(float(t), vip, UpdateKind.ADD, dip, cause)
                )
            elif len(pool) > 1:
                dip = pool.pop(self._rng.integers(len(pool)))
                spare.append(dip)
                events.append(
                    UpdateEvent(float(t), vip, UpdateKind.REMOVE, dip, cause)
                )
            # A 1-DIP pool with no spares: skip (cannot update safely).
        return events
