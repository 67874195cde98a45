"""Figure 15: benefit of DIP-pool version reuse.

Drives one VIP's DipPoolTable through rolling-upgrade update streams of
increasing intensity (each removal's DIP is re-added after a sampled
downtime, the dominant §3.1 pattern) and compares:

* **without reuse** — every update allocates a fresh version number, so a
  10-minute window with N updates needs ~N version numbers;
* **with reuse + recycling** — additions substitute into the vacated slot
  of a still-live old version, and version numbers return to the ring
  buffer once the connection cohorts pinned to them expire; what matters
  for the version-field width is the *peak* number of simultaneously live
  versions.

Paper anchors: up to 330 updates in ten minutes would need 330 versions
(9 bits) naively; with reuse at most 51 live versions (6 bits).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..analysis import format_table
from ..core.dip_pool_table import DipPoolTable
from ..netsim.cluster import make_cluster
from ..netsim.updates import DowntimeModel

DEFAULT_UPDATE_COUNTS = (10, 30, 50, 100, 200, 330)
WINDOW_S = 600.0
#: Rolling-reboot downtime inside a 10-minute window (a scaled-down slice
#: of Figure 4's upgrade distribution).
WINDOW_DOWNTIME = DowntimeModel(median_s=60.0, p99_s=240.0)
#: How long a connection cohort pins a version (covers the bulk of the
#: Hadoop-style flow-duration distribution).
HOLD_S = 90.0


@dataclass(frozen=True)
class Fig15Point:
    updates_applied: int
    versions_no_reuse: int
    peak_live_with_reuse: int

    @staticmethod
    def _bits(versions: int) -> int:
        return max(1, math.ceil(math.log2(max(versions, 2))))

    @property
    def bits_no_reuse(self) -> int:
        return self._bits(self.versions_no_reuse)

    @property
    def bits_with_reuse(self) -> int:
        return self._bits(self.peak_live_with_reuse)


def _rolling_stream(
    rng: np.random.Generator, dips: list, count: int
) -> List[Tuple[float, str, object]]:
    """(time, 'remove'|'add', dip) events of a rolling upgrade."""
    removals = max(count // 2, 1)
    times = np.sort(rng.uniform(0.0, WINDOW_S * 0.8, size=removals))
    downtimes = WINDOW_DOWNTIME.sample(rng, size=removals)
    events: List[Tuple[float, str, object]] = []
    order = rng.permutation(len(dips))
    for i, (t, dt) in enumerate(zip(times, downtimes)):
        dip = dips[order[i % len(dips)]]
        events.append((float(t), "remove", dip))
        events.append((min(float(t) + float(dt), WINDOW_S - 1e-6), "add", dip))
    events.sort(key=lambda e: e[0])
    return events[:count]


def run(
    update_counts: Sequence[int] = DEFAULT_UPDATE_COUNTS,
    dips_per_vip: int = 64,
    seed: int = 15,
) -> List[Fig15Point]:
    points: List[Fig15Point] = []
    for count in update_counts:
        rng = np.random.default_rng(seed + count)
        cluster = make_cluster(num_vips=1, dips_per_vip=dips_per_vip)
        vip = cluster.vips[0]
        dips = list(cluster.services[0].dips)
        events = _rolling_stream(rng, dips, count)

        # --- without reuse: a fresh version per update, nothing recycled
        # within the window (long-lived connections pin them all).
        no_reuse = DipPoolTable(version_bits=16, version_reuse=False)
        no_reuse.add_vip(vip, dips)
        removed: set = set()
        applied = 0
        for _t, kind, dip in events:
            if kind == "remove" and dip not in removed and len(
                no_reuse.pool(vip, no_reuse.current_version(vip))
            ) > 1:
                no_reuse.acquire(vip, no_reuse.current_version(vip))
                no_reuse.remove_dip(vip, dip)
                removed.add(dip)
                applied += 1
            elif kind == "add" and dip in removed:
                no_reuse.acquire(vip, no_reuse.current_version(vip))
                no_reuse.add_dip(vip, dip)
                removed.discard(dip)
                applied += 1
        versions_no_reuse = no_reuse.versions_created(vip)

        # --- with reuse: substitution + ring-buffer recycling as cohorts
        # expire; measure the peak number of simultaneously live versions.
        table = DipPoolTable(version_bits=16, version_reuse=True)
        table.add_vip(vip, dips)
        releases: List[Tuple[float, int]] = []  # (release_time, version)
        removed = set()
        peak_live = 1
        for t, kind, dip in events:
            while releases and releases[0][0] <= t:
                _rt, version = heapq.heappop(releases)
                table.release(vip, version)
            current = table.current_version(vip)
            table.acquire(vip, current)  # the cohort arriving before this
            heapq.heappush(releases, (t + HOLD_S, current))
            if kind == "remove" and dip not in removed and len(table.pool(vip, current)) > 1:
                table.remove_dip(vip, dip)
                removed.add(dip)
            elif kind == "add" and dip in removed:
                table.add_dip(vip, dip)
                removed.discard(dip)
            peak_live = max(peak_live, len(table.live_versions(vip)))
        points.append(
            Fig15Point(
                updates_applied=applied,
                versions_no_reuse=versions_no_reuse,
                peak_live_with_reuse=peak_live,
            )
        )
    return points


def main(seed: int = 15) -> str:
    points = run(seed=seed)
    rows = [
        (
            p.updates_applied,
            p.versions_no_reuse,
            p.bits_no_reuse,
            p.peak_live_with_reuse,
            p.bits_with_reuse,
        )
        for p in points
    ]
    table = format_table(
        (
            "updates in 10 min",
            "versions (no reuse)",
            "bits",
            "peak live versions (reuse)",
            "bits",
        ),
        rows,
        title="Figure 15: version reuse bounds the version-number space",
    )
    anchors = "paper anchors: 330 updates -> 330 versions / 9 bits without reuse, <=51 / 6 bits with reuse"
    return table + "\n" + anchors


if __name__ == "__main__":
    print(main())
