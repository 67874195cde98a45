"""Trace import/export: a CSV round-trip for fleet profiles.

The synthetic fleet is a stand-in for proprietary production data; an
operator reproducing the paper's analysis on *their own* fleet needs a
way in.  These functions round-trip cluster-fleet profiles (the
per-cluster statistics behind Figures 2, 6, 8, 12, 13, 14).

CSV is used so the files are editable and diffable; columns match the
attribute names of :class:`~repro.traces.workload.ClusterProfile`.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import List, Sequence, TextIO, Union

from ..netsim.cluster import ClusterType
from .workload import ClusterProfile

PathOrFile = Union[str, Path, TextIO]

FLEET_COLUMNS = (
    "name",
    "kind",
    "num_tors",
    "num_vips",
    "dips_per_vip",
    "active_conns_per_tor_p99",
    "active_conns_per_tor_median",
    "new_conns_per_vip_per_min",
    "updates_per_min_p99",
    "updates_per_min_median",
    "traffic_gbps",
    "avg_packet_bytes",
    "ipv6",
)

class TraceFormatError(ValueError):
    """Raised on malformed trace files."""


@contextmanager
def _open_for(target: PathOrFile, mode: str):
    """Yield a file handle for ``target``; close it iff we opened it.

    A context manager rather than a ``(handle, owned)`` pair so the handle
    provably closes on *every* exit path — including a
    :class:`TraceFormatError` raised mid-parse — without each reader and
    writer re-implementing the try/finally dance.  Caller-supplied file
    objects stay open (the caller owns their lifecycle).
    """
    if isinstance(target, (str, Path)):
        handle = open(target, mode, newline="")
        try:
            yield handle
        finally:
            handle.close()
    else:
        yield target


# ----------------------------------------------------------------------
# Fleet profiles
# ----------------------------------------------------------------------


def dump_fleet(profiles: Sequence[ClusterProfile], target: PathOrFile) -> None:
    """Write fleet profiles as CSV."""
    with _open_for(target, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(FLEET_COLUMNS)
        for p in profiles:
            writer.writerow(
                [
                    p.name,
                    p.kind.value,
                    p.num_tors,
                    p.num_vips,
                    p.dips_per_vip,
                    repr(p.active_conns_per_tor_p99),
                    repr(p.active_conns_per_tor_median),
                    repr(p.new_conns_per_vip_per_min),
                    repr(p.updates_per_min_p99),
                    repr(p.updates_per_min_median),
                    repr(p.traffic_gbps),
                    repr(p.avg_packet_bytes),
                    int(p.ipv6),
                ]
            )


def load_fleet(source: PathOrFile) -> List[ClusterProfile]:
    """Read fleet profiles from CSV (as written by :func:`dump_fleet`,
    or hand-built from an operator's own measurements)."""
    with _open_for(source, "r") as handle:
        reader = csv.DictReader(handle)
        missing = set(FLEET_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise TraceFormatError(f"fleet CSV missing columns: {sorted(missing)}")
        profiles = []
        for line_no, row in enumerate(reader, start=2):
            try:
                profiles.append(
                    ClusterProfile(
                        name=row["name"],
                        kind=ClusterType(row["kind"]),
                        num_tors=int(row["num_tors"]),
                        num_vips=int(row["num_vips"]),
                        dips_per_vip=int(row["dips_per_vip"]),
                        active_conns_per_tor_p99=float(row["active_conns_per_tor_p99"]),
                        active_conns_per_tor_median=float(
                            row["active_conns_per_tor_median"]
                        ),
                        new_conns_per_vip_per_min=float(
                            row["new_conns_per_vip_per_min"]
                        ),
                        updates_per_min_p99=float(row["updates_per_min_p99"]),
                        updates_per_min_median=float(row["updates_per_min_median"]),
                        traffic_gbps=float(row["traffic_gbps"]),
                        avg_packet_bytes=float(row["avg_packet_bytes"]),
                        ipv6=row["ipv6"] in ("1", "True", "true"),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise TraceFormatError(f"bad fleet row at line {line_no}: {exc}") from exc
        return profiles

