"""§6.1: digest width vs ConnTable false positives and memory.

Fills a ConnTable to a realistic load and streams new (unseen) connections
through data-plane lookups, counting false hits for several digest widths;
the empirical rate extrapolates to the paper's 2.77 M new connections per
minute.

Paper anchors (one PoP, 2.77 M new conns/min): a 16-bit digest costs 32 MB
SRAM and ~270 false positives per minute (0.01 %); a 24-bit digest costs
42.8 MB and ~1.1 per minute (0.00004 %).  All are resolved in software
with no PCC impact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis import format_table
from ..asicsim.cuckoo import CuckooTable, TableFull
from ..netsim.packet import TupleFactory, VirtualIP

PAPER_NEW_CONNS_PER_MIN = 2_770_000.0


@dataclass
class DigestFpPoint:
    digest_bits: int
    resident_entries: int
    probes: int
    false_positives: int
    sram_bytes: int

    @property
    def fp_rate(self) -> float:
        if self.probes == 0:
            return 0.0
        return self.false_positives / self.probes

    @property
    def fp_per_paper_minute(self) -> float:
        """Extrapolated to the paper's 2.77 M new connections/minute."""
        return self.fp_rate * PAPER_NEW_CONNS_PER_MIN


def run(
    digest_bits: Sequence[int] = (12, 16, 24),
    resident: int = 40_000,
    probes: int = 120_000,
    seed: int = 0xD16,
) -> List[DigestFpPoint]:
    points: List[DigestFpPoint] = []
    for bits in digest_bits:
        table = CuckooTable.for_capacity(
            resident, target_load=0.85, digest_bits=bits, seed=seed
        )
        factory = TupleFactory()
        vip = VirtualIP.parse("20.0.0.1:80")
        inserted = 0
        for _ in range(resident):
            key = factory.next_for(vip).key_bytes()
            try:
                table.insert(key, 1)
                inserted += 1
            except TableFull:
                continue  # rare even at high load; skip and keep filling
        fp_before = table.false_positive_lookups
        for _ in range(probes):
            key = factory.next_for(vip).key_bytes()  # unseen connections
            table.lookup(key)
        points.append(
            DigestFpPoint(
                digest_bits=bits,
                resident_entries=inserted,
                probes=probes,
                false_positives=table.false_positive_lookups - fp_before,
                sram_bytes=table.sram_bytes,
            )
        )
    return points


def main(seed: int = 0xD16) -> str:
    points = run(seed=seed)
    rows = [
        (
            p.digest_bits,
            p.resident_entries,
            f"{100 * p.fp_rate:.5f}",
            f"{p.fp_per_paper_minute:.1f}",
            f"{p.sram_bytes / 1e6:.2f}",
        )
        for p in points
    ]
    table = format_table(
        (
            "digest bits",
            "resident conns",
            "FP rate %",
            "FPs/min @2.77M new conns",
            "table SRAM MB",
        ),
        rows,
        title="Digest width vs false positives (§6.1)",
    )
    anchors = (
        "paper anchors: 16-bit -> ~270 FP/min (0.01%), 32 MB; "
        "24-bit -> ~1.1 FP/min (0.00004%), 42.8 MB"
    )
    return table + "\n" + anchors


if __name__ == "__main__":
    print(main())
