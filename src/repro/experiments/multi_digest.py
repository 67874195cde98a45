"""§7: per-stage digest widths — FP/memory tradeoffs beyond one knob.

The paper suggests using *different digest sizes in different stages*:
"when there is a small number of connections, we insert new connections
to stages with larger digest sizes (i.e., low false positives); when the
number of connections increases, we use stages with smaller digest sizes
to scale up."

This experiment measures exactly that: a graded table ([24, 16, 12, 8]
bits across stages) against a uniform 15-bit table of the same total SRAM,
probed for false positives at a **light** fill (entries occupy the wide
early stages only) and at a **heavy** fill (the narrow stages are in
play).  The measured tradeoff: the graded design is an order of magnitude
better while lightly loaded, and pays with a higher FP rate only once the
narrow overflow stages actually fill — which is precisely the "scale up
by tolerating more false positives" elasticity §7 describes (the extra
FPs remain software-resolvable SYN redirects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..asicsim.cuckoo import CuckooTable, TableFull
from ..netsim.packet import TupleFactory, VirtualIP

DigestSpec = Union[int, Sequence[int]]

GRADED: Tuple[int, ...] = (24, 16, 12, 8)
UNIFORM_BITS = 15  # same total digest budget as the graded profile


@dataclass(frozen=True)
class MultiDigestPoint:
    design: str
    fill: str
    resident: int
    probes: int
    false_positives: int
    sram_bytes: int
    stage_occupancy: Tuple[int, ...]

    @property
    def fp_rate(self) -> float:
        if self.probes == 0:
            return 0.0
        return self.false_positives / self.probes


def _measure(
    design: str,
    digest_bits: DigestSpec,
    fill_fraction: float,
    fill_label: str,
    capacity: int,
    probes: int,
    seed: int,
) -> MultiDigestPoint:
    table = CuckooTable.for_capacity(
        capacity, target_load=0.9, digest_bits=digest_bits, seed=seed
    )
    factory = TupleFactory()
    vip = VirtualIP.parse("20.0.0.1:80")
    target = int(capacity * fill_fraction)
    inserted = 0
    for _ in range(target):
        try:
            table.insert(factory.next_for(vip).key_bytes(), 1)
            inserted += 1
        except TableFull:
            continue
    fp_before = table.false_positive_lookups
    for _ in range(probes):
        table.lookup(factory.next_for(vip).key_bytes())
    return MultiDigestPoint(
        design=design,
        fill=fill_label,
        resident=inserted,
        probes=probes,
        false_positives=table.false_positive_lookups - fp_before,
        sram_bytes=table.sram_bytes,
        stage_occupancy=tuple(table.stage_occupancy()),
    )


def run(
    capacity: int = 24_000,
    probes: int = 80_000,
    seed: int = 0x51A9E,
) -> List[MultiDigestPoint]:
    points: List[MultiDigestPoint] = []
    for design, bits in (("graded-24/16/12/8", GRADED), (f"uniform-{UNIFORM_BITS}", UNIFORM_BITS)):
        for fill_fraction, label in ((0.25, "light"), (0.85, "heavy")):
            points.append(
                _measure(design, bits, fill_fraction, label, capacity, probes, seed)
            )
    return points


def _light_fill(points: List[MultiDigestPoint]) -> Tuple[MultiDigestPoint, MultiDigestPoint]:
    """The ``(graded, uniform)`` points at light fill."""
    light = [p for p in points if p.fill == "light"]
    return (
        next(p for p in light if p.design.startswith("graded")),
        next(p for p in light if p.design.startswith("uniform")),
    )


def light_fill_advantage(points: List[MultiDigestPoint]) -> float:
    """uniform FP rate / graded FP rate at light fill (>1 = graded wins)."""
    graded, uniform = _light_fill(points)
    if graded.fp_rate == 0:
        return float("inf") if uniform.fp_rate > 0 else 1.0
    return uniform.fp_rate / graded.fp_rate


def _advantage_text(points: List[MultiDigestPoint]) -> str:
    """:func:`light_fill_advantage` in words: a ratio, or — when the graded
    table saw no false positive, so there is no finite ratio — both counts."""
    graded, uniform = _light_fill(points)
    if graded.false_positives:
        return f"{light_fill_advantage(points):.1f}x"
    return (
        f"0 graded vs {uniform.false_positives:,} uniform FPs in "
        f"{graded.probes:,} probes each"
    )


def main(seed: int = 0x51A9E) -> str:
    from ..analysis import format_table

    points = run(seed=seed)
    rows = [
        (
            p.design,
            p.fill,
            p.resident,
            f"{100 * p.fp_rate:.4f}",
            f"{p.sram_bytes / 1e6:.3f}",
            "/".join(str(o) for o in p.stage_occupancy),
        )
        for p in points
    ]
    table = format_table(
        ("design", "fill", "resident", "FP rate %", "SRAM MB", "per-stage occupancy"),
        rows,
        title="§7 per-stage digest widths: FP vs memory",
    )
    return table + (
        f"\nlight-fill FP advantage of the graded design: "
        f"{_advantage_text(points)} (entries occupy the wide early stages "
        "first)"
    )


if __name__ == "__main__":
    print(main())
