"""SilkRoad switch configuration.

Defaults follow the paper's evaluation setup (§5, §6): 16-bit digests,
6-bit DIP-pool versions, four ConnTable entries per 112-bit SRAM word, a
256-byte TransitTable, a learning filter with a 1 ms timeout, and a switch
CPU inserting 200 K ConnTable entries per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SilkRoadConfig:
    """The settable knobs of a SilkRoad switch instance.

    What the paper fixes and no caller varies is a named constant beside
    the code that reads it: ConnTable geometry and target load
    (:mod:`.conn_table`), the TransitTable hash count
    (:mod:`.transit_table`), the learning-filter capacity, the idle
    timeout and the slow-path retry and FP-resolution delays
    (:mod:`.silkroad`).
    """

    # --- ConnTable geometry (§4.2).
    conn_table_capacity: int = 1_000_000
    digest_bits: int = 16
    version_bits: int = 6

    # --- TransitTable (§4.3).
    use_transit_table: bool = True
    transit_table_bytes: int = 256

    # --- Connection learning (§4.1, §4.3).
    learning_filter_timeout_s: float = 1e-3
    insertion_rate_per_s: float = 200_000.0

    # --- Slow-path hardening (failure model; see docs/robustness.md).
    #: Maximum insertion jobs the switch CPU may hold queued or in flight.
    #: ``None`` models the idealized unbounded FIFO; with a bound, excess
    #: jobs are *shed* and the connection waits to be re-learned once the
    #: CPU's backlog plus the learning filter's occupancy is under it.
    cpu_max_backlog: Optional[int] = None
    #: Per-step watchdog deadline for 3-step updates.  ``None`` waits
    #: forever (the idealized model); with a deadline, a step that overruns
    #: force-advances and its still-pending keys are reclassified at-risk.
    update_step_deadline_s: Optional[float] = None

    # --- Versioning (§4.2).
    version_reuse: bool = True

    # --- Overflow policy (§7, "Combine with SLB solutions").
    #: When ConnTable is full, pin the connection in software (switch CPU
    #: or an SLB tier) instead of leaving it on the slow path: PCC is
    #: preserved at the cost of software-forwarded traffic, effectively
    #: treating ConnTable as a cache of connections.
    overflow_to_software: bool = False

    def __post_init__(self) -> None:
        if self.conn_table_capacity <= 0:
            raise ValueError("conn_table_capacity must be positive")
        if not 1 <= self.digest_bits <= 64:
            raise ValueError("digest_bits must be in [1, 64]")
        if not 1 <= self.version_bits <= 16:
            raise ValueError("version_bits must be in [1, 16]")
        if self.transit_table_bytes <= 0:
            raise ValueError("transit_table_bytes must be positive")
        if self.insertion_rate_per_s <= 0:
            raise ValueError("insertion_rate_per_s must be positive")
        if self.learning_filter_timeout_s <= 0:
            raise ValueError("learning_filter_timeout_s must be positive")
        if self.cpu_max_backlog is not None and self.cpu_max_backlog <= 0:
            raise ValueError("cpu_max_backlog must be positive or None")
        if self.update_step_deadline_s is not None and self.update_step_deadline_s <= 0:
            raise ValueError("update_step_deadline_s must be positive or None")

    @property
    def num_versions(self) -> int:
        """Distinct DIP-pool versions representable per VIP."""
        return 1 << self.version_bits
