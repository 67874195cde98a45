"""SilkRoad on an RMT-style pipeline: the paper's two chip-level claims.

A 10 M-entry ConnTable and its companion tables fit the on-chip SRAM of a
32-stage RMT chip (106 blocks of 1 K x 112-bit words per stage), and a
packet crosses the pipeline in under a microsecond.
"""

from __future__ import annotations

from repro.core.config import SilkRoadConfig
from repro.core.sram_cost import conn_entry, pool_member_entry, vip_entry
from repro.experiments import latency

#: On-chip SRAM of the RMT reference chip: 32 stages x 106 blocks x 1 K words.
RMT_SRAM_BYTES = 32 * 106 * 1024 * 112 // 8


class TestPlacement:
    def test_silkroad_10m_connections_fit_rmt_chip(self):
        # The headline feasibility claim: a 10M-entry ConnTable (28-bit
        # packed entries) plus 4 K IPv6 VIPs, a 256 K-member DIP pool
        # table and the 256-byte TransitTable fit the chip's SRAM.
        used = (
            conn_entry().bytes_for(10_000_000)
            + vip_entry(ipv6=True).bytes_for(4096)
            + pool_member_entry(ipv6=True).bytes_for(262_144)
            + SilkRoadConfig().transit_table_bytes
        )
        assert RMT_SRAM_BYTES == 48_627_712
        assert used == 42_454_976  # ConnTable 35 MB of it
        assert used < RMT_SRAM_BYTES

    def test_latency_sub_microsecond(self):
        assert latency.run().silkroad_pipeline_s < 1e-6  # the paper's sub-us claim
