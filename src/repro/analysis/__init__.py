"""Analysis helpers: empirical CDFs, report formatting, terminal plots."""

from .cdf import Cdf, percent_above
from .plots import ascii_cdf, sparkline
from .reporting import format_comparison, format_table

__all__ = [
    "Cdf",
    "ascii_cdf",
    "format_comparison",
    "format_table",
    "percent_above",
    "sparkline",
]
