"""Exception types shared across the toolkit."""

from __future__ import annotations


class IntradayError(Exception):
    """Base class for all toolkit-specific errors."""


class PanelFormatError(IntradayError):
    """A tabular input could not be parsed (bad header, malformed row)."""

    def __init__(self, message: str, row_number: int | None = None):
        if row_number is not None:
            message = f"row {row_number}: {message}"
        super().__init__(message)
        self.row_number = row_number


class DuplicateRowError(IntradayError):
    """The same (date, bin, symbol) cell appeared more than once."""


class CompletenessError(IntradayError):
    """A required (date, bin, symbol) cell is missing under the strict policy."""


class PriceDomainError(IntradayError):
    """A price record is outside the valid domain (non-positive or non-finite price)."""


class InsufficientDataError(IntradayError):
    """Too few observations for the requested estimator."""


class DegenerateSampleError(IntradayError):
    """A sample has zero dispersion where a scale-normalized statistic is required."""


class DegenerateCrossSectionError(DegenerateSampleError):
    """One or more bin-day cross-sections have zero dispersion.

    Carries the offending (bin, day_index) pairs so callers can report or
    exclude them.
    """

    def __init__(self, bin_days: list[tuple[int, int]]):
        self.bin_days = bin_days
        shown = ", ".join(f"(bin {k}, day {t})" for k, t in bin_days[:8])
        more = "" if len(bin_days) <= 8 else f" and {len(bin_days) - 8} more"
        super().__init__(f"zero cross-sectional dispersion at {shown}{more}")


class FeasibilityError(IntradayError):
    """A generator manifest requests an unattainable configuration."""


class SchemaError(IntradayError):
    """A stage output table has a bad version line, or lacks its header or a column."""
