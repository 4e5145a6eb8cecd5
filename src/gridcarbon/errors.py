"""Exception types shared across the package.

Everything raised on purpose derives from GridCarbonError, so callers
(including the CLI) can distinguish validation failures from genuine bugs
or I/O problems.
"""

from __future__ import annotations


class GridCarbonError(Exception):
    """Base class for all errors raised by this package."""


class EmptyMix(GridCarbonError):
    """Carbon intensity is undefined for a mix with zero total generation."""


class UnknownSource(GridCarbonError):
    """A mix or contract references a source id that is not registered."""


class UnknownRegion(GridCarbonError):
    """A consumer or contract references a region with no grid mix."""


class ContractNotCarbonFree(GridCarbonError):
    """A contract targets a source that is not carbon-free."""


class EmptyResidual(GridCarbonError):
    """All energy in a mix is under contract; the residual is empty."""


class ZeroDemand(GridCarbonError):
    """Per-consumer carbon intensity is undefined for zero demand."""


class ClaimExceedsDemand(GridCarbonError):
    """A consumer claims more carbon-free energy than it consumed."""


class ScenarioInvalid(GridCarbonError):
    """A scenario failed validation; carries the offending field path."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class ParseError(GridCarbonError):
    """A data file contains a malformed cell; carries row/column context."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        parts = [f"row {row}"] if row is not None else []
        if column is not None:
            parts.append(f"column {column!r}")
        where = f" ({', '.join(parts)})" if parts else ""
        super().__init__(f"{message}{where}")


class SchemaError(GridCarbonError):
    """A data file is missing a required column."""


class GapError(GridCarbonError):
    """Timestamps in a dataset are not uniformly spaced (strict mode)."""


class EmptyFleet(GridCarbonError):
    """Fleet statistics require at least one region dataset."""


class WindowTooShort(GridCarbonError):
    """The allowed scheduling window cannot fit the load's duration."""


class SignalMismatch(GridCarbonError):
    """Reported and actual carbon-intensity series have different lengths."""


class ZeroBaseline(GridCarbonError):
    """Percentage savings are undefined against zero baseline emissions."""
