"""Source categories and default carbon emission factors.

The default CEF table maps each source category to grams of CO2-equivalent
per kWh of generation. Coal is pinned at 1000 g/kWh (the conventional
round number for a coal plant); the remaining non-zero values are typical
published figures for operational (combustion-only) emissions. They are
stand-ins, not ground truth: every value can be overridden per run via a
small YAML table (see :func:`gridcarbon.scenarios.load_cef_table`) or per
category in a scenario file.

Under the operational-emissions model used throughout this package,
renewables and nuclear are carbon-free (CEF exactly 0). Biomass burns
fuel, so it carries a non-zero factor and is not treated as carbon-free
even though it is often classed as renewable.
"""

from __future__ import annotations

from collections.abc import Iterable

# Every category a source may declare; mirrors ElectricityMaps-style
# generation breakdowns.
SOURCE_CATEGORIES: frozenset[str] = frozenset(
    {
        "solar",
        "wind",
        "hydro",
        "nuclear",
        "coal",
        "gas",
        "oil",
        "biomass",
        "geothermal",
        "unknown",
        "other-renewable",
        "other-fossil",
    }
)

# Categories whose generation counts as carbon-free energy (CFE).
CARBON_FREE_CATEGORIES: frozenset[str] = frozenset(
    {"solar", "wind", "hydro", "nuclear", "geothermal", "other-renewable"}
)

# Default CEF per category, g CO2-eq per kWh. Overridable; see module docstring.
DEFAULT_CEF: dict[str, float] = {
    "solar": 0.0,
    "wind": 0.0,
    "hydro": 0.0,
    "nuclear": 0.0,
    "geothermal": 0.0,
    "other-renewable": 0.0,
    "coal": 1000.0,
    "gas": 490.0,
    "oil": 650.0,
    "biomass": 230.0,
    "other-fossil": 700.0,
    "unknown": 475.0,
}


def check_categories(categories: Iterable[str]) -> None:
    """Raise ValueError for a name that is not a source category."""
    for category in categories:
        if category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {category!r}")
