from __future__ import annotations

import pytest
from hypothesis import settings

from gridcarbon import GridMix, SourceRegistry

# ``--hypothesis-profile=thorough``: ten times the default examples, for the
# differential tests that guard a refactor.
settings.register_profile("thorough", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def sources() -> SourceRegistry:
    return SourceRegistry.default()


@pytest.fixture()
def toy() -> GridMix:
    return GridMix(region="toy", generation={"wind": 500.0, "coal": 500.0})


@pytest.fixture()
def displaced_coal_mix() -> GridMix:
    # 20 MWh solar feeding a grid where coal scaled back to keep 1000 MWh.
    return GridMix(region="local", generation={"wind": 500.0, "solar": 20.0, "coal": 480.0})
