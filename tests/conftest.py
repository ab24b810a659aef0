import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import henoncover
from henoncover import build_chart, certify_region, cover, filtration_radius, make_henon


@pytest.fixture(scope="session")
def href():
    """Reference quadratic map (y, y^2 - 1.1 - 0.8 x)."""
    return make_henon([([-1.1, 0, 1], 0.8)])


@pytest.fixture(scope="session")
def hcubic():
    """Odd cubic map (y, y^3 - 0.5 x) with the (-x, -y) symmetry."""
    return make_henon([([0, 0, 0, 1], 0.5)])


@pytest.fixture(scope="session")
def htwo():
    """Two quadratic factors: d = 4, d' = 2."""
    return make_henon([([-0.1, 0, 1], 1.0), ([0.05, 0, 1], 0.9)])


@pytest.fixture(scope="session")
def href_radius(href):
    return filtration_radius(href)


@pytest.fixture(scope="session")
def href_region(href):
    return certify_region(href)


@pytest.fixture(scope="session")
def href_chart(href):
    return build_chart(href)


@pytest.fixture(scope="session")
def htwo_chart(htwo):
    return build_chart(htwo)


@pytest.fixture(scope="session")
def hcubic_chart(hcubic):
    return build_chart(hcubic)


@pytest.fixture()
def fresh_tables():
    """Clear every cache derived from the series table, before the test and after.

    _q_from_series and _r_laurent read _series_table, so a test that changes
    the table (say, by monkeypatching _TORUS_N) must clear all three: a
    cached Q would otherwise skip the table and its gates.
    """
    caches = (cover._series_table, cover._q_from_series, cover._r_laurent)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def fresh_python(tmp_path):
    """Run a new interpreter in tmp_path that imports henoncover from this source tree."""
    src = str(Path(henoncover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )

    return run
