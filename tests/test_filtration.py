import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import Point, apply, filtration_radius, make_henon
from henoncover.filtration import escape_orbit
from henoncover.henon import apply_inverse_xy, apply_xy

from strategies import henon_maps


def test_radius_exceeds_one(href_radius, hcubic, htwo):
    assert href_radius.R == pytest.approx(3.9)
    assert filtration_radius(hcubic).R == pytest.approx(2.5)
    assert filtration_radius(htwo).R == pytest.approx(3.1)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_proved_radius_is_a_filtration(H, seed):
    R = filtration_radius(H).R
    rng = np.random.default_rng(seed)
    n = 512
    # the boundary of V+: |y| = R with |x| <= R, and |x| = |y| >= R
    r_out = R * np.exp(rng.uniform(0.0, np.log(50.0), n))
    r_near = np.concatenate([rng.uniform(0.0, R, n), r_out])
    r_far = np.concatenate([np.full(n, R), r_out])
    near = r_near * np.exp(2j * np.pi * rng.uniform(size=2 * n))
    far = r_far * np.exp(2j * np.pi * rng.uniform(size=2 * n))
    margin = 1.0 + 1e-6
    fx, fy = apply_xy(H, near, far)
    assert np.all(np.abs(fy) >= margin * np.maximum(np.abs(fx), R))
    # the boundary of V- is the same set with x and y swapped
    bx, by = apply_inverse_xy(H, far, near)
    assert np.all(np.abs(bx) >= margin * np.maximum(np.abs(by), R))


def test_radius_grows_with_coefficient_size():
    small = filtration_radius(make_henon([([-1.1, 0, 1], 0.8)]))
    big = filtration_radius(make_henon([([-400.0, 0, 1], 0.8)]))
    # 2 + |a| + the sum of the non-leading |c_k|
    assert small.R == pytest.approx(3.9) and big.R == pytest.approx(402.8)


def escape_step(H, z, N_max):
    """escape_orbit's n for the point z, or None when it stays bounded."""
    hit = escape_orbit(H, complex(z.x), complex(z.y), N_max)
    return None if hit is None else hit[0]


def test_escape_orbit_deep_point_escapes_at_step_zero(href, href_radius):
    z = Point(0, 10 * href_radius.R)
    assert escape_orbit(href, z.x, z.y, 50) == (0, z.x, z.y)


def test_escape_orbit_fixed_point_never_escapes():
    H = make_henon([([0, 0, 1], 1.0)])
    assert escape_orbit(H, 0j, 0j, 64) is None


def test_escape_count_shifts_under_map(rng, href, href_radius):
    R = href_radius.R
    found = 0
    while found < 25:
        z = Point(
            2 * R * complex(*rng.uniform(-1, 1, 2)),
            2 * R * complex(*rng.uniform(-1, 1, 2)),
        )
        n = escape_step(href, z, 64)
        if n is not None and n >= 1:
            found += 1
            assert escape_step(href, apply(href, z), 64) == n - 1


def test_escape_monotone_in_budget(rng, href, href_radius):
    R = href_radius.R
    for _ in range(50):
        z = Point(
            2 * R * complex(*rng.uniform(-1, 1, 2)),
            2 * R * complex(*rng.uniform(-1, 1, 2)),
        )
        small = escape_step(href, z, 16)
        if small is not None:
            assert escape_step(href, z, 128) == small


def test_stable_axis_of_dissipative_map_stays_bounded():
    H = make_henon([([0, 0, 1], 0.01)])
    for budget in (1000, 2000):  # doubled-budget oracle agrees
        assert escape_orbit(H, 50.0 + 0j, 0j, budget) is None
