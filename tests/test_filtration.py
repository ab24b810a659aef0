import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    OrbitTag,
    Point,
    Region,
    apply,
    classify_point,
    filtration_radius,
    make_henon,
    region_of,
)
from henoncover.henon import apply_inverse_xy, apply_xy

from strategies import henon_maps


def test_region_examples(href_radius):
    R = href_radius.R
    assert region_of(Point(0, 2 * R), R) is Region.Vplus
    assert region_of(Point(2 * R, 0), R) is Region.Vminus
    assert region_of(Point(0, 0), R) is Region.V


def test_region_tie_break(href_radius):
    R = href_radius.R
    # |x| = |y| = R lies on every boundary; Vplus wins by convention
    assert region_of(Point(R, R), R) is Region.Vplus
    assert region_of(Point(R, R * 1j), R) is Region.Vplus


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


def test_classify_deep_point_escapes_immediately(href, href_radius):
    cls = classify_point(href, Point(0, 10 * href_radius.R), href_radius, 50)
    assert cls.tag is OrbitTag.ESCAPED_FORWARD and cls.n == 0


def test_classify_fixed_point_bounded():
    H = make_henon([([0, 0, 1], 1.0)])
    R = filtration_radius(H)
    cls = classify_point(H, Point(0, 0), R, 64)
    assert cls.tag is OrbitTag.BOUNDED_UP_TO and cls.n == 64


def test_escape_count_shifts_under_map(rng, href, href_radius):
    found = 0
    while found < 25:
        z = Point(
            2 * href_radius.R * complex(*rng.uniform(-1, 1, 2)),
            2 * href_radius.R * complex(*rng.uniform(-1, 1, 2)),
        )
        cls = classify_point(href, z, href_radius, 64)
        if cls.tag is OrbitTag.ESCAPED_FORWARD and cls.n >= 1:
            found += 1
            shifted = classify_point(href, apply(href, z), href_radius, 64)
            assert shifted.tag is OrbitTag.ESCAPED_FORWARD
            assert shifted.n == cls.n - 1


def test_escape_monotone_in_budget(rng, href, href_radius):
    for _ in range(50):
        z = Point(
            2 * href_radius.R * complex(*rng.uniform(-1, 1, 2)),
            2 * href_radius.R * complex(*rng.uniform(-1, 1, 2)),
        )
        small = classify_point(href, z, href_radius, 16)
        if small.tag is OrbitTag.ESCAPED_FORWARD:
            large = classify_point(href, z, href_radius, 128)
            assert large.tag is OrbitTag.ESCAPED_FORWARD
            assert large.n == small.n


def test_backward_classification(href, href_radius):
    cls = classify_point(
        href, Point(10 * href_radius.R, 0), href_radius, 50, forward=False
    )
    assert cls.tag is OrbitTag.ESCAPED_BACKWARD and cls.n == 0


def test_stable_axis_of_dissipative_map_stays_bounded():
    H = make_henon([([0, 0, 1], 0.01)])
    R = filtration_radius(H)
    for budget in (1000, 2000):  # doubled-budget oracle agrees
        cls = classify_point(H, Point(50.0, 0.0), R, budget)
        assert cls.tag is OrbitTag.BOUNDED_UP_TO
