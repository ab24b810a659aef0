import numpy as np
import pytest

from henoncover import (
    Membership,
    Point,
    apply,
    apply_inverse,
    bottcher_phi,
    classify_point,
    filtration_radius,
    green_minus,
    green_plus,
    make_henon,
    membership,
)
from henoncover.green import escape_time_grid, green_plus_grid
from henoncover.henon import inverse_leading_constant


def test_green_zero_at_fixed_point():
    H = make_henon([([0, 0, 1], 1.0)])
    g = green_plus(H, Point(0, 0))
    assert g.value == 0.0
    gm = green_minus(H, Point(0, 0))
    assert gm.value == 0.0


def test_green_deep_value_matches_bottcher_oracle():
    H = make_henon([([0, 0, 1], 1.0)])
    z = Point(0, 1e8)
    g = green_plus(H, z)
    # oracle: log|phi| with the product summed to a 1e-10 tail
    oracle = np.log(abs(bottcher_phi(H, z, 1e-10)))
    assert abs(g.value - oracle) <= 1e-10
    assert abs(g.value - 8 * np.log(10)) <= 1e-3


def test_green_functorial(rng, href):
    checked = 0
    while checked < 200:
        z = Point(complex(*rng.uniform(-8, 8, 2)), complex(*rng.uniform(-8, 8, 2)))
        g = green_plus(href, z)
        if g.value <= 0.01:
            continue
        checked += 1
        g2 = green_plus(href, apply(href, z))
        assert abs(g2.value - href.d * g.value) <= 1e-6 * max(1.0, href.d * g.value)


def test_green_minus_mirrors(rng, href):
    d = href.d
    checked = 0
    while checked < 60:
        z = Point(complex(*rng.uniform(-8, 8, 2)), complex(*rng.uniform(-8, 8, 2)))
        g = green_minus(href, z)
        if g.value <= 0.01:
            continue
        checked += 1
        g2 = green_minus(href, apply_inverse(href, z))
        assert abs(g2.value - d * g.value) <= 1e-6 * max(1.0, d * g.value)


def test_green_minus_deep_scale():
    H = make_henon([([0, 0, 1], 1.0)])
    g = green_minus(H, Point(1e8, 0))
    # backward-orbit oracle: one pulled-back step of the raw quotient
    z1 = apply_inverse(H, Point(1e8, 0))
    raw = np.log(abs(z1.x)) / H.d
    assert abs(g.value - 8 * np.log(10)) <= 1e-3
    assert abs(g.value - raw) <= 1e-6 * raw


def test_green_minus_normalization_two_factor(htwo):
    # for |x| enormous the value is log|x| - log|kappa|/(d-1) + o(1)
    kappa = inverse_leading_constant(htwo)
    g = green_minus(htwo, Point(1e9, 0.5))
    expected = np.log(1e9) - np.log(abs(kappa)) / (htwo.d - 1)
    assert abs(g.value - expected) <= 1e-3


def test_green_nonnegative_and_zero_on_bounded(rng, href):
    for _ in range(50):
        z = Point(
            0.4 * complex(*rng.uniform(-1, 1, 2)), 0.4 * complex(*rng.uniform(-1, 1, 2))
        )
        g = green_plus(href, z, N_max=128)
        assert g.value >= 0.0
        if g.depth == 128:
            assert g.value <= g.error_bound


def test_green_depth_stability(rng, href):
    for _ in range(30):
        z = Point(complex(*rng.uniform(-8, 8, 2)), complex(*rng.uniform(-8, 8, 2)))
        g1 = green_plus(href, z, N_max=64)
        g2 = green_plus(href, z, N_max=69)
        assert abs(g1.value - g2.value) <= g1.error_bound + g2.error_bound


def test_green_agrees_with_bottcher_deep(rng, href, href_radius):
    R = href_radius.R
    for _ in range(40):
        y = 10 * R * np.exp(2j * np.pi * rng.uniform()) * rng.uniform(1, 5)
        x = rng.uniform(0, 0.3) * abs(y) * np.exp(2j * np.pi * rng.uniform())
        z = Point(x, y)
        g = green_plus(href, z)
        assert abs(g.value - np.log(abs(bottcher_phi(href, z)))) <= 1e-8


def test_membership(href, href_radius):
    assert membership(href, Point(0, 10 * href_radius.R)) is Membership.ESCAPING
    H = make_henon([([0, 0, 1], 1.0)])
    assert membership(H, Point(0, 0)) is Membership.NON_ESCAPING_UP_TO_BUDGET


def test_grid_matches_scalar(rng, href, href_radius):
    xs = rng.uniform(-8, 8, 40) + 1j * rng.uniform(-8, 8, 40)
    ys = rng.uniform(-8, 8, 40) + 1j * rng.uniform(-8, 8, 40)
    vals, errs, depths = green_plus_grid(href, xs, ys, href_radius.R, 96)
    for x, y, v in zip(xs, ys, vals):
        g = green_plus(href, Point(x, y), N_max=96)
        assert abs(g.value - v) <= 1e-9 * max(1.0, v)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_escape_time_grid_matches_classify_point(request, rng, name):
    H = request.getfixturevalue(name)
    R = filtration_radius(H)
    shape = (15, 20)
    xs = 0.5 * R.R * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    ys = 0.5 * R.R * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    steps = escape_time_grid(H, xs, ys, R.R, 64)
    want = [
        classify_point(H, Point(x, y), R, 64).n for x, y in zip(xs.flat, ys.flat)
    ]
    assert steps.shape == shape
    assert steps.ravel().tolist() == want
    assert 0 < sum(n == 64 for n in want) < len(want)  # both kinds of orbit
