import numpy as np
import pytest

from henoncover import (
    Point,
    SublevelTag,
    annulus_coordinate,
    classify_sublevel,
    make_henon,
)
from henoncover.green import escaping_samples
from henoncover.shortc2 import NotEscaping
from henoncover.verification import check_annulus_modulus, check_sublevel_equivariance


def test_fixed_point_in_k_plus():
    H = make_henon([([0, 0, 1], 1.0)])
    for c in (0.1, 1.0, 10.0):
        cls = classify_sublevel(H, c, Point(0, 0))
        assert cls.tag is SublevelTag.IN_K_PLUS_UP_TO_BUDGET
        assert cls.green_value.value == 0.0


def test_classification_follows_green(rng, href):
    for z, g in escaping_samples(href, 25, rng, N_max=256):
        below = classify_sublevel(href, 2.0 * g, z)
        above = classify_sublevel(href, 0.5 * g, z)
        assert below.tag is SublevelTag.IN_OMEGA_PRIME
        assert 0 < below.green_value.value < 2.0 * g
        assert above.tag is SublevelTag.OUTSIDE_OMEGA


def test_deep_point_outside_small_sublevel(href, href_radius):
    c = 0.5
    y = 20.0 * href_radius.R * np.exp(2.0 * c)  # G+ ~ log|y| >> c
    cls = classify_sublevel(href, c, Point(0.0, y))
    assert cls.tag is SublevelTag.OUTSIDE_OMEGA
    assert abs(cls.green_value.value - np.log(y)) <= 1e-2 * np.log(y)


def test_ambiguous_band_flagged(rng, href):
    (z, g), = escaping_samples(href, 1, rng, N_max=256)
    cls = classify_sublevel(href, g, z)
    assert cls.tag is SublevelTag.OUTSIDE_OMEGA
    assert cls.ambiguous


def test_monotone_in_threshold(rng, href):
    for z, g in escaping_samples(href, 15, rng, N_max=256):
        c1 = classify_sublevel(href, 1.2 * g, z)
        c2 = classify_sublevel(href, 2.4 * g, z)
        if c1.tag is SublevelTag.IN_OMEGA_PRIME and not c2.ambiguous:
            assert c2.tag is SublevelTag.IN_OMEGA_PRIME


def test_annulus_modulus_is_green(rng, href, href_chart):
    for z, g in escaping_samples(href, 30, rng, N_max=256):
        zeta = annulus_coordinate(href_chart, z)
        assert abs(abs(zeta) - np.exp(g)) <= 1e-8 * np.exp(g)


def test_annulus_range_inside_sublevel(rng, href, href_chart):
    c = 1.5
    found = 0
    while found < 15:
        pts = escaping_samples(href, 10, rng, N_max=256)
        for z, g in pts:
            cls = classify_sublevel(href, c, z)
            if cls.tag is SublevelTag.IN_OMEGA_PRIME:
                found += 1
                zeta = annulus_coordinate(href_chart, z)
                assert 1.0 < abs(zeta) < np.exp(c)


def test_annulus_power_law(rng, href_chart):
    assert check_annulus_modulus(href_chart, n=40, seed=rng)["passed"]


def test_sublevel_equivariance(rng, href):
    assert check_sublevel_equivariance(href, n=60, c=0.8, seed=rng, half_width=6.0)["passed"]


def test_not_escaping_raises(href_chart):
    # a fixed point of the reference map: y = x, x^2 - 1.8x - 1.1 = 0
    x = (1.8 - np.sqrt(1.8**2 + 4 * 1.1)) / 2.0
    with pytest.raises(NotEscaping, match="within 12 pushes"):
        annulus_coordinate(href_chart, Point(x, x), budget=12)


def test_not_escaping_names_the_modulus_guard(href_chart):
    # a point past the guard stops there, not at the push budget
    with pytest.raises(NotEscaping, match=r"1\.000e\+141 > 1e\+140 after 0 pushes"):
        annulus_coordinate(href_chart, Point(1e141, 0))
