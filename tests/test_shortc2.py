import numpy as np
import pytest

from henoncover import (
    Point,
    SublevelTag,
    annulus_coordinate,
    bottcher_phi,
    classify_sublevel,
    make_henon,
    psi_tilde,
)
from henoncover.green import escaping_samples
from henoncover.henon import apply_xy
from henoncover.shortc2 import NotEscaping
from henoncover.verification import (
    _chart_points,
    check_annulus_modulus,
    check_sublevel_equivariance,
)

EPS = np.finfo(float).eps


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_not_escaping_names_a_non_finite_orbit(hcubic, hcubic_chart):
    # one push takes y from |y| = 2.5e107, below the guard, to inf, which
    # the region test would take in: the orbit stops there instead
    z = Point(3.8499236533119386e131 - 2.2889799063503086e131j,
              -2.3075321023333743e107 + 1.0763208677274094e107j)
    with pytest.raises(NotEscaping, match="not finite at .* after 1 pushes"):
        annulus_coordinate(hcubic_chart, z)
    # a finite point of the region beyond the guard still takes its root
    y = 1e150 * np.exp(0.7j)
    z = Point(0.1 * y / hcubic_chart.region.M, y)
    phi = bottcher_phi(hcubic, z)
    assert abs(annulus_coordinate(hcubic_chart, z) - phi) <= 1e-13 * abs(phi)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_annulus_coordinate_is_the_principal_root(name, request):
    # zeta is the principal d^n-th root of phi(H^n z), n the pushes that
    # bring z into W+_M: d^n arg zeta is arg phi(H^n z) itself, not that
    # plus a multiple of 2 pi.  n is counted here with the region test of
    # annulus_coordinate
    chart = request.getfixturevalue(f"{name}_chart")
    H, M, R = chart.H, chart.region.M, chart.region.R.R
    pushes = []
    for z, _ in escaping_samples(H, 40, np.random.default_rng(31), N_max=256):
        x, y, n = complex(z.x), complex(z.y), 0
        while not abs(y) > M * max(abs(x), R):
            x, y = apply_xy(H, x, y)
            n += 1
        if n == 0:
            continue
        pushes.append(n)
        zeta, phi = annulus_coordinate(chart, z), bottcher_phi(H, Point(x, y))
        assert abs(H.d**n * np.angle(zeta) - np.angle(phi)) <= 4 * H.d**n * EPS, (z, n)
    assert len(pushes) >= 30 and max(pushes) >= 2
    # on the series bidisc, where no push is needed, zeta is psi_tilde's
    for z in _chart_points(chart, 10, np.random.default_rng(32)):
        zeta = psi_tilde(chart, z).zeta
        assert abs(annulus_coordinate(chart, z) - zeta) <= 4 * EPS * abs(zeta)
