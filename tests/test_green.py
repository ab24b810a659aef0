from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    Membership,
    Point,
    apply,
    apply_inverse,
    bottcher_phi,
    certify_region,
    classify_point,
    filtration_radius,
    green_minus,
    green_plus,
    make_henon,
    membership,
)
from henoncover.boettcher import OutsideRegion, phi_vec
from henoncover.filtration import BAIL_OUT, ESCAPE_MARGIN, escape_orbit
from henoncover import green
from henoncover.green import (
    PUSH_CAP,
    TRAP_MARGIN,
    VALUE_ROUNDING,
    Trap,
    _escape_steps,
    _refine_plus,
    _stop_modulus,
    attracting_traps,
    escape_band,
    escape_time_grid,
    green_plus_grid,
    sublevel_grid,
)
from henoncover.henon import apply_xy, inverse_leading_constant
from henoncover.verification import _region_points, check_sublevel_band

from strategies import attracting_map, henon_maps


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


def test_grid_matches_scalar(request, rng):
    budget = 24
    for name in ("href", "htwo", "hcubic"):
        H = request.getfixturevalue(name)
        R = filtration_radius(H).R
        # boxes of half-width 0.3 R and R, plus points past the 1e150
        # bail-out: one escapes at step 0, the others are given up on
        box = np.repeat([0.3 * R, R], [60, 20])
        xs = box * (rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80))
        ys = box * (rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80))
        xs = np.append(xs, [0.0, 1e160, 1e200j])
        ys = np.append(ys, [1e200, 1e155, 1.0])
        vals, _, depths = green_plus_grid(H, xs, ys, R, budget)
        bounded = 0
        for x, y, v, n in zip(xs, ys, vals, depths):
            g = green_plus(H, Point(x, y), N_max=budget)
            assert n == g.depth
            # the scalar orbit runs in Python complex arithmetic and the
            # grid in numpy, which may round the last bits differently
            assert abs(g.value - v) <= g.error_bound + 1e-15 * max(1.0, v)
            bounded += g.depth == budget and g.value == 0.0
        assert depths[-3] == 0 and depths[-1] == depths[-2] == budget
        assert 3 <= bounded < xs.size - 20, name  # every kind of orbit


def assert_scalar_and_grid_within_bounds(H, rng, budget=24):
    """Scalar green_plus and green_plus_grid agree within the sum of their bounds.

    80 seeded points: 60 in the box of half-width 0.3 R and 20 in that of
    half-width R.  The scalar orbit runs in Python complex arithmetic and
    the grid in numpy, so the escape coordinates may differ in the last
    bits; each error bound must cover that rounding of the pushed value.
    """
    R = filtration_radius(H).R
    box = np.repeat([0.3 * R, R], [60, 20])
    xs = box * (rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80))
    ys = box * (rng.uniform(-1, 1, 80) + 1j * rng.uniform(-1, 1, 80))
    vals, errs, depths = green_plus_grid(H, xs, ys, R, budget)
    for x, y, v, e, n in zip(xs, ys, vals, errs, depths):
        g = green_plus(H, Point(x, y), N_max=budget)
        assert n == g.depth
        assert abs(g.value - v) <= g.error_bound + e
        assert g.value == 0.0 or g.error_bound > 0.0


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_grid_and_scalar_agree_within_their_bounds(request, name):
    assert_scalar_and_grid_within_bounds(
        request.getfixturevalue(name), np.random.default_rng(97)
    )


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_grid_and_scalar_agree_within_their_bounds_on_random_maps(H, seed):
    assert_scalar_and_grid_within_bounds(H, np.random.default_rng(seed))


def assert_green_matches_bottcher_product(H, seed):
    """G+ against log|phi| from the Bottcher product on 40 points of W+_M.

    The two differ by at most the G+ error bound, phi's tail bound and the
    rounding of both logarithms (16 eps times the value).
    """
    pts = _region_points(H, certify_region(H), 40, seed)
    x = np.array([z.x for z in pts])
    y = np.array([z.y for z in pts])
    phi, tail, ok, _ = phi_vec(H, x, y)
    assert ok.all()
    eps = np.finfo(float).eps
    for z, p, t in zip(pts, phi, tail):
        g = green_plus(H, z)
        assert abs(g.value - np.log(abs(p))) <= g.error_bound + t + 16 * eps * g.value


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_green_matches_bottcher_product(request, name):
    assert_green_matches_bottcher_product(request.getfixturevalue(name), 101)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_green_matches_bottcher_product_on_random_maps(H, seed):
    try:
        certify_region(H)
    except OutsideRegion:
        return  # no proved product region to draw from
    assert_green_matches_bottcher_product(H, seed)


@pytest.mark.parametrize("tol", [1e-4, 1e-10, 1e-13])
def test_stop_modulus_is_the_smallest_within_tol(href, htwo, hcubic, tol):
    for H in (href, htwo, hcubic):
        Y, band = _stop_modulus(H, tol)
        assert ESCAPE_MARGIN * filtration_radius(H).R < Y < PUSH_CAP ** (1 / H.d)
        assert band <= tol * (1 + 2.0**-38)
        assert green._band(H, np.log(Y) - 2.0**-9) > tol


@pytest.mark.parametrize("tol", [1e-10, 1e-16])
def test_error_bound_covers_the_rounding_of_the_value(href, htwo, hcubic, tol):
    # beyond the band d^-m B(H, Y), the bound carries d^-m VALUE_ROUNDING
    # log|y_m| for the rounding of |y_m|, the log, the power and the
    # product: it must cover the distance to d^-m log|y_m| taken to 50
    # digits on the same float orbit point y_m
    for H in (href, htwo, hcubic):
        R = filtration_radius(H).R
        Y, band = _stop_modulus(H, tol)
        rng = np.random.default_rng(109)
        checked = 0
        for _ in range(100):
            z = Point(complex(*rng.uniform(-R, R, 2)), complex(*rng.uniform(-R, R, 2)))
            hit = escape_orbit(H, z.x, z.y, R, 64)
            if hit is None:
                continue
            m, x, y = hit
            while abs(y) < Y:
                x, y = apply_xy(H, x, y)
                m += 1
            g = green_plus(H, z, tol=tol, N_max=64)
            assert g.depth == m
            with localcontext() as ctx:
                ctx.prec = 50
                modulus2 = Decimal(y.real) ** 2 + Decimal(y.imag) ** 2
                exact = float(modulus2.ln() / 2 / Decimal(H.d) ** m)
            assert abs(g.value - exact) <= g.error_bound - band * float(H.d) ** -m
            checked += 1
        assert checked > 30


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tol_below_the_band_floor_reports_the_floor(href):
    # the band never falls below its rounding, sum_i D_i g_i / (d - 1) =
    # 32 eps for href, so tol = 1e-16 stops at the clamp and reports that
    R = filtration_radius(href).R
    Y, floor = _stop_modulus(href, 1e-16)
    assert Y == pytest.approx((PUSH_CAP / 1.5) ** 0.5, rel=1e-12)
    assert floor == pytest.approx(32 * np.finfo(float).eps, rel=1e-6)
    rng = np.random.default_rng(103)
    xs = R * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
    ys = R * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
    vals, errs, depths = green_plus_grid(href, xs, ys, R, 64, tol=1e-16)
    coarse, coarse_errs, _ = green_plus_grid(href, xs, ys, R, 64)
    esc = depths < 64
    assert esc.sum() > 50 and np.isfinite(vals).all() and np.isfinite(errs).all()
    scale = 2.0 ** -depths[esc]
    assert (errs[esc] >= scale * floor).all()
    want = scale * (floor + VALUE_ROUNDING * np.log(Y))
    assert (errs[esc] >= want).all() and (errs[esc] <= want * href.d).all()
    assert (np.abs(vals - coarse) <= errs + coarse_errs).all()
    for x, y in zip(xs[esc][:20], ys[esc][:20]):
        g = green_plus(href, Point(x, y), tol=1e-16, N_max=64)
        assert np.isfinite(g.value) and g.error_bound >= 2.0**-g.depth * floor


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stop_modulus_clamped_for_degree_64():
    H = make_henon([([0.3] + [0] * 63 + [1], 0.5)])
    R = filtration_radius(H).R
    Y, band = _stop_modulus(H, 1e-10)
    assert ESCAPE_MARGIN * R <= Y <= PUSH_CAP ** (1 / 64)
    assert band > 1e-10  # tol is out of reach below the clamp
    rng = np.random.default_rng(107)
    xs = 2 * R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    ys = 2 * R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    vals, errs, depths = green_plus_grid(H, xs, ys, R, 16)
    assert np.isfinite(vals).all() and np.isfinite(errs).all()
    assert (depths > 0).any() and (vals > 0).sum() > 100
    for x, y, v, e in zip(xs[:40], ys[:40], vals, errs):
        g = green_plus(H, Point(x, y), N_max=16)
        assert np.isfinite(g.value) and abs(g.value - v) <= g.error_bound + e


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


def trap_coordinates(t: Trap, x, y):
    """|S (z - p)|max, the polydisc norm of the trap t."""
    s11, s12, s21, s22 = t.basis_inverse
    u, v = x - t.point.x, y - t.point.y
    return np.maximum(np.abs(s11 * u + s12 * v), np.abs(s21 * u + s22 * v))


def assert_traps_proved(H, seed, n=1000):
    """Each trap maps n seeded points of its boundary into itself.

    The spectral radius is checked against central differences of H, and
    every boundary point must stay bounded for 64 steps.
    """
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    traps = attracting_traps(H)
    for t in traps:
        p = np.array([t.point.x, t.point.y])
        h = 1e-6
        cols = [
            (np.array(apply_xy(H, *(p + h * e))) - np.array(apply_xy(H, *(p - h * e)))) / (2 * h)
            for e in np.eye(2)
        ]
        rho = np.abs(np.linalg.eigvals(np.column_stack(cols))).max()
        assert rho < 1.0 and abs(rho - t.spectral_radius) <= 1e-6
        # |g|max = r: one coordinate on its circle, the other in its disc
        phase = np.exp(2j * np.pi * rng.uniform(size=(2, n)))
        g = t.r * np.sqrt(rng.uniform(size=(2, n))) * phase
        side = rng.integers(2, size=n)
        g[side, np.arange(n)] = t.r * phase[side, np.arange(n)]
        T = np.linalg.inv(np.reshape(t.basis_inverse, (2, 2)))
        x, y = t.point.x + T[0] @ g, t.point.y + T[1] @ g
        assert trap_coordinates(t, x, y).max() <= t.r * (1 + 1e-12)
        # proved: the image lies in the (1 - delta) r polydisc; half of the
        # margin is left for the rounding of this check
        image = trap_coordinates(t, *apply_xy(H, x, y))
        assert image.max() <= (1.0 - TRAP_MARGIN / 2) * t.r
        assert max(np.abs(x).max(), np.abs(y).max()) <= t.reach
        for xi, yi in zip(x, y):
            assert escape_orbit(H, complex(xi), complex(yi), R, 64) is None
    return len(traps)


def test_fixture_traps(href, htwo, hcubic):
    (t,) = attracting_traps(href)
    assert abs(t.point.x + 0.482) < 1e-3 and abs(t.point.y + 0.482) < 1e-3
    assert t.r >= 0.0625 and abs(t.spectral_radius - np.sqrt(0.8)) < 1e-12
    (t,) = attracting_traps(hcubic)
    assert t.point == Point(0, 0) and t.r >= 0.25
    assert attracting_traps(htwo) == ()


def test_no_trap_at_a_double_multiplier():
    # (0.3, 0.3) is fixed with DH a Jordan block of eigenvalue 1/2: its
    # eigenvector matrix is singular up to rounding, so no trap is claimed
    s, lam = 0.3, 0.5
    c1 = 2 * lam - 2 * s
    H = make_henon([([s + lam**2 * s - s * s - c1 * s, c1, 1], lam**2)])
    assert attracting_traps(H) == ()


@pytest.mark.parametrize("name", ["href", "hcubic"])
def test_trap_proof_holds_on_boundary(request, name):
    assert assert_traps_proved(request.getfixturevalue(name), 67) == 1


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_trap_proof_holds_on_boundary_of_random_maps(H, seed):
    assert_traps_proved(H, seed)


def test_trap_proof_holds_on_boundary_of_attracting_maps():
    # henon_maps draws rarely have an attracting fixed point; these always do
    rng = np.random.default_rng(71)
    traps = [assert_traps_proved(attracting_map(rng), seed) for seed in range(10)]
    assert traps == [1] * 10


def reference_escape_steps(H, x, y, R, N_max):
    """The escape loop without traps, compaction or skipped tests."""
    steps = np.full(x.size, -1, dtype=np.int64)
    live = np.ones(x.size, dtype=bool)
    cx, cy = x.copy(), y.copy()
    for n in range(N_max + 1):
        ax, ay = np.abs(cx), np.abs(cy)
        esc = live & (ay >= np.maximum(ax, R)) & (ay > ESCAPE_MARGIN * R)
        steps[esc] = n
        x[esc], y[esc] = cx[esc], cy[esc]
        live &= ~esc & (np.maximum(ax, ay) <= BAIL_OUT)
        if n < N_max:
            cx[live], cy[live] = apply_xy(H, cx[live], cy[live])
    return steps


def assert_escape_steps_match_reference(H, x, y, R, N_max=64, extremes=True):
    x, y = np.asarray(x, dtype=complex).ravel(), np.asarray(y, dtype=complex).ravel()
    if extremes:  # bail-out and NaN points, which also force the full test
        x = np.append(x, [0.0, 1e160, 1e200j, np.nan])
        y = np.append(y, [1e200, 1e155, 1.0, 0.0])
    rx, ry = x.copy(), y.copy()
    want = reference_escape_steps(H, rx, ry, R, N_max)
    got = _escape_steps(H, x, y, R, N_max)
    assert np.array_equal(got, want)
    # the written-back escape coordinates, bit for bit
    assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_escape_steps_match_trap_free_loop_on_real_slice(request, monkeypatch, name):
    H = request.getfixturevalue(name)
    retired = []
    holds = Trap.holds

    def counting(self, x, y):
        inside = holds(self, x, y)
        retired.append(int(inside.sum()))
        return inside

    monkeypatch.setattr(Trap, "holds", counting)
    x, y = np.meshgrid(np.linspace(-2.5, 2.5, 128), np.linspace(-2.5, 2.5, 128))
    assert_escape_steps_match_reference(H, x, y, filtration_radius(H).R)
    if name == "hcubic":
        assert sum(retired) > 1000  # the trap is used, not just proved
    assert len(retired) == (len(attracting_traps(H)) > 0) * len(retired)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_escape_steps_match_trap_free_loop_on_random_maps(H, seed):
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    x = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    y = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
    assert_escape_steps_match_reference(H, x, y, R)


@pytest.mark.parametrize("c0", [6e149, 1e150, 1e152])
def test_escape_steps_match_trap_free_loop_past_the_bail_out(c0):
    # 2R > BAIL_OUT: points with BAIL_OUT < |z| <= 2R must still bail out
    H = make_henon([([c0, 0, 1], 0.5)])
    R = filtration_radius(H).R
    assert ESCAPE_MARGIN * R > BAIL_OUT
    rng = np.random.default_rng(79)
    x, y = R * rng.uniform(0, 2, (2, 400)) * np.exp(2j * np.pi * rng.uniform(size=(2, 400)))
    assert_escape_steps_match_reference(H, x, y, R, extremes=False)


def test_escape_steps_match_trap_free_loop_on_attracting_maps():
    rng = np.random.default_rng(73)
    for _ in range(10):
        H = attracting_map(rng)
        R = filtration_radius(H).R
        x = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
        y = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
        assert_escape_steps_match_reference(H, x, y, R)


def test_escape_band_on_fixtures(href, htwo, hcubic):
    bands = [escape_band(H) for H in (href, htwo, hcubic)]
    assert np.allclose(bands, [0.1502, 0.1054, 0.0356], atol=1e-4)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_sublevel_band_on_fixtures(request, name):
    record = check_sublevel_band(request.getfixturevalue(name))
    assert record["passed"], record


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_sublevel_band_on_random_maps(H, seed):
    record = check_sublevel_band(H, seed=seed)
    assert record["passed"], record


def test_sublevel_band_on_attracting_maps():
    rng = np.random.default_rng(83)
    for seed in range(10):
        record = check_sublevel_band(attracting_map(rng), seed=seed)
        assert record["passed"], record


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_sublevel_grid_refines_few_pixels(request, monkeypatch, name):
    H = request.getfixturevalue(name)
    R = filtration_radius(H).R
    refined = []

    def counting(H, x, y, steps, tol):
        refined.append(x.size)
        return _refine_plus(H, x, y, steps, tol)

    monkeypatch.setattr(green, "_refine_plus", counting)
    x, y = np.meshgrid(np.linspace(-2.5, 2.5, 128), np.linspace(-2.5, 2.5, 128))
    xs, ys = x + 0j, y + 0j
    escaped = np.count_nonzero(escape_time_grid(H, xs, ys, R, 64) < 64)
    sublevel_grid(H, xs, ys, R, 64, 1.0)
    assert sum(refined) <= 0.03 * escaped


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_sublevel_grid_matches_thresholding_at_coarse_tol(href, htwo, hcubic, tol):
    rng = np.random.default_rng(89)
    for H in (href, htwo, hcubic):
        R = filtration_radius(H).R
        x, y = np.meshgrid(np.linspace(-R, R, 48), np.linspace(-R, R, 48))
        xs, ys = x.ravel() + 0j, y.ravel() + 0j
        vals, _, depths = green_plus_grid(H, xs, ys, R, 64, tol)
        for v in rng.choice(vals[vals > 0.0], 8):
            for c in (v, np.nextafter(v, 0.0), v * (1.0 + 2.0**-30), v * (1.0 - 1e-6)):
                want = green.sublevel_classes(vals, depths, 64, c)
                assert np.array_equal(sublevel_grid(H, xs, ys, R, 64, c, tol), want)
