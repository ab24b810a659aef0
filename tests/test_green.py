import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    Point,
    apply_inverse,
    bottcher_phi,
    certify_region,
    filtration_radius,
    green_minus,
    green_plus,
    make_henon,
)
from henoncover.boettcher import OutsideRegion
from henoncover.filtration import BAIL_OUT, ESCAPE_MARGIN, escape_orbit
from henoncover import filtration, green
from henoncover.green import (
    GAVE_UP,
    GreenValue,
    PUSH_CAP,
    TRAP_EVERY,
    TRAP_MARGIN,
    VALUE_ROUNDING,
    Trap,
    _escape_steps,
    _stop_modulus,
    attracting_traps,
    escape_band,
    escape_time_grid,
    green_plus_grid,
    sublevel_grid,
)
from henoncover.henon import apply_xy, inverse_leading_constant
from henoncover.verification import (
    _region_points,
    check_green_functorial,
    check_green_functorial_minus,
    check_sublevel_band,
)

from oracles import phi_vec
from strategies import attracting_map, henon_maps, real_henon_maps, spec_map


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
    assert check_green_functorial(href, n=200, seed=rng)["passed"]


def test_green_minus_mirrors(rng, href):
    assert check_green_functorial_minus(href, n=60, seed=rng)["passed"]


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


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_green_plus_stops_at_a_nan_start(name, request, monkeypatch):
    # a NaN coordinate never escapes: the scalar test gives the orbit up at
    # step 0, as the grid kernel does, with the value the full budget gives
    H = request.getfixturevalue(name)
    nan = float("nan")
    starts = [(nan, 0.0), (0.0, nan), (complex(0.0, nan), 1.0), (nan, nan)]
    calls = []
    step = filtration.apply_xy
    monkeypatch.setattr(filtration, "apply_xy", lambda *a: calls.append(a) or step(*a))
    got = [green_plus(H, Point(x, y)) for x, y in starts]
    assert not calls
    # the orbit was given up on, so the 0 carries no finite bound
    xs, ys = (np.array(c, dtype=complex) for c in zip(*starts))
    vals, errs, depths = green_plus_grid(H, xs, ys, 256)
    for g, v, e, n in zip(got, vals, errs, depths):
        assert g == GreenValue(0.0, np.inf, 256) == GreenValue(v, e, n)


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
        vals, _, depths = green_plus_grid(H, xs, ys, budget)
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
    vals, errs, depths = green_plus_grid(H, xs, ys, budget)
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
    pts = _region_points(H, 40, seed)
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
            hit = escape_orbit(H, z.x, z.y, 64)
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
    vals, errs, depths = green_plus_grid(href, xs, ys, 64, tol=1e-16)
    coarse, coarse_errs, _ = green_plus_grid(href, xs, ys, 64)
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
    vals, errs, depths = green_plus_grid(H, xs, ys, 16)
    assert np.isfinite(vals).all() and np.isfinite(errs).all()
    assert (depths > 0).any() and (vals > 0).sum() > 100
    for x, y, v, e in zip(xs[:40], ys[:40], vals, errs):
        g = green_plus(H, Point(x, y), N_max=16)
        assert np.isfinite(g.value) and abs(g.value - v) <= g.error_bound + e


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_escape_time_grid_matches_escape_orbit(request, rng, name):
    H = request.getfixturevalue(name)
    R = filtration_radius(H).R
    shape = (15, 20)
    xs = 0.5 * R * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    ys = 0.5 * R * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    steps = escape_time_grid(H, xs, ys, 64)
    hits = [escape_orbit(H, complex(x), complex(y), 64) for x, y in zip(xs.flat, ys.flat)]
    want = [64 if hit is None else hit[0] for hit in hits]
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
        x, y = assert_trap_maps_into_itself(H, t, rng, n)
        for xi, yi in zip(x, y):
            assert escape_orbit(H, complex(xi), complex(yi), 64) is None
    return len(traps)


def assert_trap_maps_into_itself(H, t: Trap, rng, n):
    """n seeded points of the boundary of D_r map into (1 - delta/2) r; returns them."""
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
    return x, y


def assert_box_in_polydisc(H, seed, n=1000):
    """Points on the boundary of each trap's box lie in the (1 - delta) r polydisc.

    The points sit at |u| or |v| = h (1 + k eps), |k| <= 4, with the
    other coordinate in its disc, plus the corners that meet each row of S
    in phase, where |S (z - p)|max is largest.  Trap.holds must accept
    some of them, and on real points of a real centre a float x must get
    the answer of x + 0j.
    """
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    traps = attracting_traps(H)
    for t in traps:
        h = t.half_width
        phase = np.exp(2j * np.pi * rng.uniform(size=(2, n)))
        w = h * np.sqrt(rng.uniform(size=(2, n))) * phase
        side = rng.integers(2, size=n)
        w[side, np.arange(n)] = h * phase[side, np.arange(n)]
        rows = np.reshape(t.basis_inverse, (2, 2))
        corners = h * np.conj(rows) / np.maximum(np.abs(rows), 1e-300)
        w = np.concatenate([w, corners.T], axis=1)
        w *= 1.0 + rng.integers(-4, 5, size=w.shape) * eps
        x, y = t.point.x + w[0], t.point.y + w[1]
        assert trap_coordinates(t, x, y).max() <= (1.0 - TRAP_MARGIN) * t.r
        assert t.holds(x, y).any()
        if t.point.x.imag == 0 and t.point.y.imag == 0:
            fx, fy = t.point.x.real + w[0].real, t.point.y.real + w[1].real
            assert np.array_equal(t.holds(fx, fy), t.holds(fx + 0j, fy + 0j))
    return len(traps)


@pytest.mark.parametrize("name", ["href", "hcubic"])
def test_trap_box_lies_in_polydisc(request, name):
    assert assert_box_in_polydisc(request.getfixturevalue(name), 101) == 1


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_trap_box_lies_in_polydisc_of_random_maps(H, seed):
    assert_box_in_polydisc(H, seed)


def test_trap_box_lies_in_polydisc_of_attracting_maps():
    rng = np.random.default_rng(103)
    traps = [assert_box_in_polydisc(attracting_map(rng), seed) for seed in range(10)]
    assert traps == [1] * 10


def test_trap_at_a_tiny_radius(monkeypatch):
    # p(y) = y^3 + 1e110 y^2, a = 1/2: the origin attracts with multipliers
    # +-i / sqrt 2, but its 1e110 coefficient needs r near 1e-111
    H = spec_map("huge")
    (t,) = attracting_traps(H)
    assert t.point == Point(0, 0) and 1e-112 < t.r < 1e-110
    assert abs(t.spectral_radius - np.sqrt(0.5)) <= 1e-12
    assert_trap_maps_into_itself(H, t, np.random.default_rng(107), 1000)
    assert assert_box_in_polydisc(H, 109) == 1
    # a 1e-200 window about the origin is retired at the first trap test
    retired = []
    holds = Trap.holds

    def counting(self, x, y):
        inside = holds(self, x, y)
        retired.append(int(inside.sum()))
        return inside

    monkeypatch.setattr(Trap, "holds", counting)
    u = np.linspace(-5e-201, 5e-201, 48)
    x, y = np.meshgrid(u, u)
    assert_escape_steps_match_reference(H, x, y, extremes=False)
    # two runs (to the escape and to the stop modulus) at each of two block sizes
    assert sum(retired) == 4 * x.size


def test_fixture_traps(href, htwo, hcubic):
    (t,) = attracting_traps(href)
    assert abs(t.point.x + 0.482) < 1e-3 and abs(t.point.y + 0.482) < 1e-3
    assert t.r >= 0.0625 and abs(t.spectral_radius - np.sqrt(0.8)) < 1e-12
    (t,) = attracting_traps(hcubic)
    assert t.point == Point(0, 0) and t.r == 0.25
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
    """The escape loop without traps, compaction or skipped tests.

    Writes each escaped point's coordinates at its escape step into x, y;
    a point given up on at the bail-out or as NaN gets GAVE_UP.
    """
    steps = np.full(x.size, -1, dtype=np.int64)
    live = np.ones(x.size, dtype=bool)
    cx, cy = x.copy(), y.copy()
    for n in range(N_max + 1):
        ax, ay = np.abs(cx), np.abs(cy)
        esc = live & (ay >= np.maximum(ax, R)) & (ay > ESCAPE_MARGIN * R)
        steps[esc] = n
        x[esc], y[esc] = cx[esc], cy[esc]
        live &= ~esc
        gone = live & ~(np.maximum(ax, ay) <= BAIL_OUT)
        steps[gone] = GAVE_UP
        live &= ~gone
        if n < N_max:
            cx[live], cy[live] = apply_xy(H, cx[live], cy[live])
    return steps


def reference_green_plus(H, x, y, N_max, tol=1e-10):
    """green_plus_grid's output by the reference loop, then a push to the stop modulus.

    x and y are complex.  The push steps each escaped point alone of the
    others until |y| >= Y (or is NaN), as green_plus pushes, and values it
    d^-m log|y_m| at the depth m reached.
    """
    R = filtration_radius(H).R
    rx, ry = x.copy(), y.copy()
    steps = reference_escape_steps(H, rx, ry, R, N_max)
    Y, band = _stop_modulus(H, tol)
    hit = np.flatnonzero(steps >= 0)
    cx, cy, depth = rx[hit], ry[hit], steps[hit].copy()
    live = np.abs(cy) < Y
    while live.any():
        cx[live], cy[live] = apply_xy(H, cx[live], cy[live])
        depth[live] += 1
        live &= np.abs(cy) < Y
    bounded = float(H.d) ** -N_max * max(1.0, np.log(ESCAPE_MARGIN * R))
    vals = np.zeros(x.size)
    errs = np.where(steps == GAVE_UP, np.inf, bounded)
    depths = np.full(x.size, N_max, dtype=np.int64)
    depths[hit] = depth
    scale, log_y = float(H.d) ** -depth.astype(float), np.log(np.abs(cy))
    vals[hit], errs[hit] = scale * log_y, scale * (band + VALUE_ROUNDING * log_y)
    return vals, errs, depths


# a small odd block size: test inputs span several escape blocks and a ragged one
SMALL_BLOCK = 37


def assert_escape_steps_match_reference(H, x, y, N_max=64, extremes=True):
    """_escape_steps at the default and at SMALL_BLOCK points per block.

    Run to the escape (Y = 0), it gives the reference steps and |y_n| bit
    for bit; run to the stop modulus, green_plus_grid gives the output of
    reference_green_plus bit for bit.
    """
    R = filtration_radius(H).R
    x, y = np.asarray(x, dtype=complex).ravel(), np.asarray(y, dtype=complex).ravel()
    if extremes:  # bail-out and NaN points, which also force the full test
        x = np.append(x, [0.0, 1e160, 1e200j, np.nan])
        y = np.append(y, [1e200, 1e155, 1.0, 0.0])
    rx, ry = x.copy(), y.copy()
    want = reference_escape_steps(H, rx, ry, R, N_max)
    hit = want >= 0
    want_green = [a.tobytes() for a in reference_green_plus(H, x, y, N_max)]
    given = x.tobytes(), y.tobytes()
    for block in (green.BLOCK_POINTS, SMALL_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(green, "BLOCK_POINTS", block)
            steps, mods = _escape_steps(H, x, y, N_max, 0.0)
            got_green = [a.tobytes() for a in green_plus_grid(H, x, y, N_max)]
        assert np.array_equal(steps, want), block
        assert mods[hit].tobytes() == np.abs(ry[hit]).tobytes(), block
        assert got_green == want_green, block
        assert (x.tobytes(), y.tobytes()) == given, block


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
    assert_escape_steps_match_reference(H, x, y)
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
    assert_escape_steps_match_reference(H, x, y)


@pytest.mark.parametrize("c0", [6e149, 1e150, 1e152])
def test_escape_steps_match_trap_free_loop_past_the_bail_out(c0):
    # 2R > BAIL_OUT: points with BAIL_OUT < |z| <= 2R must still bail out
    H = make_henon([([c0, 0, 1], 0.5)])
    R = filtration_radius(H).R
    assert ESCAPE_MARGIN * R > BAIL_OUT
    rng = np.random.default_rng(79)
    x, y = R * rng.uniform(0, 2, (2, 400)) * np.exp(2j * np.pi * rng.uniform(size=(2, 400)))
    assert_escape_steps_match_reference(H, x, y, extremes=False)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_float_escape_steps_match_trap_free_loop_in_small_blocks(request, monkeypatch, name):
    # float input of a real map: the pooled phase keeps the float run equal
    # to the complex one (one and two factors, and hcubic's trap), to the
    # escape and to the stop modulus
    H = request.getfixturevalue(name)
    R = filtration_radius(H).R
    monkeypatch.setattr(green, "BLOCK_POINTS", SMALL_BLOCK)
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(-2.5, 2.5, 96), np.linspace(-2.5, 2.5, 96)))
    rx, ry = x + 0j, y + 0j
    want = reference_escape_steps(H, rx, ry, R, 64)
    steps, mods = _escape_steps(H, x, y, 64, 0.0)
    assert np.array_equal(steps, want)
    # |y_n| exactly: a zero may differ in sign, but not its modulus (see _escape_steps)
    assert mods[want >= 0].tobytes() == np.abs(ry[want >= 0]).tobytes()
    assert np.count_nonzero(want < 0) > 0 and np.count_nonzero(want >= TRAP_EVERY) > 0
    Y = _stop_modulus(H, 1e-10)[0]
    assert _masked_equal(_escape_steps(H, x, y, 64, Y), _escape_steps(H, x + 0j, y + 0j, 64, Y))


def _masked_equal(a, b):
    """Two _escape_steps results with the same steps, and mods equal where they are set."""
    (sa, ma), (sb, mb) = a, b
    return sa.tobytes() == sb.tobytes() and ma[sa >= 0].tobytes() == mb[sb >= 0].tobytes()


def test_escape_steps_match_trap_free_loop_on_attracting_maps():
    rng = np.random.default_rng(73)
    for _ in range(10):
        H = attracting_map(rng)
        R = filtration_radius(H).R
        x = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
        y = R * (rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400))
        assert_escape_steps_match_reference(H, x, y)


def assert_green_plus_grid_matches_reference(H, x, y, N_max=64):
    """green_plus_grid equals reference_green_plus bit for bit, at both block sizes.

    Complex input, and float input where H is real, which must give the
    same bytes.  Returns the reference output.
    """
    x, y = np.ravel(x), np.ravel(y)
    want = reference_green_plus(H, x + 0j, y + 0j, N_max)
    inputs = [(x + 0j, y + 0j)]
    if H.is_real and not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        inputs.append((x, y))
    for block in (green.BLOCK_POINTS, SMALL_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(green, "BLOCK_POINTS", block)
            for xs, ys in inputs:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = green_plus_grid(H, xs, ys, N_max)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (block, xs.dtype)
    return want


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_green_plus_grid_matches_reference_push_on_fixtures(request, name):
    H = request.getfixturevalue(name)
    R = filtration_radius(H).R
    u = np.linspace(-1.2 * R, 1.2 * R, 64)
    x, y = np.meshgrid(u, u)
    vals, _, depths = assert_green_plus_grid_matches_reference(H, x, y)
    assert (vals > 0).sum() > 1000 and (vals == 0).sum() > 10
    assert_green_plus_grid_matches_reference(H, x + 0.4j * y, y - 0.3j * x)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_green_plus_grid_matches_reference_push_on_random_maps(H, seed):
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    x = R * (rng.uniform(-1.5, 1.5, 300) + 1j * rng.uniform(-1.5, 1.5, 300))
    y = R * (rng.uniform(-1.5, 1.5, 300) + 1j * rng.uniform(-1.5, 1.5, 300))
    assert_green_plus_grid_matches_reference(H, x, y)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(real_henon_maps, st.integers(0, 2**32 - 1))
def test_green_plus_grid_matches_reference_push_on_random_real_maps(H, seed):
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    x, y = R * rng.uniform(-1.5, 1.5, (2, 300))
    assert_green_plus_grid_matches_reference(H, x, y)


@pytest.mark.parametrize("N_max", [3, 8, 9, 64])
def test_escapes_at_the_budget_finish_past_it(href, N_max):
    # pixels that escape on step N_max - 1 or N_max below the stop modulus
    # keep stepping in the escape loop past the budget, in the block phase
    # (N_max = 3), across its end (8 = TRAP_EVERY, 9) or in the pool (64);
    # on the real line of (y, y^2 + 0.256 - 0.01 x), orbits that pass the
    # narrow gate where a fixed point has just vanished escape on every
    # step up to about 100
    slow = make_henon([([0.256, 0, 1], 0.01)])
    u = np.linspace(-2.5, 2.5, 160)
    grids = [
        (href, *(a.ravel() for a in np.meshgrid(u, u))),
        (slow, np.zeros(20000), np.linspace(-0.5, 3.0, 20000)),
    ]
    for H, x, y in grids:
        R = filtration_radius(H).R
        Y = _stop_modulus(H, 1e-10)[0]
        rx, ry = x + 0j, y + 0j
        steps = reference_escape_steps(H, rx, ry, R, N_max)
        late = ((steps == N_max - 1) | (steps == N_max)) & (np.abs(ry) < Y)
        # those points, with every other kind of pixel around them
        pick = np.flatnonzero(late | (np.arange(x.size) % 7 == 0))
        vals, _, depths = assert_green_plus_grid_matches_reference(H, x[pick], y[pick], N_max)
        past = depths > N_max
        at_budget = steps[pick] == N_max
        assert np.array_equal(past[at_budget], late[pick][at_budget])
        assert late.sum() >= 5 and past.sum() >= 5 and np.all(vals[past] > 0)


def test_float_grid_keeps_finished_points_finite(monkeypatch):
    # (y, y^2 - 1.1 - 0.01 x) has an attracting 2-cycle and no attracting
    # fixed point, so no trap: a grid of bounded points with a tenth of
    # escaping ones keeps the escaped points in its arrays (below a quarter
    # of them), and they square on every step.  Stepped to the budget they
    # would overflow and send the float run back to complex arithmetic;
    # compacted once they pass Ymax, they stay finite
    H = spec_map("dissipative")
    assert attracting_traps(H) == ()
    rng = np.random.default_rng(113)
    x = np.concatenate([rng.uniform(-0.05, 0.05, 900), rng.uniform(-1, 1, 100)])
    y = np.concatenate([rng.uniform(-0.05, 0.05, 900), rng.uniform(10, 20, 100)])
    R = filtration_radius(H).R
    rx, ry = x + 0j, y + 0j
    steps = reference_escape_steps(H, rx.copy(), ry.copy(), R, 64)
    assert np.all(steps[:900] == -1) and np.all((0 <= steps[900:]) & (steps[900:] <= 1))
    with np.errstate(over="ignore", invalid="ignore"):
        ex, ey = x[900:], y[900:]
        for _ in range(64):
            ex, ey = apply_xy(H, ex, ey)
    assert not np.isfinite(ey).any()  # kept and stepped, they overflow
    for block in (green.BLOCK_POINTS, SMALL_BLOCK):
        monkeypatch.setattr(green, "BLOCK_POINTS", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in either run
            for Y in (0.0, _stop_modulus(H, 1e-10)[0]):
                assert _masked_equal(_escape_steps(H, x, y, 64, Y), _escape_steps(H, rx, ry, 64, Y))
            assert assert_float_grid_matches_complex(H, x, y) == np.float64


def grid_outputs(H, xs, ys, N_max, c):
    """Every grid kernel's output on xs, ys; no call emits a warning.

    An orbit that overflows is given up on in the values, not in a
    RuntimeWarning, whether it ran in float64 or complex arithmetic.
    """
    calls = [
        lambda: (escape_time_grid(H, xs, ys, N_max),),
        lambda: green_plus_grid(H, xs, ys, N_max),
        lambda: (sublevel_grid(H, xs, ys, N_max, c),),
    ]
    out = []
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arrays = call()
        assert [str(w.message) for w in caught] == []
        out.append([a.tobytes() for a in arrays])
    return out


def assert_float_grid_matches_complex(H, x, y, N_max=64, c=1.0):
    """Float and complex input give the same bytes; returns the float run's dtype.

    That is float64 where the float run holds to the end and complex128
    where it meets an inf or NaN and _flat_escape runs the points again.
    """
    x, y = np.ravel(x), np.ravel(y)
    assert grid_outputs(H, x, y, N_max, c) == grid_outputs(H, x + 0j, y + 0j, N_max, c)
    Y = _stop_modulus(H, 1e-10)[0]
    for stop in (0.0, Y):
        _, got = green._flat_escape(H, x, y, N_max, stop)
        _, want = green._flat_escape(H, x + 0j, y + 0j, N_max, stop)
        # |y| at the finish, equal bytes: a zero may differ in sign, not its modulus
        assert _masked_equal(got, want)
    with np.errstate(over="ignore", invalid="ignore"):  # _flat_escape sets it for itself
        held = _escape_steps(H, x, y, N_max) is not None
    return np.float64 if held else np.complex128


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(real_henon_maps, st.integers(0, 2**32 - 1))
def test_float_grid_matches_complex_on_random_real_maps(H, seed):
    R = filtration_radius(H).R
    u = np.linspace(-1.5 * R, 1.5 * R, 25)  # 0.0 is a node
    x, y = np.meshgrid(u, u)
    vals = green_plus_grid(H, x + 0j, y + 0j, 64)[0]
    escaped = vals[vals > 0.0]
    # a threshold at a computed value, where sublevel_grid refines every pixel
    c = np.random.default_rng(seed).choice(escaped) if escaped.size else 1.0
    assert assert_float_grid_matches_complex(H, x, y, c=c) == np.float64


def test_float_grid_matches_complex_past_an_overflow():
    # orbits of a real quintic from a +-1e149 grid overflow: the complex
    # product inf * 0 gives NaN (the point reads as bounded) where the float
    # one stays inf (the point escapes), so the float run must give way
    H = make_henon([([0.3, 0, 0, 0, 0, 1], 0.7)])
    u = np.linspace(-1e149, 1e149, 301)
    x, y = np.meshgrid(u, u)
    dtype = assert_float_grid_matches_complex(H, x, y)
    assert dtype == np.complex128


def test_float_grid_matches_complex_past_an_overflow_in_the_pooled_phase(monkeypatch):
    # p(y) ~ 1e110 y^2 squares w = 1e110 y on each step, so orbits from
    # w in [1, 3] stay below 2R ~ 2e110 until |y| passes 1e77 and the next
    # y^4 overflows, from step 10 on: after the blocked first phase
    H = make_henon([([0.0, 0.0, 1e110, 0.0, 1.0], 0.5)])
    monkeypatch.setattr(green, "BLOCK_POINTS", SMALL_BLOCK)
    y = np.linspace(1.0, 3.0, 401) * 1e-110
    x = np.zeros_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _escape_steps(H, x, y, TRAP_EVERY + 1) is not None
        assert _escape_steps(H, x, y, 64) is None
        _, got = green._flat_escape(H, x, y, 64, 0.0)
        _, want = green._flat_escape(H, x + 0j, y + 0j, 64, 0.0)
    assert (got[0] >= 0).any() and _masked_equal(got, want)
    assert grid_outputs(H, x, y, 64, 1.0) == grid_outputs(H, x + 0j, y + 0j, 64, 1.0)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_grid_kernels_leave_read_only_inputs_untouched(request, name):
    # the kernels read their inputs through views: float, complex and a
    # strided view, each locked against writes, give the outputs of copies
    H = request.getfixturevalue(name)
    x, y = np.meshgrid(np.linspace(-2.5, 2.5, 64), np.linspace(-2.5, 2.5, 64))
    for xs, ys in ((x, y), (x + 0j, y + 0j), (x[:, ::3], y[:, ::3])):
        want = grid_outputs(H, xs.copy(), ys.copy(), 64, 1.0)
        given = xs.tobytes(), ys.tobytes()
        xs.setflags(write=False)
        ys.setflags(write=False)
        assert grid_outputs(H, xs, ys, 64, 1.0) == want
        assert (xs.tobytes(), ys.tobytes()) == given


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_green_plus_push_blocks_match_one_batch(request, monkeypatch, name):
    # the pushes run inside the escape loop: block sizes change no bit
    H = request.getfixturevalue(name)
    x, y = np.meshgrid(np.linspace(-2.5, 2.5, 64), np.linspace(-2.5, 2.5, 64))
    for xs, ys in ((x, y), (x + 0j, y + 0j)):
        want = green_plus_grid(H, xs, ys, 64)
        assert np.count_nonzero(want[2] > escape_time_grid(H, xs, ys, 64)) > 10 * SMALL_BLOCK
        with monkeypatch.context() as mp:
            mp.setattr(green, "BLOCK_POINTS", SMALL_BLOCK)
            got = green_plus_grid(H, xs, ys, 64)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_bail_out_points_carry_an_infinite_bound(href):
    # H(1e200, 0) = (0, -1.1 - 8e199) lies in the escape region, so the 0
    # that the bail-out leaves is no bound on G+ there (G+(1e140, 0) is 161)
    from henoncover.shortc2 import SublevelTag, classify_sublevel

    assert green_plus(href, Point(1e140, 0)).value > 160
    starts = [(1e200, 0.0), (float("nan"), 0.0), (1e160, 1e155)]
    xs, ys = (np.array(c, dtype=complex) for c in zip(*starts))
    for N_max in (0, 9, 64):
        vals, errs, depths = green_plus_grid(href, xs, ys, N_max)
        assert escape_time_grid(href, xs, ys, N_max).tolist() == [N_max] * 3
        assert sublevel_grid(href, xs, ys, N_max, 1.0).tolist() == [green.SUBLEVEL_K_PLUS] * 3
        for (x, y), v, e, n in zip(starts, vals, errs, depths):
            g = green_plus(href, Point(x, y), N_max=N_max)
            assert g == GreenValue(0.0, np.inf, N_max) == GreenValue(v, e, n)
    for x, y in starts:
        cls = classify_sublevel(href, 1.0, Point(x, y))
        assert cls.ambiguous and cls.tag is SublevelTag.OUTSIDE_OMEGA
    # a bounded orbit keeps its finite bound and its class
    cls = classify_sublevel(href, 1.0, Point(0, 0))
    assert not cls.ambiguous and cls.tag is SublevelTag.IN_K_PLUS_UP_TO_BUDGET
    assert 0 < cls.green_value.error_bound < 1e-70


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
    refined = []

    def counting(H, x, y, N_max, tol):
        refined.append(x.size)
        return green_plus_grid(H, x, y, N_max, tol)

    monkeypatch.setattr(green, "green_plus_grid", counting)
    x, y = np.meshgrid(np.linspace(-2.5, 2.5, 128), np.linspace(-2.5, 2.5, 128))
    xs, ys = x + 0j, y + 0j
    escaped = np.count_nonzero(escape_time_grid(H, xs, ys, 64) < 64)
    sublevel_grid(H, xs, ys, 64, 1.0)
    assert sum(refined) <= 0.03 * escaped and len(refined) <= 1


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_sublevel_grid_matches_thresholding_at_coarse_tol(href, htwo, hcubic, tol):
    rng = np.random.default_rng(89)
    for H in (href, htwo, hcubic):
        R = filtration_radius(H).R
        x, y = np.meshgrid(np.linspace(-R, R, 48), np.linspace(-R, R, 48))
        xs, ys = x.ravel() + 0j, y.ravel() + 0j
        vals, _, depths = green_plus_grid(H, xs, ys, 64, tol)
        for v in rng.choice(vals[vals > 0.0], 8):
            for c in (v, np.nextafter(v, 0.0), v * (1.0 + 2.0**-30), v * (1.0 - 1e-6)):
                want = green.sublevel_classes(vals, depths, 64, c)
                assert np.array_equal(sublevel_grid(H, xs, ys, 64, c, tol), want)
