import cmath
import decimal
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    Point,
    alpha_of_loop,
    apply,
    bottcher_phi,
    certify_region,
    dlambda_dy,
    dphi_dy,
    green_plus,
    lambda_inverse,
    make_henon,
    q_correction,
)
from henoncover import boettcher, cover
from henoncover.boettcher import (
    NoConvergence,
    OutsideRegion,
    _ipow,
    _log1p_array,
    _product_bound,
    dphi_dy_vec,
    in_region_xy,
    phi_series,
    phi_vec,
)
from henoncover.cover import _INNER_TOL
from henoncover.filtration import filtration_radius
from henoncover.henon import apply_xy, second_component_correction

from strategies import henon_maps


def region_samples(rng, region, n):
    M, R = region.M, region.R.R
    out = []
    for _ in range(n):
        y = M * R * rng.uniform(1.5, 8.0) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0, abs(y) / (2 * M)) * np.exp(2j * np.pi * rng.uniform())
        out.append(Point(x, y))
    return out


def test_q_simple_map():
    H = make_henon([([0, 0, 1], 1.0)])
    assert q_correction(H, Point(3, 5)) == -3
    for y in (2.0, -7.1, 3.3j):
        assert q_correction(H, Point(0, y)) == 0


def test_q_matches_symbolic_expansion(rng, htwo):
    q = second_component_correction(htwo)
    for _ in range(20):
        z = Point(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        direct = q_correction(htwo, z)
        symbolic = q(z.x, z.y)
        assert abs(direct - symbolic) <= 1e-12 * max(1.0, abs(symbolic))


def test_phi_semiconjugacy(rng, href, href_region):
    for z in region_samples(rng, href_region, 50):
        p = bottcher_phi(href, z)
        p2 = bottcher_phi(href, apply(href, z))
        assert abs(p2 - p**href.d) <= 1e-8 * abs(p) ** href.d


def test_phi_near_identity_with_tail_oracle():
    H = make_henon([([0.1, 0, 1], 0.5)])
    z = Point(0.0, 1e6)
    p = bottcher_phi(H, z)
    # oracle: |log(phi/y)| <= sum of |q/y^d| along the orbit (scaled by 2)
    x, y = z.x, z.y
    bound = 0.0
    for j in range(6):
        nx, ny = apply_xy(H, x, y)
        w = ny / y**H.d - 1.0
        bound += 2.0 * abs(w) / H.d ** (j + 1)
        x, y = nx, ny
        if abs(y) > 1e100:
            break
    assert abs(p / 1e6 - 1.0) <= bound
    assert abs(p / 1e6 - 1.0) <= 1e-4


def test_phi_log_is_green(rng, href, href_region):
    for z in region_samples(rng, href_region, 30):
        g = green_plus(href, z)
        assert abs(np.log(abs(bottcher_phi(href, z))) - g.value) <= 1e-8


def test_phi_outside_region_raises():
    H = make_henon([([0, 0, 1], 1.0)])
    with pytest.raises(OutsideRegion) as exc:
        bottcher_phi(H, Point(10.0, 2.0))  # |q/y^d| = 10/4 > 1/2
    assert exc.value.step == 0


def test_lambda_inverse_pair(rng, href, href_region):
    for z in region_samples(rng, href_region, 50):
        w = bottcher_phi(href, z)
        lam = lambda_inverse(href, z.x, w, href_region)
        assert abs(lam - z.y) <= 1e-9 * abs(z.y)


def test_lambda_close_to_identity(rng, href, href_region):
    eps = 0.035
    for z in region_samples(rng, href_region, 30):
        w = z.y  # any target in the region works
        lam = lambda_inverse(href, z.x, w, href_region)
        assert 1 - eps <= abs(lam / w) <= 1 + eps


def test_lambda_axis_fixed_point_oracle():
    H = make_henon([([0, 0, 1], 1.0)])
    # on the x = 0 axis, q vanishes and phi(0, y) = y exactly
    w = 1e6 * np.exp(0.7j)
    lam = lambda_inverse(H, 0.0, w)
    assert abs(lam - w) <= 1e-3 * abs(w)
    # fixed-point oracle: y <- w * exp(-gamma(0, y)) stabilizes at w
    y = w
    for _ in range(8):
        gamma = np.log(bottcher_phi(H, Point(0.0, y)) / y)
        y = w * np.exp(-gamma)
    assert abs(lam - y) <= 1e-9 * abs(w)


def newton_counted(monkeypatch, H, x, w, tol, from_w=False):
    """_lambda_newton's (y, ok) and its phi_series calls, optionally from y = w."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return phi_series(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(boettcher, "phi_series", counted)
        if from_w:
            m.setattr(boettcher, "_lambda_start", lambda H, x, w: w.copy())
        y, ok, _ = boettcher._lambda_newton(H, x, w, tol)
    return y, ok, len(calls)


def assert_starts_agree(monkeypatch, H, x, w, tol):
    """Both starts give the same ok and agree to the solve tolerance.

    Returns the phi_series calls of the (closed-form, y = w) solves.
    """
    y, ok, calls = newton_counted(monkeypatch, H, x, w, tol)
    y_w, ok_w, calls_w = newton_counted(monkeypatch, H, x, w, tol, from_w=True)
    assert np.array_equal(ok, ok_w)
    assert np.all(np.abs(y - y_w)[ok] <= 4 * tol * np.abs(w)[ok])
    return calls, calls_w


def psi_nodes(region, rng, n):
    """psi_integral's panel nodes on n seeded segments, as (x, w)."""
    M, R = region.M, region.R.R
    W = M * R * rng.uniform(1.02, 8.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    X = rng.uniform(0.0, 0.999, n) * np.abs(W) / M * np.exp(2j * np.pi * rng.uniform(size=n))
    s, _ = cover._psi_panel()
    return X[:, None] * s, np.repeat(W[:, None], s.size, axis=1)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_lambda_start_saves_rounds_on_psi_nodes(name, request, monkeypatch):
    # the first-order inverse of phi starts every solve inside the basin:
    # no segment's solve takes more rounds than from y = w, and fewer in all
    H = request.getfixturevalue(name)
    region = certify_region(H)
    rng = np.random.default_rng(61)
    X, W = psi_nodes(region, rng, 24)
    rounds = [assert_starts_agree(monkeypatch, H, x, w, _INNER_TOL) for x, w in zip(X, W)]
    assert all(new <= old for new, old in rounds)
    assert sum(new for new, _ in rounds) < sum(old for _, old in rounds)
    # the Qtilde circle solves at x = 0 too
    zetas = 2.0 * region.M * region.R.R * np.exp(2j * np.pi * rng.uniform(size=64))
    new, old = assert_starts_agree(monkeypatch, H, np.zeros_like(zetas), zetas, _INNER_TOL)
    assert new <= old


def test_lambda_start_saves_rounds_on_torus_rows(href, htwo, hcubic, monkeypatch):
    # the same on the rows of the series table's torus: no row takes more
    # rounds than from y = w, and the fixtures' rows take fewer in all.
    # (On hcubic's torus |w0| is so small that y = w needs no more rounds:
    # its rows tie.)
    rounds = []
    for H in (href, htwo, hcubic):
        X, W = cover._torus_nodes(certify_region(H))
        rounds += [assert_starts_agree(monkeypatch, H, x, w, _INNER_TOL) for x, w in zip(X, W)]
    assert all(new <= old for new, old in rounds)
    assert sum(new for new, _ in rounds) < sum(old for _, old in rounds)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_lambda_start_agrees_on_random_maps(H):
    # the whole torus in one solve, as the series table runs it
    X, W = cover._torus_nodes(certify_region(H))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_starts_agree(monkeypatch, H, X.ravel(), W.ravel(), 1e-12)


def test_lambda_no_convergence():
    H = make_henon([([0, 0, 1], 1.0)])
    with pytest.raises(NoConvergence):
        lambda_inverse(H, 0.5, 100.0, tol=1e-15, max_iter=1)


def test_derivative_bounds(rng, href, href_region):
    eps = 0.035
    for z in region_samples(rng, href_region, 20):
        dp = dphi_dy(href, z, href_region)
        assert 1 - eps <= abs(dp) <= 1 + eps
        w = bottcher_phi(href, z)
        dl = dlambda_dy(href, z.x, w, href_region)
        assert abs(dp * dl - 1.0) <= 1e-9


def test_derivative_matches_finite_difference(rng, href, href_region):
    for z in region_samples(rng, href_region, 15):
        dp = dphi_dy(href, z, href_region)
        h = 1e-5 * abs(z.y)
        fd = (
            bottcher_phi(href, Point(z.x, z.y + h))
            - bottcher_phi(href, Point(z.x, z.y - h))
        ) / (2 * h)
        assert abs(dp - fd) <= 1e-6 * abs(fd)


def cauchy_dphi_dy(H, x, y, M):
    """dphi/dy as the 32-node Cauchy sum over the circle of radius |y|/(4M)."""
    r = np.abs(y) / (4.0 * M)
    rot = np.exp(2j * np.pi * np.arange(32) / 32)
    circle = y[:, None] + r[:, None] * rot
    phi, _, ok, _ = phi_vec(H, np.broadcast_to(x[:, None], circle.shape), circle)
    return (phi * np.conj(rot)).mean(axis=1) / r, ok.all(axis=1)


def assert_tangent_matches_cauchy(H, n, seed):
    region = certify_region(H)
    pts = region_samples(np.random.default_rng(seed), region, n)
    x = np.array([z.x for z in pts], dtype=complex)
    y = np.array([z.y for z in pts], dtype=complex)
    dp, ok = dphi_dy_vec(H, x, y)
    ref, ref_ok = cauchy_dphi_dy(H, x, y, region.M)
    assert ok.all() and ref_ok.all()
    assert np.max(np.abs(dp - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_tangent_derivative_matches_cauchy_oracle(name, request):
    assert_tangent_matches_cauchy(request.getfixturevalue(name), 500, 31)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_tangent_derivative_matches_cauchy_on_random_maps(H, seed):
    assert_tangent_matches_cauchy(H, 50, seed)


EPS = np.finfo(float).eps


def spread_points(H, n, seed):
    """n seeded (x, y) with |y| from R/3 to 1000 R and |x| up to 1.5 |y|.

    Some points leave the product region (bad_step >= 0); the first two
    sit past the y^d cap.
    """
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    mag = R * 10.0 ** rng.uniform(-0.5, 3.0, n)
    mag[:2] = 10.0 ** (300.0 / H.d)
    y = mag * np.exp(2j * np.pi * rng.uniform(size=n))
    x = mag * rng.uniform(0.0, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return x, y


def assert_one_point_matches_batch(H, n, seed):
    """phi_series on single points against one batch call, dy off and on."""
    x, y = spread_points(H, n, seed)
    # tol = 0 runs every orbit to the cap: a tail far below rounding
    S_ref = phi_series(H, x, y, tol=0.0)[0]
    for tol, dy in ((1e-12, False), (1e-12, True), (1e-6, False)):
        batch = phi_series(H, x, y, tol, dy=dy)
        single = [phi_series(H, x[i : i + 1], y[i : i + 1], tol, dy=dy) for i in range(n)]
        S, err, ok, bad, *dS = (np.concatenate(a) for a in zip(*single))
        assert np.array_equal(ok, batch[2]) and np.array_equal(bad, batch[3])
        assert np.all(np.abs(S - batch[0]) <= 4 * EPS)
        assert np.all(np.abs(S - S_ref)[ok] <= err[ok] + 4 * EPS)
        assert np.all(err[:2] > 0) and np.all(S[:2] == 0)
        if dy:
            assert np.all(np.abs(y * (dS[0] - batch[4]))[ok] <= 64 * EPS)
    return ok


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_phi_series_one_point_matches_batch(name, request):
    ok = assert_one_point_matches_batch(request.getfixturevalue(name), 400, 41)
    assert ok.any() and not ok.all()


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_phi_series_one_point_matches_batch_on_random_maps(H, seed):
    assert_one_point_matches_batch(H, 60, seed)


def test_log1p_array_matches_decimal_reference():
    # |w| from 1e-15 to 1/2 in every direction, on both axes and near the
    # circle |1 + w| = 1, where u (2 + u) and v^2 cancel
    rng = np.random.default_rng(47)
    r = 10.0 ** rng.uniform(-15.0, np.log10(0.5), 300)
    theta = 2.0 * np.arcsin(r[:100] / 2.0) * rng.choice([-1.0, 1.0], 100)
    w = np.concatenate([
        r * np.exp(2j * np.pi * rng.uniform(size=300)),
        r[:50], -r[50:100], 1j * r[100:150], -1j * r[150:200],
        -2.0 * np.sin(theta / 2.0) ** 2 + 1j * np.sin(theta),
    ])
    got = _log1p_array(w)
    old = np.log(1.0 + w)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        re_ref = np.array([
            float(((1 + Decimal(u)) ** 2 + Decimal(v) ** 2).ln() / 2)
            for u, v in zip(w.real, w.imag)
        ])
    im_ref = np.array([cmath.phase(1.0 + z) for z in w])
    bound = 2.0 * EPS * np.abs(w)
    assert np.all(np.abs(got.real - re_ref) <= bound)
    assert np.all(np.abs(got.imag - im_ref) <= bound)
    # rounding 1 + w first misses the bound by orders of magnitude
    assert np.max(np.abs(old.real - re_ref) / bound) > 1e10


def test_ipow_is_cpython_power_on_scalars():
    rng = np.random.default_rng(53)
    for d in range(1, 10):
        for z in rng.normal(size=20) * 1e3 + 1j * rng.normal(size=20) * 1e3:
            z = complex(z)
            assert _ipow(z, d) == z**d


def reference_phi_series(H, x, y, tol):
    """(S, ok, bad_step, dS) by np.log(1.0 + w) and numpy's y**d.

    The orbit product on whole arrays with a live mask: the oracle for
    phi_series's log1p/arctan2 log term and its repeated-squaring y^d.
    """
    d, n = H.d, x.size
    consts = [(f.p, f.p.derivative(), f.a) for f in H.factors]
    ycap = 10.0 ** (280.0 / d)
    S, dS = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    ok, bad_step = np.ones(n, dtype=bool), np.full(n, -1)
    tx, ty = np.zeros(n, dtype=complex), np.ones(n, dtype=complex)
    live = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(64):
            scale = float(d) ** -(j + 1)
            live &= ~(np.abs(y) > ycap)
            nx, ny, ntx, nty = x, y, tx, ty
            for p, dp, a in consts:
                nx, ny = ny, p(ny) - a * nx
                ntx, nty = nty, dp(nx) * nty - a * ntx
            w = ny / y**d - 1.0
            term = scale * np.log(1.0 + w)
            dterm = scale * (nty / ny - d * ty / y)
            bad = live & ~(np.abs(w) <= 0.5)
            ok[bad], bad_step[bad] = False, j
            live &= ~bad
            S[live] += term[live]
            dS[live] += dterm[live]
            live &= ~(np.abs(term) < tol)
            x, y, tx, ty = nx, ny, ntx, nty
    return S, ok, bad_step, dS


def assert_batch_matches_reference(H, n, seed):
    x, y = spread_points(H, n, seed)
    S, _, ok, bad, dS = phi_series(H, x, y, dy=True)
    S_ref, ok_ref, bad_ref, dS_ref = reference_phi_series(H, x, y, 1e-12)
    assert np.array_equal(ok, ok_ref) and np.array_equal(bad, bad_ref)
    assert np.all(np.abs(S - S_ref) <= 4 * EPS)
    assert np.all(np.abs(y * (dS - dS_ref))[ok] <= 64 * EPS)
    assert np.array_equal(phi_series(H, x, y)[0], S)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_phi_series_matches_reference_loop(name, request):
    assert_batch_matches_reference(request.getfixturevalue(name), 400, 59)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_phi_series_matches_reference_loop_on_random_maps(H, seed):
    assert_batch_matches_reference(H, 60, seed)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_phi_series_nan_is_a_bad_factor(name, request):
    H = request.getfixturevalue(name)
    x, y = spread_points(H, 40, 61)
    nan = complex(np.nan, 0.0)
    for xi, yi in ((nan, 5.0 + 0j), (0.5 + 0j, nan), (nan, nan)):
        _, _, ok, bad = phi_series(H, [xi], [yi])
        assert not ok[0] and bad[0] == 0
        xb, yb = x.copy(), y.copy()
        xb[7], yb[7] = xi, yi
        S, err, okb, badb = phi_series(H, xb, yb)
        assert not okb[7] and badb[7] == 0
        keep = np.arange(40) != 7
        for got, ref in zip((S, err, okb, badb), phi_series(H, x[keep], y[keep])):
            assert np.array_equal(got[keep], ref)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_dlambda_dy_is_inverse_slope_at_solved_point(name, request):
    # one Newton solve gives the slope the two-step definition computes
    H = request.getfixturevalue(name)
    region = certify_region(H)
    for z in region_samples(np.random.default_rng(43), region, 40):
        y = lambda_inverse(H, z.x, z.y, region)
        dl = dlambda_dy(H, z.x, z.y, region)
        assert dl == 1.0 / dphi_dy(H, Point(z.x, y), region)


def assert_product_bound_holds_on_boundary(H, seed):
    """The proved M against 1,000 seeded points on the boundary of W+_M."""
    region = certify_region(H)
    M, R = region.M, region.R.R
    bound, invariant = _product_bound(H, M, R)
    assert invariant and bound <= 0.5
    rng = np.random.default_rng(seed)
    n = 500
    # |y| = MR with |x| <= R, and |y| = M |x| with |x| >= R
    r_out = R * np.exp(rng.uniform(0.0, np.log(50.0), n))
    rx = np.concatenate([rng.uniform(0.0, R, n), r_out])
    ry = M * np.concatenate([np.full(n, R), r_out])
    x = rx * np.exp(2j * np.pi * rng.uniform(size=2 * n))
    y = ry * np.exp(2j * np.pi * rng.uniform(size=2 * n))
    assert phi_series(H, x, y)[2].all()
    fx, fy = apply_xy(H, x, y)
    assert np.all(in_region_xy(fx, fy, M, R))
    # w is rounded to a few eps absolute; the bound is exact up to rounding
    w = fy / y**H.d - 1.0
    assert np.max(np.abs(w)) <= bound + 1e-14


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_product_bound_holds_on_region_boundary(name, request):
    assert_product_bound_holds_on_boundary(request.getfixturevalue(name), 59)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_product_bound_holds_on_region_boundary_of_random_maps(H, seed):
    assert_product_bound_holds_on_boundary(H, seed)


def test_alpha_budget_exceeded_on_bounded_vertex(href, href_radius):
    from henoncover.boettcher import RefinementBudgetExceeded

    x = (1.8 - np.sqrt(1.8**2 + 4 * 1.1)) / 2.0  # fixed point of the map
    loop = [
        Point(0.0, 10 * href_radius.R * np.exp(2j * np.pi * k / 8))
        for k in range(7)
    ] + [Point(x, x)]
    with pytest.raises(RefinementBudgetExceeded):
        alpha_of_loop(href, loop)


def test_alpha_constant_loop(href, href_radius):
    loop = [Point(0.0, 10 * href_radius.R)] * 8
    assert alpha_of_loop(href, loop) == Fraction(0, 1)


def test_alpha_unit_circle_loop(href, href_radius):
    R = href_radius.R
    loop = [
        Point(0.0, 10 * R * np.exp(2j * np.pi * k / 32)) for k in range(32)
    ]
    assert alpha_of_loop(href, loop) == Fraction(1, 1)


def test_alpha_functorial(href, href_radius):
    R = href_radius.R
    loop = [
        Point(0.0, 10 * R * np.exp(2j * np.pi * k / 32)) for k in range(32)
    ]
    pushed = [apply(href, z) for z in loop]
    assert alpha_of_loop(href, pushed) == href.d * alpha_of_loop(href, loop)


def test_alpha_shallow_loop_needs_push(href, href_radius):
    # vertices escape but sit below the product region, forcing a push;
    # the result stays in Z[1/d] with denominator dividing d^pushes
    R = href_radius.R
    loop = [
        Point(0.0, 1.2 * R * np.exp(2j * np.pi * k / 64)) for k in range(64)
    ]
    val = alpha_of_loop(href, loop)
    assert val == Fraction(1, 1)
