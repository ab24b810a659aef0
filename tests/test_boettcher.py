import cmath
import decimal
from decimal import Decimal
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyval2d
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    Point,
    alpha_of_loop,
    apply,
    bottcher_phi,
    certify_region,
    green_plus,
    make_henon,
)
from henoncover import boettcher, cover
from henoncover.boettcher import (
    OutsideRegion,
    _ipow,
    _log1p_array,
    _product_bound,
    dlambda_dy_vec,
    dphi_dy_vec,
    in_region_xy,
    lambda_vec,
    phi_series,
)
from henoncover.cover import _INNER_TOL
from henoncover.filtration import filtration_radius
from henoncover.henon import apply_xy, second_component_correction
from henoncover.verification import _region_points, check_boettcher

from oracles import phi_vec
from strategies import henon_maps


def xy_arrays(points):
    """A list of Points as complex arrays (x, y)."""
    return (np.array([z.x for z in points], dtype=complex),
            np.array([z.y for z in points], dtype=complex))


def test_q_simple_map():
    # q(x, y) = pi_2(H(x, y)) - y^d, evaluated directly
    H = make_henon([([0, 0, 1], 1.0)])
    assert apply_xy(H, 3, 5)[1] - 5**H.d == -3
    for y in (2.0, -7.1, 3.3j):
        assert apply_xy(H, 0, y)[1] - y**H.d == 0


def test_q_matches_symbolic_expansion(rng, htwo):
    q = second_component_correction(htwo)
    for _ in range(20):
        z = Point(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        direct = apply_xy(htwo, z.x, z.y)[1] - z.y**htwo.d
        symbolic = polyval2d(z.x, z.y, q.c)
        assert abs(direct - symbolic) <= 1e-12 * max(1.0, abs(symbolic))


def test_phi_semiconjugacy(rng, href):
    assert check_boettcher(href, n=50, seed=rng)["passed"]


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


def test_phi_log_is_green(rng, href):
    for z in _region_points(href, 30, rng):
        g = green_plus(href, z)
        assert abs(np.log(abs(bottcher_phi(href, z))) - g.value) <= 1e-8


def test_phi_outside_region_raises():
    H = make_henon([([0, 0, 1], 1.0)])
    with pytest.raises(OutsideRegion) as exc:
        bottcher_phi(H, Point(10.0, 2.0))  # |q/y^d| = 10/4 > 1/2
    assert exc.value.step == 0
    # y = 0 divides by zero in the scalar driver; the array rerun reports it
    with pytest.raises(ZeroDivisionError):
        boettcher._phi_one(H, 1.0 + 0j, 0j, 1e-12)
    with pytest.raises(OutsideRegion) as exc:
        bottcher_phi(H, Point(1.0, 0.0))
    assert exc.value.step == 0


def test_lambda_inverse_pair(rng, href):
    x, y = xy_arrays(_region_points(href, 50, rng))
    lam, ok = lambda_vec(href, x, phi_vec(href, x, y)[0])
    assert ok.all() and np.all(np.abs(lam - y) <= 1e-9 * np.abs(y))


def test_lambda_close_to_identity(rng, href):
    eps = 0.035
    x, w = xy_arrays(_region_points(href, 30, rng))  # any target in the region works
    lam, ok = lambda_vec(href, x, w)
    assert ok.all() and np.all(np.abs(np.abs(lam / w) - 1) <= eps)


def test_lambda_axis_fixed_point_oracle():
    H = make_henon([([0, 0, 1], 1.0)])
    # on the x = 0 axis, q vanishes and phi(0, y) = y exactly
    w = 1e6 * np.exp(0.7j)
    (lam,), (ok,) = lambda_vec(H, [0.0], [w])
    assert ok and abs(lam - w) <= 1e-3 * abs(w)
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


def test_lambda_no_convergence(monkeypatch):
    H = make_henon([([0, 0, 1], 1.0)])
    monkeypatch.setattr(boettcher, "_LAMBDA_MAX_ITER", 1)
    _, ok = lambda_vec(H, [0.5], [100.0], tol=1e-15)
    assert not ok[0]


def test_derivative_bounds(rng, href):
    eps = 0.035
    x, y = xy_arrays(_region_points(href, 20, rng))
    dp, ok = dphi_dy_vec(href, x, y)
    assert ok.all() and np.all(np.abs(np.abs(dp) - 1) <= eps)
    dl, ok, _ = dlambda_dy_vec(href, x, phi_vec(href, x, y)[0])
    assert ok.all() and np.all(np.abs(dp * dl - 1.0) <= 1e-9)


def test_derivative_matches_finite_difference(rng, href):
    x, y = xy_arrays(_region_points(href, 15, rng))
    dp, ok = dphi_dy_vec(href, x, y)
    h = 1e-5 * np.abs(y)
    fd = (phi_vec(href, x, y + h)[0] - phi_vec(href, x, y - h)[0]) / (2 * h)
    assert ok.all() and np.all(np.abs(dp - fd) <= 1e-6 * np.abs(fd))


def cauchy_dphi_dy(H, x, y, M):
    """dphi/dy as the 32-node Cauchy sum over the circle of radius |y|/(4M)."""
    r = np.abs(y) / (4.0 * M)
    rot = np.exp(2j * np.pi * np.arange(32) / 32)
    circle = y[:, None] + r[:, None] * rot
    phi, _, ok, _ = phi_vec(H, np.broadcast_to(x[:, None], circle.shape), circle)
    return (phi * np.conj(rot)).mean(axis=1) / r, ok.all(axis=1)


def assert_tangent_matches_cauchy(H, n, seed):
    region = certify_region(H)
    x, y = xy_arrays(_region_points(H, n, seed))
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
    """phi_series on single points, halves and reversed order against one call.

    Each point gets the same bits however the call is cut.  The scalar
    driver (bottcher_phi's) gives the same ok and bad_step and S within
    4 eps of the batch, and bottcher_phi forms y exp(S) as arrays do.
    """
    x, y = spread_points(H, n, seed)
    # tol = 0 runs every orbit to the cap: a tail far below rounding
    S_ref = phi_series(H, x, y, tol=0.0)[0]
    half = n // 2
    rev = slice(None, None, -1)
    for tol in (1e-12, 1e-6):
        batch = phi_series(H, x, y, tol)
        single = [phi_series(H, x[i : i + 1], y[i : i + 1], tol) for i in range(n)]
        halves = [phi_series(H, x[k], y[k], tol) for k in (slice(None, half), slice(half, None))]
        reverse = phi_series(H, x[rev], y[rev], tol)
        for k, want in enumerate(batch):
            assert np.array_equal(np.concatenate([one[k] for one in single]), want)
            assert np.array_equal(np.concatenate([part[k] for part in halves]), want)
            assert np.array_equal(reverse[k][rev], want)
        S, err, ok, bad, _ = batch
        assert np.all(np.abs(S - S_ref)[ok] <= err[ok] + 4 * EPS)
        assert np.all(err[:2] > 0) and np.all(S[:2] == 0)
        scalar = [boettcher._phi_point(H, complex(xi), complex(yi), tol) for xi, yi in zip(x, y)]
        S1, ok1, bad1 = (np.array(a) for a in zip(*scalar))
        assert np.array_equal(ok1, ok) and np.array_equal(bad1, bad)
        assert np.all(np.abs(S1 - S) <= 4 * EPS) and np.all(S1[:2] == 0)
        # bottcher_phi is y exp(S) of the scalar S, formed as on arrays
        for xi, yi, Si, oki in zip(x, y, S1, ok1):
            if oki:
                want = (np.array([yi]) * np.exp(np.array([Si])))[0]
                assert bottcher_phi(H, Point(xi, yi), tol) == complex(want)
            else:
                with pytest.raises(OutsideRegion):
                    bottcher_phi(H, Point(xi, yi), tol)
    return ok


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_phi_series_one_point_matches_batch(name, request):
    ok = assert_one_point_matches_batch(request.getfixturevalue(name), 400, 41)
    assert ok.any() and not ok.all()


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_phi_series_one_point_matches_batch_on_random_maps(H, seed):
    assert_one_point_matches_batch(H, 60, seed)


def test_phi_series_runs_past_a_vanishing_first_term(hcubic):
    # on (y, y^3 - x/2) the first factor is exactly 1 at x = 0 (q = -x/2),
    # while the second is 1 - y^-8/2: the product must not stop at the
    # first term, in one point, in a batch or in the scalar driver, nor at
    # x so small that its first term falls below tol
    region = certify_region(hcubic)
    y = region.M * region.R.R * np.array([1.25, 2.0, 4.0]) * np.exp(0.7j)
    for x in (np.zeros(3), 1e-3 * EPS * y):
        S_ref = phi_series(hcubic, x, y, tol=0.0)[0]
        assert np.all(np.abs(S_ref) > 1e-13)
        for tol in (1e-12, _INNER_TOL):
            S, err, ok, _, _ = phi_series(hcubic, x, y, tol)
            single = [phi_series(hcubic, x[i : i + 1], y[i : i + 1], tol) for i in range(3)]
            S1, err1 = np.concatenate([a[0] for a in single]), np.concatenate([a[1] for a in single])
            assert ok.all()
            assert np.all(np.abs(S - S_ref) <= err + 4 * EPS)
            assert np.all(np.abs(S1 - S_ref) <= err1 + 4 * EPS)
            # the scalar driver takes the same stop rule
            scalar = [boettcher._phi_point(hcubic, complex(xi), complex(yi), tol) for xi, yi in zip(x, y)]
            assert all(ok_i for _, ok_i, _ in scalar)
            assert np.all(np.abs(np.array([s for s, _, _ in scalar]) - S) <= 4 * EPS)


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
    """(S, err, ok, bad_step, dS) by np.log(1.0 + w) and numpy's y**d.

    The orbit product on whole arrays with a live mask: the oracle for
    phi_series's log1p/arctan2 log term, its repeated-squaring y^d and its
    tail bounds (twice the tail at a stop; past the y^d cap, the bound from
    the previous factor's |w| |y|, c0 before the first).
    """
    d, n = H.d, x.size
    c0 = 1.0 + float(np.abs(second_component_correction(H).c).sum())
    consts = [(f.p, f.p.derivative(), f.a) for f in H.factors]
    ycap = 10.0 ** (280.0 / d)
    S, dS = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    err, c_est = np.zeros(n), np.full(n, c0)
    ok, bad_step = np.ones(n, dtype=bool), np.full(n, -1)
    tx, ty = np.zeros(n, dtype=complex), np.ones(n, dtype=complex)
    live = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(64):
            scale = float(d) ** -(j + 1)
            huge = live & (np.abs(y) > ycap)
            err[huge] = scale * 2.0 * c_est[huge] / np.abs(y[huge])
            live &= ~huge
            nx, ny, ntx, nty = x, y, tx, ty
            for p, dp, a in consts:
                nx, ny = ny, p(ny) - a * nx
                ntx, nty = nty, dp(nx) * nty - a * ntx
            w = ny / y**d - 1.0
            term = scale * np.log(1.0 + w)
            dterm = scale * (nty / ny - d * ty / y)
            c_est = np.maximum(np.abs(w) * np.abs(y), 1e-300)
            bad = live & ~(np.abs(w) <= 0.5)
            ok[bad], bad_step[bad] = False, j
            live &= ~bad
            S[live] += term[live]
            dS[live] += dterm[live]
            # stop on the current term and the a-priori bound on the next
            tail = np.maximum(np.abs(term), 2.0 * c0 * scale / d / np.abs(ny))
            done = live & (tail < tol)
            err[done] = 2.0 * tail[done]
            live &= ~done
            x, y, tx, ty = nx, ny, ntx, nty
        err[live] = float(d) ** -65
    return S, err, ok, bad_step, dS


def assert_batch_matches_reference(H, n, seed):
    x, y = spread_points(H, n, seed)
    S, err, ok, bad, dS = phi_series(H, x, y)
    S_ref, err_ref, ok_ref, bad_ref, dS_ref = reference_phi_series(H, x, y, 1e-12)
    assert np.array_equal(ok, ok_ref) and np.array_equal(bad, bad_ref)
    assert np.all(np.abs(S - S_ref) <= 4 * EPS)
    assert np.all(np.abs(y * (dS - dS_ref))[ok] <= 64 * EPS)
    # the reference's log term is off by up to eps absolute, its y^d by rounding
    assert np.all(np.abs(err - err_ref) <= 1e-9 * err_ref + 4 * EPS)


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
        _, ok, bad = boettcher._phi_point(H, xi, yi, 1e-12)
        assert not ok and bad == 0
        xb, yb = x.copy(), y.copy()
        xb[7], yb[7] = xi, yi
        out = phi_series(H, xb, yb)
        assert not out[2][7] and out[3][7] == 0
        keep = np.arange(40) != 7
        for got, ref in zip(out, phi_series(H, x[keep], y[keep])):
            assert np.array_equal(got[keep], ref)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_lambda_point_independent(H, x, w):
    """dlambda_dy_vec gives each node the same (dl, ok, y) bits in one call,
    alone (every 8th node), in two halves and in reversed order."""
    full = dlambda_dy_vec(H, x, w, _INNER_TOL)
    half = x.size // 2
    rev = slice(None, None, -1)
    halves = [dlambda_dy_vec(H, x[k], w[k], _INNER_TOL) for k in (slice(None, half), slice(half, None))]
    reverse = dlambda_dy_vec(H, x[rev], w[rev], _INNER_TOL)
    for k, want in enumerate(full):
        assert same_bits(np.concatenate([part[k] for part in halves]), want)
        assert same_bits(reverse[k][rev], want)
    for i in range(0, x.size, 8):
        alone = dlambda_dy_vec(H, x[i : i + 1], w[i : i + 1], _INNER_TOL)
        assert all(same_bits(got, want[i : i + 1]) for got, want in zip(alone, full))
    return full


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_lambda_is_point_independent_on_the_table_torus(name, request):
    # the series table's one solve: a node's lambda does not depend on how
    # many nodes are still active (cover._series_table relies on it)
    H = request.getfixturevalue(name)
    x, w = cover._torus_nodes(certify_region(H))
    m = (-np.arange(cover._TORUS_N)) % cover._TORUS_N
    rep, _ = cover._conjugate_pairs(H, (m[:, None] * cover._TORUS_N + m).ravel())
    assert rep.size == 514
    _, ok, _ = assert_lambda_point_independent(H, x.ravel()[rep], w.ravel()[rep])
    assert ok.all()


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_lambda_is_point_independent_when_nodes_stop_on_different_rounds(H):
    # every torus node, a node outside W+_M and a NaN node, which retires
    # on the first round while the others run on
    region = certify_region(H)
    X, W = cover._torus_nodes(region)
    outside = region.R.R / 4.0 * np.exp(0.3j)
    x = np.append(X.ravel(), [0.0, np.nan])
    w = np.append(W.ravel(), [outside, W[0, 0]])
    assert not in_region_xy(0.0, outside, region.M, region.R.R)
    _, ok, _ = assert_lambda_point_independent(H, x, w)
    assert ok[:-2].all() and not ok[-1]


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_dlambda_dy_is_inverse_slope_at_solved_point(name, request):
    # one Newton solve gives the slope the two-step definition computes,
    # on one-point calls
    H = request.getfixturevalue(name)
    for z in _region_points(H, 40, 43):
        y, ok = lambda_vec(H, [z.x], [z.y])
        dl, dl_ok, dl_y = dlambda_dy_vec(H, [z.x], [z.y])
        dp, dp_ok = dphi_dy_vec(H, [z.x], y)
        assert ok[0] and dl_ok[0] and dp_ok[0] and dl_y[0] == y[0]
        assert dl[0] == (1.0 / dp)[0]


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


def product_bound_in_floats(H, M, R):
    """_product_bound's recursion on the moduli themselves: the reference
    wherever no power |v|^d_i overflows."""
    u_hi, v_lo, v_hi = R, M * R, M * R
    degrees = [f.p.degree for f in H.factors]
    w = 1.0
    for i, f in enumerate(H.factors):
        di = degrees[i]
        e = abs(f.a) * u_hi / v_lo**di + sum(
            abs(c) * v_lo ** (k - di) for k, c in enumerate(f.p.coeffs[:-1])
        )
        if not e < 1.0:
            return np.inf, False
        w *= (1.0 + e) ** np.prod(degrees[i + 1 :])
        u_hi, v_lo, v_hi = v_hi, v_lo**di * (1.0 - e), v_hi**di * (1.0 + e)
    return w - 1.0, v_lo > M * max(u_hi, R)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.sampled_from([1.0, 2.0, 4.0, 64.0]))
def test_product_bound_in_logs_matches_the_float_recursion(H, M):
    R = filtration_radius(H).R
    bound, invariant = _product_bound(H, M, R)
    want, want_invariant = product_bound_in_floats(H, M, R)
    assert invariant == want_invariant
    assert bound == want or abs(bound - want) <= 1e-13 * (1.0 + want)


def test_certify_region_proves_a_region_beyond_double_powers():
    # y^3 + 1e110 y^2: (MR)^3 is 8e330, past the double range, so the bound
    # is carried in logs; the region at M = 2 is proved
    H = make_henon([([0, 0, 1e110, 1], 0.5)])
    region = certify_region(H)
    assert (region.M, region.R.R) == (2.0, 1e110)
    bound, invariant = _product_bound(H, region.M, region.R.R)
    assert invariant and 0.0 < bound <= 0.5


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


def phi_winding_class(H, loop, samples=256):
    """(class, pushes) of a closed loop in U+ from the winding of phi.

    The oracle for alpha_of_loop, which winds y: every edge gets `samples`
    points, all are pushed by H together until they lie in W+_M, and the
    principal increments of arg phi there, each below pi/2, sum to the
    winding.
    """
    region = certify_region(H)
    v = np.array([[p.x, p.y] for p in [*loop, loop[0]]], dtype=complex)
    t = np.arange(samples) / samples
    xs, ys = ((v[:-1, i, None] + (v[1:, i] - v[:-1, i])[:, None] * t).ravel() for i in (0, 1))
    pushes = 0
    while not in_region_xy(xs, ys, region.M, region.R.R).all():
        xs, ys = apply_xy(H, xs, ys)
        pushes += 1
    phi, _, ok, _ = phi_vec(H, xs, ys)
    darg = np.angle(np.roll(phi, -1) / phi)
    assert ok.all() and np.max(np.abs(darg)) < 0.5 * np.pi
    return Fraction(round(darg.sum() / (2 * np.pi)), H.d**pushes), pushes


def seeded_loop(rng, H, n=16):
    """A closed n-gon in V+ winding m in -2 ... 2 times about the y-axis.

    |y| at the vertices runs up to 2 M R, from 1.5 R on a coin flip and
    from 1.25 M R otherwise, and |x| stays below 0.8 min|y| / M.
    Consecutive vertices are at most pi/4 + 0.2 apart in arg y, so every
    edge lies in V+, and in W+_M when the smallest |y| is 1.25 M R or more;
    the other loops mostly need pushes.
    """
    region = certify_region(H)
    M, R = region.M, region.R.R
    m = int(rng.integers(-2, 3))
    lo = 1.5 * R if rng.uniform() < 0.5 else 1.25 * M * R
    rho = rng.uniform(lo, 2.0 * M * R, n)
    arg_y = 2 * np.pi * m * np.arange(n) / n + rng.uniform(-0.1, 0.1, n)
    rx = 0.8 * rho.min() / M * rng.uniform(0.0, 1.0, n)
    x = rx * np.exp(2j * np.pi * rng.uniform(size=n))
    return [Point(xi, r * np.exp(1j * a)) for xi, r, a in zip(x, rho, arg_y)], m


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_alpha_is_the_phi_winding_class(name, request):
    H = request.getfixturevalue(name)
    rng = np.random.default_rng(71)
    pushed = 0
    for _ in range(25):
        loop, m = seeded_loop(rng, H)
        want, pushes = phi_winding_class(H, loop)
        assert alpha_of_loop(H, loop) == want == m
        pushed += pushes > 0
    assert 5 <= pushed <= 20
