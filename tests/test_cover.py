import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henoncover import (
    CoverPoint,
    DeckLabel,
    Point,
    apply,
    bottcher_phi,
    build_chart,
    certify_region,
    covering_map,
    deck,
    green_plus,
    lift_H,
    load_chart,
    make_henon,
    psi_integral,
    psi_tilde,
    psi_tilde_inverse,
    r_series,
    save_chart,
)
from henoncover import boettcher, cover, verification
from henoncover.boettcher import NoConvergence, dlambda_dy_vec, lambda_vec
from henoncover.cover import (
    _INNER_TOL,
    BudgetExceeded,
    OutsideChartDomain,
    Overflow,
    _q_from_series,
    _r_series_bound,
    chart_from_dict,
    chart_to_dict,
    in_absorbing_region,
)
from henoncover.henon import first_component_axis_poly, real_form
from henoncover.shortc2 import annulus_coordinate
from henoncover.verification import (
    _chart_points,
    check_chart_semiconjugacy,
    check_covering_map,
    check_deck,
    check_deck_additivity,
    check_q_structure,
    check_r_series,
)
from strategies import henon_maps, real_henon_maps, unit_box_maps


# ---------------------------------------------------------------------------
# psi quadrature

def test_psi_vanishes_at_zero(href):
    for y in (50.0, 200.0 * np.exp(0.5j)):
        assert psi_integral(href, 0.0, y) == 0.0


def test_psi_close_to_product(rng, href, href_region):
    eps = 0.035
    M, R = href_region.M, href_region.R.R
    for _ in range(20):
        y = M * R * rng.uniform(2.0, 10.0) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0.1, 0.9) * abs(y) / M * np.exp(2j * np.pi * rng.uniform())
        val = psi_integral(href, x, y)
        assert abs(val - x * y) <= eps * abs(x) * abs(y)


EPS = np.finfo(float).eps


def reference_psi(H, X, W):
    """psi on a 16-panel x 40-node Gauss-Legendre composite."""
    gx, gw = np.polynomial.legendre.leggauss(40)
    s = ((np.arange(16)[:, None] + 0.5 * (gx + 1.0)) / 16).ravel()
    F, ok, _ = dlambda_dy_vec(H, (X[:, None] * s).ravel(), np.repeat(W, s.size), _INNER_TOL)
    assert ok.all()
    return W * X * (F.reshape(X.size, -1) @ np.tile(gw / 32, 16))


def assert_psi_matches_reference(H, seed, n=8, monkeypatch=None):
    """Seeded segments with |x| up to 0.999 |y|/M against reference_psi.

    With monkeypatch, also asserts that each psi_integral call makes exactly
    one dlambda_dy_vec solve.
    """
    region = certify_region(H)
    M, R = region.M, region.R.R
    rng = np.random.default_rng(seed)
    W = M * R * rng.uniform(1.02, 8.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    X = rng.uniform(0.0, 0.999, n) * np.abs(W) / M * np.exp(2j * np.pi * rng.uniform(size=n))
    ref = reference_psi(H, X, W)
    calls = []
    if monkeypatch is not None:

        def counted(*args):
            calls.append(1)
            return dlambda_dy_vec(*args)

        monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    for x, w, r in zip(X, W, ref):
        before = len(calls)
        val = psi_integral(H, x, w)
        assert abs(val - r) <= 8 * EPS * max(abs(val), abs(x * w))
        if monkeypatch is not None:
            assert len(calls) - before == 1


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_psi_matches_reference_in_one_solve(name, request, monkeypatch):
    assert_psi_matches_reference(request.getfixturevalue(name), 53, 16, monkeypatch)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_psi_matches_reference_on_random_maps(H, seed):
    assert_psi_matches_reference(H, seed)


# ---------------------------------------------------------------------------
# series table

def bidisc_points(region, rng, n):
    """(X, W) filling the series bidisc M*max(|x|, R) <= 0.6|w| to its edge.

    Half the points sit on the edge in x, a quarter on the edge in w (one
    part in 1e12 inside, so that rounding keeps them in).
    """
    M, R = region.M, region.R.R
    W = M * R / 0.6 * rng.uniform(1.0, 4.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    W[: n // 4] *= (1.0 + 1e-12) * (M * R / 0.6) / np.abs(W[: n // 4])
    frac = np.where(np.arange(n) % 2 == 0, 1.0 - 1e-12, rng.uniform(0.0, 1.0, n))
    X = 0.6 * frac * np.abs(W) / M * np.exp(2j * np.pi * rng.uniform(size=n))
    return X, W


def assert_table_matches_solvers(H, seed, n):
    """Table psi, slope and lambda against the quadrature and the Newton."""
    chart = build_chart(H)
    X, W = bidisc_points(chart.region, np.random.default_rng(seed), n)
    psi, slope, lam = cover._series_eval(chart, X, W)
    for x, w, v in zip(X, W, psi):
        ref = psi_integral(H, x, w)
        assert abs(v - ref) <= 8 * EPS * max(abs(ref), 1.0)
    ref_slope, ok, _ = dlambda_dy_vec(H, X, W, _INNER_TOL)
    ref_lam, ok2 = boettcher.lambda_vec(H, X, W, 1e-14)
    assert ok.all() and ok2.all()
    assert np.all(np.abs(slope - ref_slope) <= 8 * EPS * np.abs(ref_slope))
    assert np.all(np.abs(lam - ref_lam) <= 64 * EPS * np.abs(ref_lam))
    assert chart.series_tail <= 1e-12


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_series_table_matches_solvers(name, request):
    assert_table_matches_solvers(request.getfixturevalue(name), 71, 40)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_series_table_matches_solvers_on_random_maps(H, seed):
    assert_table_matches_solvers(H, seed, 12)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_series_eval_batch_matches_single_points(name, request):
    # a point's values are its own: bitwise those of a one-point call,
    # whatever the size of the batch it comes in
    chart = request.getfixturevalue(f"{name}_chart")
    X, W = bidisc_points(chart.region, np.random.default_rng(13), 512)
    single = [cover._series_eval(chart, [x], [w]) for x, w in zip(X, W)]
    single = [np.concatenate(v) for v in zip(*single)]
    for n in (1, 63, 64, 65, 256, 512):
        batch = cover._series_eval(chart, X[:n], W[:n])
        for got, ref in zip(batch, single):
            assert np.array_equal(got, ref[:n])


def torus_solve_size(H):
    """Nodes the table's one solve takes: all N^2 for a complex map; for a
    real one, one node of each of the (N^2 - 4)/2 conjugate pairs and the 4
    self-conjugate nodes."""
    N = cover._TORUS_N
    return N**2 if real_form(H) is None else (N**2 - 4) // 2 + 4


def test_series_table_is_built_once_per_chart(href, href_region, monkeypatch):
    # one batched solve over the torus (half of it: href is real) when the
    # chart is built, then no solve per point
    sizes = []

    def counted(H, x, w, tol=1e-12):
        sizes.append(np.size(x))
        return dlambda_dy_vec(H, x, w, tol)

    monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    chart = build_chart(href)
    X, W = bidisc_points(href_region, np.random.default_rng(5), 8)
    for x, w in zip(X, W):
        cover._series_eval(chart, [x], [w])
    assert sizes == [torus_solve_size(href)] == [514]


def meta_circle(H):
    """(zetas, mirror): CoverChart.meta's circle at 1.25 MR, zetas[mirror[k]] = conj(zetas[k])."""
    region = certify_region(H)
    n, _ = build_circles(H, region)
    return 1.25 * region.M * region.R.R * cover._unit_roots(n), (-np.arange(n)) % n


@pytest.mark.parametrize("name, reps", [("href", 129), ("htwo", 257), ("hcubic", 129)])
def test_node_sets_are_conjugation_closed(name, reps, request):
    # node (-i, -j) of the torus and sample -k of meta's circle are exactly
    # the conjugates of node (i, j) and sample k, and the nodes are np.exp's
    # to rounding; a real map solves 514 torus nodes and n/2 + 1 samples
    H = request.getfixturevalue(name)
    N, m = cover._TORUS_N, (-np.arange(cover._TORUS_N)) % cover._TORUS_N
    x, w = cover._torus_nodes(certify_region(H))
    assert np.array_equal(x[m][:, m], np.conj(x)) and np.array_equal(w[m][:, m], np.conj(w))
    e = np.exp(2j * np.pi * np.arange(N) / N)
    assert np.abs(cover._unit_roots(N) - e).max() <= 4 * EPS
    assert cover._conjugate_pairs(H, (m[:, None] * N + m).ravel())[0].size == 514
    zetas, mirror = meta_circle(H)
    assert np.array_equal(zetas[mirror], np.conj(zetas))
    assert cover._conjugate_pairs(H, mirror)[0].size == reps == zetas.size // 2 + 1


def assert_pairs_match_full_solve(H, monkeypatch):
    """A real map's table and meta circle against the same solves over every node.

    A solved node and its mirror both pass the Newton's residual test, so
    they agree to rounding; in fact the float run is symmetric under conj
    bit for bit (_series_table), and a node's Newton rounds do not depend
    on which other nodes are still active, so the two agree exactly."""
    assert real_form(H) is not None
    region = certify_region(H)
    C, tail = cover._series_table(H, region)
    # the circle reads the chart's H, region and table alone, and a random
    # map's table builds where its Q or Mtilde may fail a gate; both circles
    # evaluate psi from this one table
    table_only = SimpleNamespace(H=H, region=region, _table=C)
    zetas, mirror = meta_circle(H)
    qt = cover._qtilde_batch(table_only, zetas, mirror)
    with monkeypatch.context() as m:
        m.setattr(cover, "real_form", lambda H: None)
        C_full, tail_full = cover._series_table(H, region)
        qt_full = cover._qtilde_batch(table_only, zetas, mirror)
    assert np.array_equal(C, C_full) and tail == tail_full
    assert np.array_equal(qt, qt_full)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_real_table_matches_full_torus_solve(name, request, monkeypatch):
    assert_pairs_match_full_solve(request.getfixturevalue(name), monkeypatch)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(real_henon_maps)
def test_real_table_matches_full_torus_solve_on_random_maps(H):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pairs_match_full_solve(H, monkeypatch)


def recorded_solves(monkeypatch):
    """Sizes of the torus (dlambda_dy_vec) and circle (lambda_vec) solves cover makes."""
    sizes = {"torus": [], "circle": []}

    def torus(H, x, w, *args):
        sizes["torus"].append(np.size(x))
        return dlambda_dy_vec(H, x, w, *args)

    def circle(H, x, w, *args):
        sizes["circle"].append(np.size(x))
        return lambda_vec(H, x, w, *args)

    monkeypatch.setattr(cover, "dlambda_dy_vec", torus)
    monkeypatch.setattr(cover, "lambda_vec", circle)
    return sizes


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_complex_maps_solve_every_node(H):
    assume(real_form(H) is None)
    zetas, mirror = meta_circle(H)
    chart = build_chart(H)  # so the circle's series evaluation solves no torus
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = recorded_solves(monkeypatch)
        cover._series_table(H, chart.region)
        cover._qtilde_batch(chart, zetas, mirror)
    assert sizes == {"torus": [cover._TORUS_N**2], "circle": [zetas.size]}


def test_near_real_map_takes_the_full_path_to_the_same_q(htwo_chart, monkeypatch):
    # htwo with a = 0.9 + 1e-13i is complex: every node is solved, and its Q
    # is the real htwo's to chart_from_dict's 1e-10, so either chart's
    # document loads with the other's Q
    near = make_henon([([-0.1, 0, 1], 1.0), ([0.05, 0, 1], 0.9 + 1e-13j)])
    assert real_form(near) is None
    sizes = recorded_solves(monkeypatch)
    chart = build_chart(near)
    meta = chart.meta
    assert sizes == {"torus": [cover._TORUS_N**2], "circle": [meta["circle_samples"]]}
    real_q = chart_to_dict(htwo_chart)["Q"]
    doc = chart_to_dict(chart)
    assert doc["Q"] != real_q
    doc["Q"] = real_q
    assert chart_from_dict(doc).Q == chart.Q
    doc = chart_to_dict(htwo_chart)
    doc["Q"] = chart_to_dict(chart)["Q"]
    assert chart_from_dict(doc).Q == htwo_chart.Q


def test_psi_end_slope_is_integrand_at_segment_end(rng, href_chart, href_region):
    # d psi/dx at the segment end is y times the table's slope: the Cauchy
    # mean of psi on a circle of 32 points about x is exact to rounding for
    # the table's psi, a polynomial of degree K + 1 < 32 in x
    M, R = href_region.M, href_region.R.R
    for _ in range(8):
        w = M * R / 0.6 * rng.uniform(1.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
        x = 0.5 * rng.uniform(0.1, 1.0) * abs(w) / M * np.exp(2j * np.pi * rng.uniform())
        r = 0.1 * abs(w) / M
        e = np.exp(2j * np.pi * np.arange(32) / 32)
        psi, _, _ = cover._series_eval(href_chart, x + r * e, np.full(32, w))
        dpsi = np.mean(psi / e) / r
        _, slope, _ = cover._series_eval(href_chart, [x], [w])
        assert abs(dpsi - w * slope[0]) <= 64 * EPS * abs(w)


def test_chart_records_series_tail(href, href_chart, htwo_chart, hcubic_chart, monkeypatch):
    # every fixture table decays to rounding in its top half; a torus too
    # coarse for href trips the guard and no chart is built
    for c in (href_chart, htwo_chart, hcubic_chart):
        assert c.series_tail == cover._series_table(c.H, c.region)[1] <= 1e-12
    monkeypatch.setattr(cover, "_TORUS_N", 8)
    with pytest.raises(cover.DecayFailed, match="series table tail"):
        build_chart(href)


def test_psi_tilde_outside_series_bidisc(href, href_chart):
    # points of W+_M just outside M*max(|x|, R) <= 0.6|phi|, in x and in y
    M, R = href_chart.region.M, href_chart.region.R.R
    y = 40.0 * M * R * np.exp(0.3j)
    for frac, inside in ((0.59, True), (0.61, False)):
        z = Point(frac * abs(y) / M * np.exp(1.1j), y)
        phi = bottcher_phi(href, z)
        assert (0.6 * abs(phi) >= M * abs(z.x)) == inside
        if inside:
            psi_tilde(href_chart, z)
        else:
            with pytest.raises(OutsideChartDomain):
                psi_tilde(href_chart, z)
    z = Point(0.0, 1.5 * M * R)
    assert abs(bottcher_phi(href, z)) < M * R / 0.6
    with pytest.raises(OutsideChartDomain):
        psi_tilde(href_chart, z)


def test_inverse_newton_takes_no_separate_slope_solve(monkeypatch, href_chart):
    # the Newton of an inversion takes d(lambda)/dy from the table: the one
    # dlambda_dy_vec call is the batched torus solve that builds the chart's
    # table, over one node of each conjugate pair for the real href
    calls = []

    def counted(H, x, w, tol=1e-12):
        calls.append(np.size(x))
        return dlambda_dy_vec(H, x, w, tol)

    monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    chart = build_chart(href_chart.H)
    zeta = chart.Mtilde * 1.5 * np.exp(0.4j)
    psi_tilde_inverse(chart, CoverPoint(0.1 * chart.t * abs(zeta) ** 2, zeta))
    assert calls == [torus_solve_size(chart.H)]


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_inverse_y_is_the_end_node_lambda(name, request, monkeypatch):
    # y is lambda at the end node (x, y) of the psi segment, read from the
    # table: on a built chart psi_tilde_inverse runs no lambda solve and no
    # phi series, and y matches a fresh lambda solve
    chart = request.getfixturevalue(f"{name}_chart")

    def forbidden(*args, **kwargs):
        raise AssertionError("solver called")

    rng = np.random.default_rng(67)
    for _ in range(6):
        zeta = chart.Mtilde * rng.uniform(1.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
        z = chart.t * abs(zeta) ** 2 * rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        with monkeypatch.context() as m:
            m.setattr(boettcher, "_lambda_newton", forbidden)
            m.setattr(boettcher, "phi_series", forbidden)
            pt = psi_tilde_inverse(chart, CoverPoint(z, zeta))
        (ref,), (ok,) = lambda_vec(chart.H, [pt.x], [zeta])
        assert ok and abs(pt.y - ref) <= 1e-12 * abs(ref)


def test_psi_segment_outside_region(href, href_region, href_chart):
    M, R = href_region.M, href_region.R.R
    with pytest.raises(OutsideChartDomain):
        psi_integral(href, 2.0 * M * R, M * R)
    # the table: the series bidisc M*max(|x|, R) <= 0.6|y|, in x and in y
    w = 4.0 * M * R
    cover._series_eval(href_chart, [0.6 * w / M], [w])
    nan = complex(np.nan, 0.0)
    for x, y in ((0.61 * w / M, w), (0.0, 0.99 * M * R / 0.6), (nan, w), (0.0, nan)):
        with pytest.raises(OutsideChartDomain):
            cover._series_eval(href_chart, [x], [y])


# ---------------------------------------------------------------------------
# chart structure

def test_chart_q_degree_and_monicity(href, href_chart):
    assert href_chart.Q.degree == href.d + href.d_prime == 3
    assert check_q_structure(href_chart)["passed"]
    assert href_chart.meta["two_radius_agreement"] <= 1e-7


def test_chart_radii_and_aspect(href_chart):
    M, R = href_chart.region.M, href_chart.region.R.R
    assert href_chart.Mtilde >= 2.0 * M * R
    assert href_chart.t == 1.0 / (4.0 * M)


def test_two_factor_chart_degree(htwo, htwo_chart):
    assert htwo_chart.Q.degree == htwo.d + htwo.d_prime == 6
    assert check_q_structure(htwo_chart)["passed"]
    assert htwo_chart.meta["two_radius_agreement"] <= 1e-7


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_build_chart_runs_no_circle_and_meta_runs_it_once(name, request, monkeypatch):
    # Q, R and Mtilde come from the series table's coefficients, so a build
    # makes no lambda_vec call; the first read of meta makes one, on the
    # Q^- circle at 1.25 MR, and a second read makes none.  The fixtures are
    # real, so each solve takes one node of each conjugate pair: the upper
    # half circle, ends included
    H = request.getfixturevalue(name)
    calls, tables = [], []

    def recorded(H, x, w, *args):
        calls.append(np.array(w))
        return boettcher.lambda_vec(H, x, w, *args)

    def counted(H, x, w, *args):
        tables.append(np.size(x))
        return dlambda_dy_vec(H, x, w, *args)

    monkeypatch.setattr(cover, "lambda_vec", recorded)
    monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    chart = build_chart(H)
    assert calls == [] and tables == [torus_solve_size(H)]
    meta = chart.meta
    (w,) = calls
    assert w.size == meta["circle_samples"] // 2 + 1
    assert np.allclose(np.abs(w), 1.25 * chart.inner_radius, rtol=4 * EPS, atol=0.0)
    assert np.all(w.imag >= 0.0) and w.real.max() > 0.0 > w.real.min()
    assert chart.meta is meta and len(calls) == 1 and len(tables) == 1


def build_circles(H, region):
    """(n, rho): the sample count of build_chart's circle and the FFT oracle's radius 2MR."""
    deg = H.d + H.d_prime
    n = 1 << max(6, int(np.ceil(np.log2(cover._SAMPLES_PER_DEGREE * deg))))
    return n, 2.0 * region.M * region.R.R


def newton_lambda0(H, zetas):
    lam, ok = boettcher.lambda_vec(H, np.zeros_like(zetas), zetas, _INNER_TOL)
    assert ok.all()
    return lam


def assert_table_lambda_matches_newton_on_build_circles(H):
    chart = build_chart(H)
    n, rho = build_circles(H, chart.region)
    for r in (rho, 2.0 * rho):
        zetas = r * np.exp(2j * np.pi * np.arange(n) / n)
        lam = cover._series_eval(chart, np.zeros(n), zetas)[2]
        ref = newton_lambda0(H, zetas)
        assert np.all(np.abs(lam - ref) <= 64 * EPS * np.abs(ref))


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_table_lambda_matches_newton_on_build_circles(name, request):
    assert_table_lambda_matches_newton_on_build_circles(request.getfixturevalue(name))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_table_lambda_matches_newton_on_build_circles_on_random_maps(H):
    assert_table_lambda_matches_newton_on_build_circles(H)


@pytest.mark.parametrize(
    "name, radius",
    [(name, r) for r in (1.0, 2.0) for name in ("href", "htwo", "hcubic")],
    ids=["href", "htwo", "hcubic", "href-2rho", "htwo-2rho", "hcubic-2rho"],
)
def test_chart_q_matches_extraction_from_newton_circle(name, radius, request):
    # the oracle: the polynomial part of an FFT of Qtilde on |zeta| = r,
    # r = rho = 2MR and 2 rho, with lambda(0, zeta) by Newton.  Coefficient
    # j of an n-point FFT carries at most the samples' error over r^j
    chart = request.getfixturevalue(f"{name}_chart")
    H, region = chart.H, chart.region
    n, rho = build_circles(H, region)
    assert n == chart.meta["circle_samples"]
    r = radius * rho
    zetas = r * np.exp(2j * np.pi * np.arange(n) / n)
    x0 = first_component_axis_poly(H)(newton_lambda0(H, zetas))
    qt = cover._series_eval(chart, x0, zetas**H.d)[0]
    j = np.arange(H.d + H.d_prime + 1)
    ref = np.fft.fft(qt)[j] / n / r**j
    bound = 64 * EPS * np.abs(qt).max() / r**j
    assert np.all(np.abs(np.array(chart.Q.coeffs) - ref) <= bound)


@pytest.mark.parametrize("draw", range(5, 10))
def test_two_factor_unit_box_draws_build_semiconjugate_charts(draw):
    H = unit_box_maps()[draw]
    assert len(H.factors) == 2
    chart = build_chart(H)
    assert chart.Q.degree == H.d + H.d_prime
    assert check_chart_semiconjugacy(chart)["passed"]


@pytest.mark.parametrize(
    "factors",
    [[([-1, 0, 1], 0.5)] * 3, [([0, 0, 0, 1], 0.5)] * 2],
    ids=["quadratic-cubed", "cubic-squared"],
)
def test_degree_twelve_charts_have_a_pure_tail(factors):
    # Q^- = O(1/zeta): Qtilde - Q has no non-negative Fourier content on the
    # 1.25 MR circle above the samples' rounding
    H = make_henon(factors)
    chart = build_chart(H)
    assert chart.Q.degree == H.d + H.d_prime == 12
    assert check_q_structure(chart)["passed"]


def test_chart_beyond_the_table_orders_raises_before_sampling(monkeypatch):
    H = make_henon([([0, 0, 0, 1], 0.5), ([0, 0, 0, 1], 0.5), ([-1, 0, 1], 0.5)])
    assert (H.d, H.d_prime) == (18, 9)

    def sampled(*args):
        raise AssertionError("sampled a circle")

    monkeypatch.setattr(cover, "_qtilde_batch", sampled)
    with pytest.raises(cover.DecayFailed, match=r"d \+ d' \+ 1 = 28 series orders; the table has 16"):
        build_chart(H)


def test_two_factor_semiconjugacy_and_covering(rng, htwo, htwo_chart):
    for z in _chart_points(htwo_chart, 10, rng, depth=(1.0, 2.5)):
        w1 = psi_tilde(htwo_chart, apply(htwo, z))
        w2 = lift_H(htwo_chart, psi_tilde(htwo_chart, z))
        assert abs(w1.z - w2.z) <= 1e-6 * max(1.0, abs(w2.z))
        assert abs(w1.zeta - w2.zeta) <= 1e-6 * max(1.0, abs(w2.zeta))
    for _ in range(6):
        zeta = rng.uniform(1.1, 1.6) * np.exp(2j * np.pi * rng.uniform())
        w = CoverPoint(0.3 * complex(*rng.normal(size=2)), zeta)
        p1 = covering_map(htwo_chart, lift_H(htwo_chart, w), 20)
        p2 = apply(htwo, covering_map(htwo_chart, w, 20))
        scale = max(1.0, abs(p2.x), abs(p2.y))
        assert max(abs(p1.x - p2.x), abs(p1.y - p2.y)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# correction series

def chart_series(chart, N=cover._LAURENT_N):
    """_q_from_series on a built chart's region and table, carried N orders past Q."""
    return _q_from_series(chart.H, chart.region, chart._table, N)


def test_series_identity(rng, href_chart):
    assert check_r_series(href_chart, n=50, seed=rng)["passed"]


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_laurent_q_is_the_build_q_bitwise(name, request):
    # carrying the series N or 2N orders past Q leaves Q's orders exact:
    # the same bits as with no Laurent orders at all, which build_chart keeps
    chart = request.getfixturevalue(f"{name}_chart")
    bare = chart_series(chart, 0)[0]
    for N in (cover._LAURENT_N, 2 * cover._LAURENT_N):
        assert chart_series(chart, N)[0].tobytes() == bare.tobytes()
    assert tuple(bare) == chart.Q.coeffs


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_qminus_direct_form_matches_laurent_sum(name, request):
    # the Laurent sum of Q^- against the direct form Qtilde(w) - Q(w) at
    # |w| in [1.5, 2.5] MR: the cancellation leaves eps |Q(w)| as the floor
    chart = request.getfixturevalue(f"{name}_chart")
    rng = np.random.default_rng(2)
    w = chart.inner_radius * rng.uniform(1.5, 2.5, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    direct = cover._qtilde_batch(chart, w) - chart.Q(w)
    q = chart_series(chart)[1]
    laurent = (w[:, None] ** -np.arange(1.0, q.size + 1)) @ q
    assert np.all(np.abs(direct - laurent) <= 16 * EPS * np.abs(chart.Q(w)))
    # below 1.5 MR, the domain of R's bound, r_series refuses
    with pytest.raises(OutsideChartDomain):
        r_series(chart, 1.2 * chart.inner_radius * np.exp(0.7j))


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_chart_checks_evaluate_qminus_at_or_above_1p5_mr(name, request, monkeypatch):
    # r_series' domain |zeta| >= 1.5 MR loses no production caller: the
    # chart checks of verify that reach R (and through it Q^-) stay there
    # and raise nothing
    chart = request.getfixturevalue(f"{name}_chart")
    ratios, r = [], cover.r_series

    def recorded(chart, zeta):
        ratios.append(abs(zeta) / chart.inner_radius)
        return r(chart, zeta)

    monkeypatch.setattr(cover, "r_series", recorded)
    monkeypatch.setattr(verification, "r_series", recorded)
    for check in (check_chart_semiconjugacy, check_covering_map, check_r_series):
        record = check(chart)
        assert np.isfinite(record["defect"]), record
    assert ratios and min(ratios) >= 1.5
    # the domain's edge is closed: |zeta| = 1.5 MR exactly on both axes
    edge = 1.5 * chart.inner_radius
    assert np.isfinite(r_series(chart, edge)) and np.isfinite(r_series(chart, 1j * edge))
    with pytest.raises(OutsideChartDomain):
        r_series(chart, 1.49 * chart.inner_radius)


def test_r_coefficients_built_once_per_chart(htwo_chart, rng, monkeypatch):
    # R's coefficients are the chart's: evaluating R computes no series,
    # and a reloaded chart, which builds its own, gives bitwise the same R
    chart = chart_from_dict(json.loads(json.dumps(chart_to_dict(htwo_chart))))

    def forbidden(*args):
        raise AssertionError("recomputed the Laurent series")

    monkeypatch.setattr(cover, "_q_from_series", forbidden)
    monkeypatch.setattr(cover, "_r_laurent", forbidden)
    for _ in range(20):
        w = 1.5 * chart.inner_radius * rng.uniform(1.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
        assert r_series(chart, w) == r_series(htwo_chart, w)
    assert np.array_equal(chart._r, htwo_chart._r)


@pytest.fixture(scope="module")
def dissipative_chart():
    # p(y) = y^2 - 1.1, a = 0.01: at 2MR = 12.44 the bound on |R| reads 282,
    # above t (2MR)^2 = 19.3, so Mtilde doubles once, to 24.88
    return build_chart(make_henon([([-1.1, 0, 1], 0.01)]))


@pytest.mark.parametrize(
    "name, doublings",
    [pytest.param(name, k, id=name) for name, k in
     (("href", 0), ("htwo", 0), ("hcubic", 0), ("dissipative", 1))],
)
def test_series_bound_on_absorbing_region(name, doublings, request, tmp_path):
    chart = request.getfixturevalue(f"{name}_chart")
    assert chart.Mtilde == 2.0 * chart.inner_radius * 2**doublings
    path = tmp_path / "chart.json"
    save_chart(chart, path)
    assert load_chart(path).Mtilde == chart.Mtilde
    bound = _r_series_bound(chart, chart.Mtilde)
    for radial in (1.0, 1.5, 3.0):
        r = chart.Mtilde * radial
        for k in range(32):
            val = abs(r_series(chart, r * np.exp(2j * np.pi * k / 32)))
            assert val <= bound
            assert val < chart.t * r**2


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic", "dissipative"])
def test_r_series_bound_covers_r_from_the_domain_edge(name, request):
    # Laurent sum plus the bound on the orders past N: at least max|R| on
    # |zeta| = s at the domain's edge 1.5 MR and at Mtilde
    chart = request.getfixturevalue(f"{name}_chart")
    for s in (1.5 * chart.inner_radius, chart.Mtilde):
        zetas = s * (1 + 1e-12) * np.exp(2j * np.pi * np.arange(256) / 256)
        top = max(abs(r_series(chart, z)) for z in zetas)
        assert top <= _r_series_bound(chart, s) <= 1.5 * top


def test_series_truncation_stability(href_chart, htwo_chart, hcubic_chart):
    # R's coefficients from the series carried N and 2N orders past Q agree
    # to rounding, the majorant bounds every order, and the dropped orders
    # weigh below rounding at 1.5 MR
    for chart in (href_chart, htwo_chart, hcubic_chart):
        H, N = chart.H, cover._LAURENT_N
        q, (_, q2, A) = chart_series(chart)[1], chart_series(chart, 2 * N)
        assert np.all(np.abs(q2[:N] - q) <= 4 * EPS * np.abs(q))
        rho = cover._MAJORANT_FRAC * chart.inner_radius
        assert np.all(np.abs(q2) <= A * rho ** np.arange(1.0, 2 * N + 1))
        s = 1.5 * chart.inner_radius
        assert np.abs(q2[N:]) @ s ** -np.arange(N + 1.0, 2 * N + 1) <= EPS * 1e-3


def test_series_requires_inner_radius(href_chart):
    with pytest.raises(OutsideChartDomain):
        r_series(href_chart, 0.5 * href_chart.inner_radius)


# ---------------------------------------------------------------------------
# the chart map and its inverse

def test_psi_tilde_second_coordinate_is_phi(rng, href, href_chart):
    for z in _chart_points(href_chart, 10, rng):
        w = psi_tilde(href_chart, z)
        assert w.zeta == bottcher_phi(href, z)


def test_psi_tilde_modulus_is_green(rng, href, href_chart):
    for z in _chart_points(href_chart, 20, rng):
        w = psi_tilde(href_chart, z)
        g = green_plus(href, z)
        assert abs(abs(w.zeta) - np.exp(g.value)) <= 1e-8 * np.exp(g.value)


def test_round_trip_through_inverse(rng, href, href_chart):
    count = 0
    for z in _chart_points(href_chart, 80, rng, depth=(2.0, 6.0)):
        w = psi_tilde(href_chart, z)
        if not in_absorbing_region(href_chart, w):
            continue
        count += 1
        back = psi_tilde_inverse(href_chart, w)
        scale = max(1.0, abs(z.x), abs(z.y))
        assert max(abs(back.x - z.x), abs(back.y - z.y)) <= 1e-8 * scale
        if count >= 50:
            break
    assert count >= 50


def test_inverse_requires_absorbing_region(href_chart):
    w = CoverPoint(1e9, href_chart.Mtilde * 2.0)  # |z| >= t |zeta|^2
    with pytest.raises(OutsideChartDomain):
        psi_tilde_inverse(href_chart, w)


def test_inverse_newton_budget_raises_no_convergence(monkeypatch, href_chart):
    # a point whose Newton converges in more than one round, given one
    zeta = href_chart.Mtilde * 1.5 * np.exp(0.4j)
    w = CoverPoint(0.5 * href_chart.t * abs(zeta) ** 2, zeta)
    psi_tilde_inverse(href_chart, w)
    monkeypatch.setattr(cover, "_INVERSE_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as exc:
        psi_tilde_inverse(href_chart, w)
    assert exc.value.iterations == 1


def test_semiconjugacy(rng, href_chart):
    assert check_chart_semiconjugacy(href_chart, n=50, seed=rng)["passed"]


def test_lift_formula(href, href_chart):
    zeta = 2.5 * np.exp(0.3j)
    w = lift_H(href_chart, CoverPoint(0.0, zeta))
    assert w.zeta == zeta**href.d
    assert w.z == href_chart.Q(zeta)


# ---------------------------------------------------------------------------
# deck transformations

def test_deck_identity_for_integer_class(rng, href_chart):
    w = CoverPoint(0.7 - 0.2j, 1.8 * np.exp(0.9j))
    for k in (0, 1, 5):
        assert deck(href_chart, DeckLabel.reduced(k, 0, 2), w) == w
    # [2/2] = [1] = 0 in Z[1/d]/Z
    assert deck(href_chart, DeckLabel.reduced(2, 1, 2), w) == w


@pytest.mark.parametrize("name", ["href_chart", "htwo_chart", "hcubic_chart"])
def test_deck_root_table_matches_roots_formed_per_read(name, request, monkeypatch):
    # every label k/d^n with n <= 3: deck with the table of roots against
    # deck with each root formed per read as exp(2 pi i e / d^n)
    class PerRead:
        def __init__(self, dn):
            self.dn = dn

        def __getitem__(self, e):
            return np.exp(2j * np.pi * e / self.dn)

    chart = request.getfixturevalue(name)
    d = chart.H.d
    rng = np.random.default_rng(5)

    def outcome(label, w):
        try:
            got = deck(chart, label, w)
        except Overflow as e:
            return str(e)
        return got.z, got.zeta

    for n in (1, 2, 3):
        dn = d**n
        for k in range(dn):
            w = CoverPoint(complex(*rng.normal(size=2)), rng.uniform(1.2, 2.5) * np.exp(2j * np.pi * rng.uniform()))
            label = DeckLabel.reduced(k, n, d)
            table = outcome(label, w)
            with monkeypatch.context() as m:
                m.setattr(cover, "_roots_of_unity", PerRead)
                assert outcome(label, w) == table, (n, k)


def test_deck_label_reduction():
    assert DeckLabel.reduced(4, 2, 2) == DeckLabel(0, 0)
    # [6/4] = [3/2] = [1/2] modulo Z
    assert DeckLabel.reduced(6, 2, 2) == DeckLabel(1, 1)
    assert DeckLabel.reduced(-1, 2, 2) == DeckLabel(3, 2)
    assert DeckLabel.reduced(13, 2, 3) == DeckLabel(4, 2)


def test_deck_relation_with_lift(rng, href_chart):
    assert check_deck(href_chart, pts=20, seed=rng)["passed"]


def test_deck_additivity(rng, href_chart):
    assert check_deck_additivity(href_chart, seed=rng, levels=2)["passed"]


def test_deck_additivity_against_exact_polynomials(href, href_chart):
    # brute-force oracle: expand the z-shift of each deck map as an exact
    # polynomial in zeta (coefficients from Q and roots of unity) and check
    # shift_{k'}(zeta) + shift_k(omega' zeta) = shift_{k+k'}(zeta) termwise
    d = href.d
    A = href_chart.Q.coeffs
    ratio = d / href.jacobian

    def shift_coeffs(k, n):
        top = (len(A) - 1) * d ** max(n - 1, 0)
        out = np.zeros(top + 1, dtype=complex)
        omega = np.exp(2j * np.pi * k / d**n)
        for l in range(n):
            m = d**l
            for j, Aj in enumerate(A):
                out[j * m] += ratio ** (l + 1) * Aj * (1.0 - omega ** (j * m))
        return out

    def rotate(coeffs, omega):
        return coeffs * omega ** np.arange(len(coeffs))

    for n in (1, 2):
        for k1 in range(d**n):
            for k2 in range(d**n):
                om2 = np.exp(2j * np.pi * k2 / d**n)
                lhs = shift_coeffs(k2, n) + rotate(shift_coeffs(k1, n), om2)
                label = DeckLabel.reduced(k1 + k2, n, d)
                rhs = shift_coeffs(label.k, label.n)
                m = max(len(lhs), len(rhs))
                lhs = np.pad(lhs, (0, m - len(lhs)))
                rhs = np.pad(rhs, (0, m - len(rhs)))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(
                    1.0, np.max(np.abs(rhs))
                )


def test_deck_overflow_guard(href_chart):
    w = CoverPoint(0.0, 1e60)
    with pytest.raises(Overflow):
        deck(href_chart, DeckLabel.reduced(1, 2, 2), w)


# ---------------------------------------------------------------------------
# covering map

def test_covering_map_on_absorbed_point(rng, href, href_chart):
    zeta = href_chart.Mtilde * 1.5 * np.exp(0.4j)
    w = CoverPoint(0.1 * href_chart.t * abs(zeta) ** 2, zeta)
    assert in_absorbing_region(href_chart, w)
    p1 = covering_map(href_chart, w, 20)
    p2 = psi_tilde_inverse(href_chart, w)
    assert p1 == p2


def test_covering_map_equivariance(rng, href_chart):
    # the record covers both pi(lift_H(w)) = H(pi(w)) and fiber invariance
    assert check_covering_map(href_chart, n=15, budget=20, seed=rng)["passed"]


def test_covering_map_budget_exceeded(href_chart):
    w = CoverPoint(0.0, 1.0000001)
    with pytest.raises(BudgetExceeded):
        covering_map(href_chart, w, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_covering_map_overflow_is_budget_exceeded():
    # on the d = 6 map [3, -2, 1], [1, 3, -3, 1] this model orbit's |zeta|^6
    # passes the double range: a Python complex and a numpy complex point
    # both stop with BudgetExceeded, with no OverflowError and no warning
    chart = build_chart(make_henon([([3, -2, 1], 1), ([1, 3, -3, 1], 1)]))
    z, zeta = 8.350803577394216e121 - 5.098951276417805e121j, -0.13073683385772875 - 1.0092051672423976j
    for w in (CoverPoint(z, zeta), CoverPoint(np.complex128(z), np.complex128(zeta))):
        with pytest.raises(BudgetExceeded, match="overflow"):
            covering_map(chart, w, 40)


# ---------------------------------------------------------------------------
# persistence

def test_chart_json_round_trip(tmp_path, rng, href, href_chart):
    path = tmp_path / "chart.json"
    save_chart(href_chart, path)
    loaded = load_chart(path)
    assert loaded.Q.coeffs == href_chart.Q.coeffs
    for field in ("H", "region", "Mtilde", "t", "meta"):
        assert getattr(loaded, field) == getattr(href_chart, field), field
    assert loaded.region == certify_region(href)
    zeta = 1.7 * np.exp(0.23j)
    w = CoverPoint(0.4 - 0.1j, zeta)
    assert lift_H(loaded, w) == lift_H(href_chart, w)
    assert deck(loaded, DeckLabel.reduced(1, 2, 2), w) == deck(
        href_chart, DeckLabel.reduced(1, 2, 2), w
    )
    z_big = 2.5 * href_chart.inner_radius
    assert r_series(loaded, z_big) == r_series(href_chart, z_big)
    z = _chart_points(href_chart, 1, rng)[0]
    # the loaded chart builds its own series table from H, bit for bit
    assert np.array_equal(loaded._table, href_chart._table)
    assert psi_tilde(loaded, z) == psi_tilde(href_chart, z)


def test_chart_dict_format(href_chart):
    doc = chart_to_dict(href_chart)
    assert doc["format"] == "henoncover-chart-v1"
    text = json.dumps(doc)
    again = chart_from_dict(json.loads(text))
    assert again.Q.coeffs == href_chart.Q.coeffs
    # charts saved with a sampled radius carry its sample count; it is ignored
    doc["region"]["R_samples"] = 4096
    assert chart_from_dict(doc).region == href_chart.region
    # charts saved with a sampled region and Mtilde carry the sampled epsilon
    # and sample counts, and older charts a meta; they load to the same
    # chart, whose meta is the map's
    assert "meta" not in doc
    old = json.loads(text)
    old["region"].update(epsilon=0.03558, samples=1400)
    old["meta"] = dict(href_chart.meta, tail_purity=1e6, mtilde_certification_samples=384)
    # and charts whose Q came from FFTs on two sample circles carry the
    # first circle's radius
    old["rho"] = 2.0 * href_chart.inner_radius
    loaded = chart_from_dict(old)
    for name in ("H", "region", "Q", "Mtilde", "t"):
        assert getattr(loaded, name) == getattr(href_chart, name)
    assert loaded.meta == href_chart.meta
    assert not {"qminus_rho", "qminus_samples"} & set(doc)


@pytest.mark.parametrize("name", ["href", "htwo"])
@pytest.mark.parametrize("edit", ["removed", "emptied", "tail_purity", "monic_defect"])
def test_loaded_chart_q_check_measures_the_map(name, edit, request):
    # the circle check of Q is the map's, whatever an older document's stale
    # meta says of it; a document written now has its meta removed already
    chart = request.getfixturevalue(f"{name}_chart")
    doc = json.loads(json.dumps(chart_to_dict(chart)))
    assert "meta" not in doc
    if edit == "emptied":
        doc["meta"] = {}
    elif edit == "tail_purity":
        doc["meta"] = dict(chart.meta, tail_purity=chart.meta["tail_purity"] * 1e6)
    elif edit == "monic_defect":
        doc["meta"] = dict(chart.meta, monic_defect=1.0)
    loaded = chart_from_dict(doc)
    assert loaded.meta == build_chart(chart.H).meta
    got, want = check_q_structure(loaded), check_q_structure(chart)
    assert got["passed"] and got["defect"] == want["defect"]


@pytest.mark.parametrize(
    "tol", [True, 0.5, -1.0, np.nan, "1e-12", None],
    ids=["true", "0.5", "-1.0", "nan", "string", "missing"],
)
def test_stored_series_tol_cannot_move_the_chart(href, tol):
    # documents from before the chart was its map alone carry a Bottcher
    # tolerance; whatever it reads, psi_tilde and annulus_coordinate on the
    # loaded chart are the fresh chart's, bit for bit (a loose tolerance
    # would move zeta at (0.3, 40) by 1e-4)
    fresh = build_chart(href)
    doc = json.loads(json.dumps(chart_to_dict(fresh)))
    doc.pop("series_tol", None)
    if tol is not None:
        doc["series_tol"] = tol
    loaded = chart_from_dict(json.loads(json.dumps(doc)))
    rng = np.random.default_rng(71)
    for z in [Point(0.3, 40.0)] + _chart_points(fresh, 6, rng):
        assert psi_tilde(loaded, z) == psi_tilde(fresh, z)
    # and at escaping points, two of which the region absorbs only after pushes
    for z in (Point(0.3, 40.0), Point(1.5, 2.5 + 0.5j), Point(-2.0j, 3.0)):
        assert annulus_coordinate(loaded, z) == annulus_coordinate(fresh, z)


def _href_map(**edits):
    """The reference quadratic's chart map, p and a edited."""
    return {"factors": [{"p": [[-1.1, 0], [0, 0], [1, 0]], "a": [0.8, 0], **edits}]}


@pytest.mark.parametrize(
    "key, value, message",
    [("map", None, None), ("map", {"factors": [{"p": [[1, 0]]}]}, None), ("region", None, None),
     ("region", [2.0], None), ("t", None, None), ("Mtilde", None, None),
     ("Q", None, None), ("Q", "x", None),
     # plain numbers are complexes, just not the table's Q
     ("Q", [1.0, 2.0], "Q is not the table's"),
     ("map", _href_map(p=[[-1.1, 0], [0, 0], [True, False]]), None),
     ("map", _href_map(p=[[-1.1, 0, 99], [0, 0], [1, 0]]), None),
     ("map", _href_map(p=[[np.nan, 0], [0, 0], [1, 0]]), None),
     ("map", _href_map(a=[np.inf, 0]), None),
     ("map", _href_map(p=[[-1.1, 0], [0, 0], [2, 0]]), None)],
    ids=["map-missing", "map-no-a", "region-missing", "region-list", "t-missing",
         "Mtilde-missing", "Q-missing", "Q-string", "Q-numbers", "map-bool-pair",
         "map-three-element-pair", "map-nan", "map-inf", "map-not-monic"],
)
def test_chart_from_dict_names_a_missing_or_malformed_key(href_chart, key, value, message):
    doc = json.loads(json.dumps(chart_to_dict(href_chart)))
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=message or f"'{key}'"):
        chart_from_dict(doc)


@pytest.mark.parametrize("scale", [1.0, 10.0, 1e40])
def test_chart_from_dict_ignores_stored_qminus_samples(href_chart, scale):
    # documents from before R came from the series carry the Q^- circle:
    # its radius and its samples of Qtilde - Q.  Scaled or not, they load
    # to the freshly built chart
    doc = json.loads(json.dumps(chart_to_dict(href_chart)))
    n, rho = href_chart.meta["circle_samples"], 1.25 * href_chart.inner_radius
    zk = rho * np.exp(2j * np.pi * np.arange(n) / n)
    g = scale * (cover._qtilde_batch(href_chart, zk) - href_chart.Q(zk))
    doc["qminus_rho"], doc["qminus_samples"] = rho, np.stack([g.real, g.imag], axis=1).tolist()
    loaded = chart_from_dict(doc)
    for name in ("H", "Q", "Mtilde", "t", "meta"):
        assert getattr(loaded, name) == getattr(href_chart, name)
    zeta = 2.5 * href_chart.inner_radius * np.exp(0.3j)
    assert r_series(loaded, zeta) == r_series(href_chart, zeta)


@pytest.mark.parametrize(
    "path, scale",
    [("region.M", 0.5), ("region.M", 2.0), ("region.R", 1.25), ("t", 0.5),
     ("Mtilde", 0.5), ("Mtilde", 2.0)],
)
def test_chart_from_dict_refuses_a_value_the_map_does_not_fix(href_chart, path, scale):
    # the region, t and Mtilde are derived from the map; a document that
    # stores any other value is refused rather than loaded onto a domain no
    # proof covers
    doc = json.loads(json.dumps(chart_to_dict(href_chart)))
    name, _, sub = path.partition(".")
    entry, key = (doc[name], sub) if sub else (doc, name)
    entry[key] *= scale
    with pytest.raises(ValueError, match=name):
        chart_from_dict(doc)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_chart_from_dict_refuses_a_q_that_is_not_the_tables(name, request):
    # R comes from the table, so a Q off the table's by a relative 1e-6 in
    # its leading coefficient would pair the model with another map's tail
    chart = request.getfixturevalue(f"{name}_chart")
    doc = json.loads(json.dumps(chart_to_dict(chart)))
    doc["Q"][-1] = [v * (1 + 1e-6) for v in doc["Q"][-1]]
    with pytest.raises(ValueError, match="Q is not the table's"):
        chart_from_dict(doc)
    doc["Q"] = doc["Q"][:-1]
    with pytest.raises(ValueError, match="Q is not the table's"):
        chart_from_dict(doc)


def test_chart_is_frozen(href_chart):
    assert [f.name for f in dataclasses.fields(cover.CoverChart)] == ["H"]
    for name, value in (("Q", href_chart.Q), ("Mtilde", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(href_chart, name, value)


def test_cover_point_validates():
    with pytest.raises(ValueError):
        CoverPoint(0.0, 0.5)
