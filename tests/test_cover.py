import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    psi_integral,
    psi_tilde,
    psi_tilde_inverse,
    r_series,
    save_chart,
)
from henoncover import boettcher, cover
from henoncover.boettcher import dlambda_dy_vec, lambda_inverse
from henoncover.cover import (
    _INNER_TOL,
    BudgetExceeded,
    OutsideChartDomain,
    Overflow,
    SegmentOutsideRegion,
    _qminus_eval,
    _r_series_bound,
    chart_from_dict,
    chart_to_dict,
    in_absorbing_region,
)
from henoncover.verification import (
    check_chart_semiconjugacy,
    check_covering_map,
    check_deck,
    check_deck_additivity,
    check_r_series,
)
from strategies import henon_maps


def sample_domain_points(chart, rng, n, depth=(1.0, 4.0)):
    out = []
    for _ in range(n):
        y = (
            2.0 * chart.inner_radius
            * rng.uniform(*depth)
            * np.exp(2j * np.pi * rng.uniform())
        )
        x = (
            rng.uniform(0, abs(y) / (3.0 * chart.region.M))
            * np.exp(2j * np.pi * rng.uniform())
        )
        out.append(Point(x, y))
    return out


# ---------------------------------------------------------------------------
# psi quadrature

def test_psi_vanishes_at_zero(href, href_region):
    for y in (50.0, 200.0 * np.exp(0.5j)):
        assert psi_integral(href, href_region, 0.0, y) == 0.0


def test_psi_close_to_product(rng, href, href_region):
    eps = 0.035
    M, R = href_region.M, href_region.R.R
    for _ in range(20):
        y = M * R * rng.uniform(2.0, 10.0) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0.1, 0.9) * abs(y) / M * np.exp(2j * np.pi * rng.uniform())
        val = psi_integral(href, href_region, x, y)
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
        val = psi_integral(H, region, x, w)
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
    region = certify_region(H)
    X, W = bidisc_points(region, np.random.default_rng(seed), n)
    psi, slope, lam = cover._series_eval(H, region, X, W)
    for x, w, v in zip(X, W, psi):
        ref = psi_integral(H, region, x, w)
        assert abs(v - ref) <= 8 * EPS * max(abs(ref), 1.0)
    ref_slope, ok, _ = dlambda_dy_vec(H, X, W, _INNER_TOL)
    ref_lam, ok2 = boettcher.lambda_vec(H, X, W, 1e-14)
    assert ok.all() and ok2.all()
    assert np.all(np.abs(slope - ref_slope) <= 8 * EPS * np.abs(ref_slope))
    assert np.all(np.abs(lam - ref_lam) <= 64 * EPS * np.abs(ref_lam))
    assert cover._series_table(H, region)[1] <= 1e-12


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_series_table_matches_solvers(name, request):
    assert_table_matches_solvers(request.getfixturevalue(name), 71, 40)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_series_table_matches_solvers_on_random_maps(H, seed):
    assert_table_matches_solvers(H, seed, 12)


def test_series_table_is_built_once_per_map(href, href_region, monkeypatch):
    # one batched solve over the whole torus, then no solve per point
    cover._series_table.cache_clear()
    sizes = []

    def counted(H, x, w, tol=1e-12):
        sizes.append(np.size(x))
        return dlambda_dy_vec(H, x, w, tol)

    monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    X, W = bidisc_points(href_region, np.random.default_rng(5), 8)
    for x, w in zip(X, W):
        cover._series_eval(href, href_region, [x], [w])
    assert sizes == [cover._TORUS_N**2]


def test_psi_end_slope_is_integrand_at_segment_end(rng, href, href_region):
    # d psi/dx at the segment end is y times the table's slope: the Cauchy
    # mean of psi on a circle of 32 points about x is exact to rounding for
    # the table's psi, a polynomial of degree K + 1 < 32 in x
    M, R = href_region.M, href_region.R.R
    for _ in range(8):
        w = M * R / 0.6 * rng.uniform(1.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
        x = 0.5 * rng.uniform(0.1, 1.0) * abs(w) / M * np.exp(2j * np.pi * rng.uniform())
        r = 0.1 * abs(w) / M
        e = np.exp(2j * np.pi * np.arange(32) / 32)
        psi, _, _ = cover._series_eval(href, href_region, x + r * e, np.full(32, w))
        dpsi = np.mean(psi / e) / r
        _, slope, _ = cover._series_eval(href, href_region, [x], [w])
        assert abs(dpsi - w * slope[0]) <= 64 * EPS * abs(w)


def test_chart_records_series_tail(href, href_chart, htwo_chart, hcubic_chart, monkeypatch):
    # every fixture table decays to rounding in its top half; a torus too
    # coarse for href trips the guard and no chart is built
    for c in (href_chart, htwo_chart, hcubic_chart):
        assert c.meta["series_tail"] == cover._series_table(c.H, c.region)[1] <= 1e-12
    cover._series_table.cache_clear()
    monkeypatch.setattr(cover, "_TORUS_N", 8)
    try:
        with pytest.raises(cover.DecayFailed, match="series table tail"):
            build_chart(href)
    finally:
        cover._series_table.cache_clear()


def test_psi_tilde_outside_series_bidisc(href, href_chart):
    # points of W+_M just outside M*max(|x|, R) <= 0.6|phi|, in x and in y
    M, R = href_chart.region.M, href_chart.region.R.R
    y = 40.0 * M * R * np.exp(0.3j)
    for frac, inside in ((0.59, True), (0.61, False)):
        z = Point(frac * abs(y) / M * np.exp(1.1j), y)
        phi = bottcher_phi(href, z, href_chart.series_tol)
        assert (0.6 * abs(phi) >= M * abs(z.x)) == inside
        if inside:
            psi_tilde(href_chart, z)
        else:
            with pytest.raises(OutsideChartDomain):
                psi_tilde(href_chart, z)
    z = Point(0.0, 1.5 * M * R)
    assert abs(bottcher_phi(href, z, href_chart.series_tol)) < M * R / 0.6
    with pytest.raises(OutsideChartDomain):
        psi_tilde(href_chart, z)


def test_inverse_newton_takes_no_separate_slope_solve(monkeypatch, href_chart):
    # the Newton of an inversion takes d(lambda)/dy from the table: the one
    # dlambda_dy_vec call is the batched torus solve that builds the table
    calls = []

    def counted(H, x, w, tol=1e-12):
        calls.append(np.size(x))
        return dlambda_dy_vec(H, x, w, tol)

    cover._series_table.cache_clear()
    monkeypatch.setattr(cover, "dlambda_dy_vec", counted)
    zeta = href_chart.Mtilde * 1.5 * np.exp(0.4j)
    psi_tilde_inverse(href_chart, CoverPoint(0.1 * href_chart.t * abs(zeta) ** 2, zeta))
    assert calls == [cover._TORUS_N**2]


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_inverse_y_is_the_end_node_lambda(name, request, monkeypatch):
    # y is lambda at the end node (x, y) of the psi segment, read from the
    # table: on a built chart psi_tilde_inverse runs no lambda solve and no
    # phi series, and y matches a fresh lambda solve
    chart = request.getfixturevalue(f"{name}_chart")
    cover._series_table(chart.H, chart.region)

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
        ref = lambda_inverse(chart.H, pt.x, zeta, chart.region)
        assert abs(pt.y - ref) <= 1e-12 * abs(ref)


def test_psi_segment_outside_region(href, href_region):
    M, R = href_region.M, href_region.R.R
    with pytest.raises(SegmentOutsideRegion):
        psi_integral(href, href_region, 2.0 * M * R, M * R)
    # the table: the series bidisc M*max(|x|, R) <= 0.6|y|, in x and in y
    w = 4.0 * M * R
    cover._series_eval(href, href_region, [0.6 * w / M], [w])
    for x, y in ((0.61 * w / M, w), (0.0, 0.99 * M * R / 0.6)):
        with pytest.raises(SegmentOutsideRegion):
            cover._series_eval(href, href_region, [x], [y])


# ---------------------------------------------------------------------------
# chart structure

def test_chart_q_degree_and_monicity(href, href_chart):
    assert href_chart.Q.degree == href.d + href.d_prime == 3
    assert abs(href_chart.Q.coeffs[-1] - 1.0) <= 1e-6
    assert href_chart.meta["two_radius_agreement"] <= 1e-7
    assert href_chart.meta["decay_max"] <= 1e-6 * href_chart.rho**3


def test_chart_radii_and_aspect(href_chart):
    M, R = href_chart.region.M, href_chart.region.R.R
    assert href_chart.rho >= 2.0 * M * R
    assert href_chart.Mtilde >= 2.0 * M * R
    assert href_chart.t == 1.0 / (4.0 * M)


def test_two_factor_chart_degree(htwo, htwo_chart):
    assert htwo_chart.Q.degree == htwo.d + htwo.d_prime == 6
    assert abs(htwo_chart.Q.coeffs[-1] - 1.0) <= 1e-6
    assert htwo_chart.meta["two_radius_agreement"] <= 1e-7


def test_two_factor_semiconjugacy_and_covering(rng, htwo, htwo_chart):
    for z in sample_domain_points(htwo_chart, rng, 10, depth=(1.0, 2.5)):
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

def test_series_identity(rng, href, href_chart):
    assert check_r_series(href, href_chart, n=50, seed=rng)["passed"]


def test_qminus_nodes_built_once_per_chart(htwo_chart, rng):
    chart = chart_from_dict(json.loads(json.dumps(chart_to_dict(htwo_chart))))
    n = chart.qminus_samples.size
    zk = chart.qminus_rho * np.exp(1j * 2.0 * np.pi * np.arange(n) / n)
    for _ in range(20):
        w = 1.5 * chart.inner_radius * rng.uniform(1.0, 4.0) * np.exp(2j * np.pi * rng.uniform())
        # the exterior Cauchy sum as it was written before the nodes were kept
        want = complex(-(chart.qminus_samples * zk / (zk - w)).mean())
        assert _qminus_eval(chart, w) == want == _qminus_eval(htwo_chart, w)
    assert chart._qminus_nodes is chart._qminus_nodes


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_series_bound_on_absorbing_region(name, request):
    chart = request.getfixturevalue(f"{name}_chart")
    bound = _r_series_bound(chart, chart.Mtilde)
    for radial in (1.0, 1.5, 3.0):
        r = chart.Mtilde * radial
        for k in range(32):
            val = abs(r_series(chart, r * np.exp(2j * np.pi * k / 32)))
            assert val <= bound
            assert val < chart.t * r**2


def test_series_truncation_stability(rng, href_chart):
    for _ in range(10):
        z = (
            2.0 * href_chart.inner_radius
            * rng.uniform(1.0, 2.0)
            * np.exp(2j * np.pi * rng.uniform())
        )
        v1 = r_series(href_chart, z)
        v2 = r_series(href_chart, z, tol=href_chart.series_tol * 1e-2)
        assert abs(v1 - v2) < href_chart.series_tol


def test_series_requires_inner_radius(href_chart):
    with pytest.raises(OutsideChartDomain):
        r_series(href_chart, 0.5 * href_chart.inner_radius)


# ---------------------------------------------------------------------------
# the chart map and its inverse

def test_psi_tilde_second_coordinate_is_phi(rng, href, href_chart):
    for z in sample_domain_points(href_chart, rng, 10):
        w = psi_tilde(href_chart, z)
        assert w.zeta == bottcher_phi(href, z, href_chart.series_tol)


def test_psi_tilde_modulus_is_green(rng, href, href_chart):
    for z in sample_domain_points(href_chart, rng, 20):
        w = psi_tilde(href_chart, z)
        g = green_plus(href, z)
        assert abs(abs(w.zeta) - np.exp(g.value)) <= 1e-8 * np.exp(g.value)


def test_round_trip_through_inverse(rng, href, href_chart):
    count = 0
    for z in sample_domain_points(href_chart, rng, 80, depth=(2.0, 6.0)):
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


def test_semiconjugacy(rng, href, href_chart):
    assert check_chart_semiconjugacy(href, href_chart, n=50, seed=rng)["passed"]


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


def test_deck_label_reduction():
    assert DeckLabel.reduced(4, 2, 2) == DeckLabel(0, 0)
    # [6/4] = [3/2] = [1/2] modulo Z
    assert DeckLabel.reduced(6, 2, 2) == DeckLabel(1, 1)
    assert DeckLabel.reduced(-1, 2, 2) == DeckLabel(3, 2)
    assert DeckLabel.reduced(13, 2, 3) == DeckLabel(4, 2)


def test_deck_relation_with_lift(rng, href, href_chart):
    assert check_deck(href, href_chart, pts=20, seed=rng)["passed"]


def test_deck_additivity(rng, href, href_chart):
    assert check_deck_additivity(href, href_chart, seed=rng, levels=2)["passed"]


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


def test_covering_map_equivariance(rng, href, href_chart):
    # the record covers both pi(lift_H(w)) = H(pi(w)) and fiber invariance
    assert check_covering_map(href, href_chart, n=15, budget=20, seed=rng)["passed"]


def test_covering_map_budget_exceeded(href_chart):
    w = CoverPoint(0.0, 1.0000001)
    with pytest.raises(BudgetExceeded):
        covering_map(href_chart, w, 2)


# ---------------------------------------------------------------------------
# persistence

def test_chart_json_round_trip(tmp_path, rng, href, href_chart):
    path = tmp_path / "chart.json"
    save_chart(href_chart, path)
    loaded = load_chart(path)
    assert loaded.Q.coeffs == href_chart.Q.coeffs
    assert loaded.qminus_samples.tobytes() == href_chart.qminus_samples.tobytes()
    for field in ("H", "region", "rho", "qminus_rho", "series_tol", "Mtilde", "t", "meta"):
        assert getattr(loaded, field) == getattr(href_chart, field), field
    zeta = 1.7 * np.exp(0.23j)
    w = CoverPoint(0.4 - 0.1j, zeta)
    assert lift_H(loaded, w) == lift_H(href_chart, w)
    assert deck(loaded, DeckLabel.reduced(1, 2, 2), w) == deck(
        href_chart, DeckLabel.reduced(1, 2, 2), w
    )
    z_big = 2.5 * href_chart.inner_radius
    assert r_series(loaded, z_big) == r_series(href_chart, z_big)
    z = sample_domain_points(href_chart, rng, 1)[0]
    # the series table is rebuilt from H and the region, bit for bit
    w2 = psi_tilde(href_chart, z)
    cover._series_table.cache_clear()
    assert psi_tilde(loaded, z) == w2


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
    # and sample counts; they load to the same chart, meta kept as stored
    old = json.loads(text)
    old["region"].update(epsilon=0.03558, samples=1400)
    old["meta"]["mtilde_certification_samples"] = 384
    loaded = chart_from_dict(old)
    for name in ("H", "region", "Q", "rho", "qminus_rho", "series_tol", "Mtilde", "t"):
        assert getattr(loaded, name) == getattr(href_chart, name)
    assert np.array_equal(loaded.qminus_samples, href_chart.qminus_samples)
    assert loaded.meta == old["meta"]


def test_cover_point_validates():
    with pytest.raises(ValueError):
        CoverPoint(0.0, 0.5)
