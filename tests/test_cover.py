import json

import numpy as np
import pytest

from henoncover import (
    CoverPoint,
    DeckLabel,
    Point,
    apply,
    bottcher_phi,
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
from henoncover.cover import (
    BudgetExceeded,
    OutsideChartDomain,
    Overflow,
    SegmentOutsideRegion,
    _qminus_eval,
    chart_from_dict,
    chart_to_dict,
    in_absorbing_region,
)


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
    eps = href_region.epsilon
    M, R = href_region.M, href_region.R.R
    for _ in range(20):
        y = M * R * rng.uniform(2.0, 10.0) * np.exp(2j * np.pi * rng.uniform())
        x = rng.uniform(0.1, 0.9) * abs(y) / M * np.exp(2j * np.pi * rng.uniform())
        val = psi_integral(href, href_region, x, y)
        assert abs(val - x * y) <= eps * abs(x) * abs(y)


def test_psi_stable_under_tightening(rng, href, href_region):
    M, R = href_region.M, href_region.R.R
    for _ in range(10):
        y = M * R * rng.uniform(2.0, 6.0) * np.exp(2j * np.pi * rng.uniform())
        x = 0.5 * abs(y) / M * np.exp(2j * np.pi * rng.uniform())
        v1 = psi_integral(href, href_region, x, y, tol=1e-11)
        v2 = psi_integral(href, href_region, x, y, tol=1e-13)
        assert abs(v1 - v2) <= 1e-9 * abs(v2)


def test_psi_segment_outside_region(href, href_region):
    M, R = href_region.M, href_region.R.R
    with pytest.raises(SegmentOutsideRegion):
        psi_integral(href, href_region, 2.0 * M * R, M * R)


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
    for _ in range(50):
        z = (
            2.0 * href_chart.inner_radius
            * rng.uniform(1.0, 3.0)
            * np.exp(2j * np.pi * rng.uniform())
        )
        lhs = (href.jacobian / href.d) * r_series(href_chart, z) - r_series(
            href_chart, z**href.d
        )
        assert abs(lhs - _qminus_eval(href_chart, z)) <= 1e-8


def test_series_bound_on_absorbing_region(href_chart):
    M = href_chart.region.M
    for radial in (1.0, 1.5, 3.0):
        r = href_chart.Mtilde * radial
        for k in range(32):
            z = r * np.exp(2j * np.pi * k / 32)
            assert abs(r_series(href_chart, z)) < r**2 / (4.0 * M)


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
    for z in sample_domain_points(href_chart, rng, 50):
        w1 = psi_tilde(href_chart, apply(href, z))
        w2 = lift_H(href_chart, psi_tilde(href_chart, z))
        assert abs(w1.z - w2.z) <= 1e-6 * max(1.0, abs(w2.z))
        assert abs(w1.zeta - w2.zeta) <= 1e-6 * max(1.0, abs(w2.zeta))


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
    d = href.d
    for n in (1, 2, 3):
        for k in range(1, d**n):
            for _ in range(20):
                zeta = rng.uniform(1.2, 2.5) * np.exp(2j * np.pi * rng.uniform())
                w = CoverPoint(complex(*rng.normal(size=2)), zeta)
                l1 = lift_H(href_chart, deck(href_chart, DeckLabel.reduced(k, n, d), w))
                l2 = deck(
                    href_chart, DeckLabel.reduced(k, n - 1, d), lift_H(href_chart, w)
                )
                assert abs(l1.z - l2.z) <= 1e-10 * max(1.0, abs(l2.z))
                assert abs(l1.zeta - l2.zeta) <= 1e-10 * max(1.0, abs(l2.zeta))


def test_deck_additivity(rng, href, href_chart):
    d = href.d
    for n in (1, 2):
        for k1 in range(d**n):
            for k2 in range(d**n):
                zeta = rng.uniform(1.2, 2.2) * np.exp(2j * np.pi * rng.uniform())
                w = CoverPoint(complex(*rng.normal(size=2)), zeta)
                l1 = deck(
                    href_chart,
                    DeckLabel.reduced(k1, n, d),
                    deck(href_chart, DeckLabel.reduced(k2, n, d), w),
                )
                l2 = deck(href_chart, DeckLabel.reduced(k1 + k2, n, d), w)
                assert abs(l1.z - l2.z) <= 1e-10 * max(1.0, abs(l2.z))
                assert abs(l1.zeta - l2.zeta) <= 1e-10 * max(1.0, abs(l2.zeta))


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
    for _ in range(15):
        zeta = rng.uniform(1.15, 2.0) * np.exp(2j * np.pi * rng.uniform())
        w = CoverPoint(0.4 * complex(*rng.normal(size=2)), zeta)
        p1 = covering_map(href_chart, lift_H(href_chart, w), 20)
        p2 = apply(href, covering_map(href_chart, w, 20))
        scale = max(1.0, abs(p2.x), abs(p2.y))
        assert max(abs(p1.x - p2.x), abs(p1.y - p2.y)) <= 1e-6 * scale


def test_covering_map_fiber_invariance(rng, href, href_chart):
    for _ in range(15):
        zeta = rng.uniform(1.15, 2.0) * np.exp(2j * np.pi * rng.uniform())
        w = CoverPoint(0.4 * complex(*rng.normal(size=2)), zeta)
        q1 = covering_map(
            href_chart, deck(href_chart, DeckLabel.reduced(1, 1, href.d), w), 20
        )
        q2 = covering_map(href_chart, w, 20)
        scale = max(1.0, abs(q2.x), abs(q2.y))
        assert max(abs(q1.x - q2.x), abs(q1.y - q2.y)) <= 1e-6 * scale


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
    assert loaded.Mtilde == href_chart.Mtilde
    zeta = 1.7 * np.exp(0.23j)
    w = CoverPoint(0.4 - 0.1j, zeta)
    assert lift_H(loaded, w) == lift_H(href_chart, w)
    assert deck(loaded, DeckLabel.reduced(1, 2, 2), w) == deck(
        href_chart, DeckLabel.reduced(1, 2, 2), w
    )
    z_big = 2.5 * href_chart.inner_radius
    assert r_series(loaded, z_big) == r_series(href_chart, z_big)
    z = sample_domain_points(href_chart, rng, 1)[0]
    w1, w2 = psi_tilde(loaded, z), psi_tilde(href_chart, z)
    assert abs(w1.z - w2.z) <= 1e-12 * max(1.0, abs(w2.z))
    assert w1.zeta == w2.zeta


def test_chart_dict_format(href_chart):
    doc = chart_to_dict(href_chart)
    assert doc["format"] == "henoncover-chart-v1"
    text = json.dumps(doc)
    again = chart_from_dict(json.loads(text))
    assert again.Q.coeffs == href_chart.Q.coeffs
    # charts saved with a sampled radius carry its sample count; it is ignored
    doc["region"]["R_samples"] = 4096
    assert chart_from_dict(doc).region == href_chart.region


def test_cover_point_validates():
    with pytest.raises(ValueError):
        CoverPoint(0.0, 0.5)
