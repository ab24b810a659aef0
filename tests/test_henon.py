import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    DegreeTooLow,
    NonFinite,
    NotMonic,
    Point,
    ZeroJacobianFactor,
    apply,
    apply_inverse,
    iterate,
    make_henon,
)
from henoncover.henon import (
    ComplexPolynomial,
    apply_inverse_xy,
    apply_xy,
    backward_conjugate,
    component_polynomials,
    first_component_axis_poly,
    inverse_leading_constant,
    second_component_correction,
)
from henoncover.verification import check_green_functorial

from strategies import henon_maps


def test_simple_quadratic_degrees():
    H = make_henon([([0, 0, 1], 1.0)])
    assert (H.d, H.d_prime, H.jacobian) == (2, 1, 1.0)


def test_two_factor_degrees():
    H = make_henon([([0, 0, 1], 1.0), ([0, 0, 0, 1], 1.0)])
    assert (H.d, H.d_prime) == (6, 2)
    assert H.jacobian == 1.0


def test_jacobian_is_product():
    H = make_henon([([0, 0, 1], 0.5), ([0, 0, 1], -2.0j)])
    assert H.jacobian == 0.5 * (-2.0j)


def test_equal_maps_hash_alike():
    # the hash is taken once from the factors; lru_cache lookups rely on
    # it agreeing with equality, also across a pickle round trip
    H = make_henon([([-0.1, 0, 1], 1.0), ([0.05, 0, 1], 0.9)])
    K = make_henon([([-0.1, 0, 1], 1.0), ([0.05, 0, 1], 0.9)])
    assert H == K and hash(H) == hash(K) and {H: 1}[K] == 1
    assert H != make_henon([([-0.1, 0, 1], 1.0), ([0.05, 0, 1], 0.8)])
    assert hash(pickle.loads(pickle.dumps(H))) == hash(H)


def test_degree_too_low():
    with pytest.raises(DegreeTooLow) as exc:
        make_henon([([0, 1], 1.0)])
    assert exc.value.factor_index == 0


def test_not_monic():
    with pytest.raises(NotMonic) as exc:
        make_henon([([0, 0, 1], 1.0), ([0, 0, 2.0], 1.0)])
    assert exc.value.factor_index == 1


def test_zero_jacobian_factor():
    with pytest.raises(ZeroJacobianFactor):
        make_henon([([0, 0, 1], 0.0)])


def test_apply_simple():
    H = make_henon([([0, 0, 1], 1.0)])
    assert apply(H, Point(1, 2)) == Point(2, 3)
    assert apply(H, Point(0, 0)) == Point(0, 0)


def test_apply_two_factors_composes_in_order():
    H = make_henon([([0, 0, 1], 1.0), ([0, 0, 1], 1.0)])
    # H2(H1(0,1)) = H2(1, 1) = (1, 0)
    assert apply(H, Point(0, 1)) == Point(1, 0)


def test_inverse_closed_form():
    H = make_henon([([0, 0, 1], 2.0)])
    assert apply_inverse(H, Point(2, 3)) == Point((4 - 3) / 2, 2)


def test_inverse_roundtrip(rng, href):
    for _ in range(100):
        z = Point(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        w = apply_inverse(href, apply(href, z))
        v = apply(href, apply_inverse(href, z))
        scale = max(1.0, abs(z.x), abs(z.y))
        assert abs(w.x - z.x) + abs(w.y - z.y) <= 1e-12 * scale
        assert abs(v.x - z.x) + abs(v.y - z.y) <= 1e-12 * scale


def test_iterate_zero_and_two(href):
    z = Point(0.3, 0.4)
    assert iterate(href, z, 0) == z
    assert iterate(href, z, 2) == apply(href, apply(href, z))


def test_iterate_roundtrip_on_bounded_orbit(href):
    z = Point(0.1, 0.2)
    w = iterate(href, iterate(href, z, 3), -3)
    assert abs(w.x - z.x) + abs(w.y - z.y) <= 1e-12


def test_iterate_nonfinite_reports_step():
    H = make_henon([([0, 0, 1], 1.0)])
    with pytest.raises(NonFinite) as exc:
        iterate(H, Point(0, 1e200), 5)
    assert exc.value.step >= 1


def test_apply_matches_symbolic_expansion(rng, htwo):
    p1, p2 = component_polynomials(htwo)
    for _ in range(20):
        z = Point(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        w = apply(htwo, z)
        e1 = p1(z.x, z.y)
        e2 = p2(z.x, z.y)
        scale = max(1.0, abs(w.x), abs(w.y))
        assert abs(w.x - e1) / scale <= 1e-12
        assert abs(w.y - e2) / scale <= 1e-12


def test_axis_polynomial_monic_of_subdegree(htwo):
    p1 = first_component_axis_poly(htwo)
    assert p1.degree == htwo.d_prime
    assert p1.coeffs[-1] == 1.0


def test_correction_polynomial_strips_top_power(href):
    q = second_component_correction(href)
    # q(x, y) = -0.8 x - 1.1 for the reference map
    assert abs(q(3.0, 5.0) - (-0.8 * 3.0 - 1.1)) <= 1e-14
    assert q.total_degree() <= href.d - 1


def test_inverse_leading_constant(rng, htwo):
    kappa = inverse_leading_constant(htwo)
    # pi_1(H^{-1}(x, y)) ~ x^d / kappa for large |x|
    x = 1e7 * np.exp(0.3j)
    z = apply_inverse(htwo, Point(x, 1.0))
    ratio = z.x * kappa / x**htwo.d
    assert abs(ratio - 1.0) <= 1e-5


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps, st.integers(0, 2**32 - 1))
def test_backward_conjugate_is_monic_conjugate_of_inverse(H, seed):
    K, alpha, beta = backward_conjugate(H)
    # factors h_m, ..., h_1: monic, of the degrees of H's factors reversed
    assert [f.p.degree for f in K.factors] == [f.p.degree for f in H.factors[::-1]]
    assert all(f.p.coeffs[-1] == 1 for f in K.factors)
    assert abs(K.jacobian * H.jacobian - 1.0) <= 1e-12
    # D K D^-1 = s H^-1 s with the swap s and D = diag(alpha, beta)
    rng = np.random.default_rng(seed)
    x, y = 2.0 * rng.uniform(0, 1, (2, 60)) * np.exp(2j * np.pi * rng.uniform(size=(2, 60)))
    kx, ky = apply_xy(K, x / alpha, y / beta)
    hy, hx = apply_inverse_xy(H, y, x)
    scale = np.maximum(1.0, np.maximum(np.abs(hx), np.abs(hy)))
    assert np.all(np.maximum(np.abs(alpha * kx - hx), np.abs(beta * ky - hy)) <= 1e-12 * scale)
    # G- = G+ of K obeys the functorial law of H^-1
    assert check_green_functorial(H, n=20, seed=seed, forward=False)["passed"]


def textbook_horner(p: ComplexPolynomial, y):
    acc = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = acc * y + c
    return acc


@pytest.mark.parametrize(
    "coeffs",
    [
        [-1.1, 0, 1],  # monic, a zero coefficient
        [0, 0, 0, 1],  # monic, every lower coefficient zero
        [0.05 - 0.3j, 1.5, -2j, 1],  # monic, no zero
        [0, 2.5 + 1j, 0, -0.75j],  # not monic, zero constant
        [3.0],  # a constant
        [0, 1],  # the identity
    ],
)
def test_polynomial_call_matches_textbook_horner(coeffs, rng):
    p = ComplexPolynomial(tuple(coeffs))
    y = 3.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    y[:4] = [0.0, -0.0, 1.0, -2.5]  # zeros and real points
    for q in (p, p.derivative(), p.derivative().derivative()):
        # equal as floats, -0.0 == 0.0: the lean loop may differ from the
        # textbook one only in the sign of a zero
        assert np.array_equal(q(y), textbook_horner(q, y))
        for v in y[:20]:
            got, want = q(complex(v)), textbook_horner(q, complex(v))
            assert got == want and type(got) is type(want)
