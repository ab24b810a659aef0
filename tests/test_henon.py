import dataclasses
import json
import math
import pickle

import numpy as np
from numpy.polynomial.polynomial import polyval2d
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    DegreeTooLow,
    HenonMap,
    NonFinite,
    NotMonic,
    Point,
    SimpleFactor,
    ZeroJacobianFactor,
    apply,
    apply_inverse,
    iterate,
    make_henon,
)
from henoncover.cli import parse_spec
from henoncover.cover import chart_from_dict, chart_to_dict
from henoncover.henon import (
    ComplexPolynomial,
    SpecError,
    _factors_json,
    apply_inverse_xy,
    apply_xy,
    backward_conjugate,
    component_polynomials,
    first_component_axis_poly,
    inverse_leading_constant,
    map_from_json,
    second_component_correction,
)
from henoncover.symmetry import find_affine_symmetries, report_from_dict, report_to_dict
from henoncover.verification import check_green_functorial_minus

from strategies import CORPUS_MAPS, henon_maps, spec_map


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


def factor(coeffs, a):
    return SimpleFactor(ComplexPolynomial(tuple(coeffs)), a)


@pytest.mark.parametrize(
    "factors, error, message",
    [
        ((), ValueError, "at least one factor required"),
        ((factor([0, 0, 1], 1.0), factor([0, 1], 1.0)), DegreeTooLow,
         "factor 1: polynomial degree 1 < 2"),
        ((factor([0, 0, 2.0], 1.0),), NotMonic, "factor 0: leading coefficient (2+0j) != 1"),
        ((factor([0, 0, 1], 0.5), factor([0, 0, 0, 1], 0j)), ZeroJacobianFactor, "factor 1: a = 0"),
        # the checks run factor by factor, each factor's in this order
        ((factor([0, 3.0], 0.0), factor([0, 0, 2.0], 0.0)), DegreeTooLow,
         "factor 0: polynomial degree 1 < 2"),
        ((factor([0, 0, 2.0], 0.0),), NotMonic, "factor 0: leading coefficient (2+0j) != 1"),
    ],
    ids=["empty", "degree", "monic", "jacobian", "first-factor-first", "monic-before-jacobian"],
)
def test_henon_map_is_the_gate(factors, error, message):
    # HenonMap itself refuses bad factors; make_henon only builds them
    with pytest.raises(error) as exc:
        HenonMap(factors)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", CORPUS_MAPS)
def test_derived_fields_are_the_factor_products(name):
    # factors is the one field; d, d' and the Jacobian are derived from it
    H = spec_map(name)
    assert [f.name for f in dataclasses.fields(HenonMap)] == ["factors"]
    degrees = [f.p.degree for f in H.factors]
    jacobian = complex(1.0)
    for f in H.factors:
        jacobian *= complex(f.a)
    assert (H.d, H.d_prime) == (math.prod(degrees), math.prod(degrees[:-1]))
    bits = lambda z: (z.real.hex(), z.imag.hex())
    assert type(H.jacobian) is complex and bits(H.jacobian) == bits(jacobian)
    assert H.is_real == all(c.imag == 0 for f in H.factors for c in (*f.p.coeffs, f.a))


def test_real_input_as_complex_builds_the_same_map():
    H = make_henon([([-0.1, 0, 1], 0.8), ([0.05, 0, 0, 1], -2.0)])
    K = make_henon([([-0.1 + 0j, 0j, 1 + 0j], 0.8 + 0j), ([0.05 + 0j, 0j, 0j, 1 + 0j], -2.0 + 0j)])
    assert H == K and hash(H) == hash(K) and H.is_real and K.is_real
    assert all(type(c) is float for f in K.factors for c in (*f.p.coeffs, f.a))
    C = make_henon([([-0.1, 0.2j, 1], 0.8)])
    assert not C.is_real and [type(c) for c in C.factors[0].p.coeffs] == [float, complex, float]


def complex_step(H, x, y):
    """One step of H with every coefficient an explicit complex constant: Horner
    from y under the leading 1, skipping zero coefficients, as ComplexPolynomial."""
    for f in H.factors:
        cs = [complex(c) for c in f.p.coeffs]
        acc = y
        for c in cs[-2:0:-1]:
            if c:
                acc = acc + c
            acc = acc * y
        x, y = y, (acc + cs[0] if cs[0] else acc) - complex(f.a) * x
    return x, y


@pytest.mark.parametrize("name", ["ref", "htwo", "cubic", "three", "six"])
def test_real_map_steps_floats_as_floats_and_complexes_as_with_complex_constants(name, rng):
    H = spec_map(name)
    assert H.is_real
    x, y = rng.normal(size=(2, 200))
    fx, fy = apply_xy(H, x, y)
    assert fx.dtype == fy.dtype == np.float64
    cx, cy = x + 1j * rng.normal(size=200), y - 1j * rng.normal(size=200)
    for got, want in zip(apply_xy(H, cx, cy), complex_step(H, cx, cy)):
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    bits = lambda z: (z.real.hex(), z.imag.hex())
    for u, v in zip(cx[:20].tolist() + x[:5].astype(complex).tolist(), cy[:20].tolist() + [0j] * 5):
        got, want = apply_xy(H, u, v), complex_step(H, u, v)
        assert [type(c) for c in got] == [complex, complex]
        assert list(map(bits, got)) == list(map(bits, want))


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
        e1 = polyval2d(z.x, z.y, p1.c)
        e2 = polyval2d(z.x, z.y, p2.c)
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
    assert abs(polyval2d(3.0, 5.0, q.c) - (-0.8 * 3.0 - 1.1)) <= 1e-14
    i, j = np.nonzero(q.trim().c)
    assert (i + j).max() <= href.d - 1  # total degree


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
    assert check_green_functorial_minus(H, n=20, seed=seed)["passed"]


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
    if len(coeffs) > 1 and not any(np.iscomplex(coeffs)):
        # real coefficients are stored as floats: float64 stays float64
        assert all(type(c) is float for c in p.coeffs)
        got, want = p(y.real), textbook_horner(p, y.real)
        assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)


def _assert_json_round_trip(H):
    # through the JSON text too, as a document stores it; float.hex tells
    # -0.0 from 0.0, so the coefficients come back bit for bit
    bits = lambda K: [x.hex() for f in K.factors for c in (*f.p.coeffs, f.a) for x in (c.real, c.imag)]
    for factors in (_factors_json(H), json.loads(json.dumps(_factors_json(H)))):
        K = map_from_json(factors)
        assert K == H and bits(K) == bits(H) and K.jacobian == H.jacobian


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_map_json_round_trip_is_exact(H):
    _assert_json_round_trip(H)


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_fixture_map_json_round_trip_is_exact(name, request):
    _assert_json_round_trip(request.getfixturevalue(name))


@pytest.mark.parametrize(
    "leaf",
    [True, "1", None, [1], [1, 2, 3], math.nan, math.inf, -math.inf, 10**400],
    ids=["true", "string", "null", "one-element", "three-element", "nan", "inf", "-inf", "1e400"],
)
@pytest.mark.parametrize("placed", ["alone", "real-part"])
def test_spec_chart_and_report_readers_refuse_the_same_leaves(href_chart, leaf, placed):
    # one reader of complexes: a spec's factors, a chart's map and Q and a
    # report's generators refuse a leaf alike, as the value or as its real part
    v = leaf if placed == "alone" else [leaf, 0]
    factors = _factors_json(href_chart.H)
    factors[0]["p"][0] = v
    with pytest.raises(SpecError, match=r"factors\[0\]\.p\[0\]"):
        parse_spec({"factors": factors})
    doc = chart_to_dict(href_chart)
    doc["map"]["factors"] = factors
    with pytest.raises(ValueError, match="'map'"):
        chart_from_dict(doc)
    doc = chart_to_dict(href_chart)
    doc["Q"][0] = v
    with pytest.raises(ValueError, match="'Q'"):
        chart_from_dict(doc)
    report = report_to_dict(find_affine_symmetries(href_chart.H))
    report["generators"][0]["f"] = v
    with pytest.raises(ValueError, match="'generators'"):
        report_from_dict(report)
