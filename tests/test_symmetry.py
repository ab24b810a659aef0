import cmath
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henoncover import (
    AffineMap,
    Point,
    commutes_with_power,
    compute_d0,
    find_affine_symmetries,
    green_minus,
    green_plus,
    make_henon,
    verify_cyclic,
)
from henoncover import symmetry
from henoncover.henon import BivariatePoly, apply_xy, component_polynomials
from henoncover.green import _step_rounding, escaping_samples
from henoncover.symmetry import (
    SymmetryReport,
    fixed_points,
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)
from henoncover.verification import brute_force_d0, symmetry_structure_record

from strategies import (
    CORPUS_MAPS,
    PLANTED_FAMILIES,
    henon_maps,
    planted_attracting_map,
    planted_symmetric_maps,
    spec_map,
)


def test_d0_paper_values():
    assert compute_d0(2, 1) == 3
    assert compute_d0(3, 1) == 4
    assert compute_d0(6, 2) == 1


def test_d0_divides_sum():
    for d in range(2, 20):
        for dp in range(1, d + 1):
            assert (d + dp) % compute_d0(d, dp) == 0


def test_d0_matches_brute_force():
    for d in range(2, 31):
        for dp in range(1, d + 1):
            assert compute_d0(d, dp) == brute_force_d0(d, dp)


def test_fixed_points_of_simple_quadratic():
    H = make_henon([([0, 0, 1], 1.0)])
    pts = fixed_points(H)
    # y = x and x^2 - 2x = 0
    got = sorted(round(p.x.real, 6) for p in pts)
    assert got == [0.0, 2.0]


def test_fixed_points_cubic(hcubic):
    pts = fixed_points(hcubic)
    assert len(pts) == 3
    s = (1 + 0.5) ** 0.5
    vals = sorted(round(p.x.real, 6) for p in pts)
    assert vals == [round(-s, 6), 0.0, round(s, 6)]


def test_fixed_points_keep_the_last_finite_iterate_of_an_overflowing_polish():
    # p(y) = y^3 + 1e110 y^2: H overflows at the fixed point near y = -1e110
    pts = fixed_points(spec_map("huge"))
    assert len(pts) == 3 and all(np.isfinite([p.x, p.y]).all() for p in pts)
    assert Point(0j, 0j) in pts
    assert min(abs(p.y + 1e110) for p in pts) <= 1e96


def assert_fixed_points(H):
    """fixed_points(H): d points, each fixed up to one float step's rounding."""
    pts = fixed_points(H)
    assert len(pts) == H.d
    for p in pts:
        hx, hy = apply_xy(H, p.x, p.y)
        assert max(abs(hx - p.x), abs(hy - p.y)) <= _step_rounding(
            H, max(abs(p.x), abs(p.y), 1.0)
        ), p
    return pts


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_fixed_points_count_and_residual_on_random_maps(H):
    assert_fixed_points(H)


def three_factor_map(rng):
    """Three monic factors of degree 2 or 3, coefficients and a of modulus in [1e-2, 1e2]."""
    factors = []
    for _ in range(3):
        deg = int(rng.integers(2, 4))
        cs = 10.0 ** rng.uniform(-2, 2, deg + 1) * np.exp(2j * np.pi * rng.uniform(size=deg + 1))
        factors.append((list(cs[:-1]) + [1.0], cs[-1]))
    return make_henon(factors)


def test_fixed_points_count_and_residual_on_three_factor_maps():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_fixed_points(make_henon([([-3, 0, 1], -3), ([-2, 0, 1], -3), ([5, 0, 1], 0.5)]))
        rng = np.random.default_rng(331)
        for _ in range(6):
            assert_fixed_points(three_factor_map(rng))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(henon_maps.filter(lambda H: len(H.factors) == 1))
def test_fixed_points_one_factor_vieta(H):
    # (y, y) is fixed iff p(y) - (1 + a) y = 0, monic of degree d: the
    # d values of y sum to minus its y^(d-1) coefficient
    pts = assert_fixed_points(H)
    (f,) = H.factors
    c = list(f.p.coeffs)
    c[1] -= 1 + f.a
    total = sum(p.y for p in pts)
    assert abs(total + c[-2]) <= 1e-9 * max(1.0, sum(abs(p.y) for p in pts))
    assert all(abs(p.x - p.y) <= 1e-9 * max(1.0, abs(p.y)) for p in pts)


def test_fixed_points_with_a1_minus_one():
    # a_1 = -1: the first relation is p_1(y) = 0, so y = +-2 and each is
    # shared by two points; then p_2(x) = x^2 - 1 = (1 + a_2) y = 1.5 y
    pts = assert_fixed_points(make_henon([([-4, 0, 1], -1.0), ([-1, 0, 1], 0.5)]))
    want = [(-2, 2), (-(2**0.5) * 1j, -2), (2**0.5 * 1j, -2), (2, 2)]
    for x, y in want:
        assert min(abs(p.x - x) + abs(p.y - y) for p in pts) <= 1e-12


def test_fixed_points_with_a1_a2_minus_one():
    # both relations decouple: p_1(y) = 0 and p_2(x) = 0
    pts = assert_fixed_points(make_henon([([-4, 0, 1], -1.0), ([-9, 0, 1], -1.0)]))
    got = sorted((round(p.x.real, 12), round(p.y.real, 12)) for p in pts)
    assert got == [(-3, -2), (-3, 2), (3, -2), (3, 2)]
    assert all(abs(p.x.imag) + abs(p.y.imag) <= 1e-12 for p in pts)


def test_fixed_points_at_a_saddle_node():
    # (y, y^2 + 1 - x): p(y) - 2y = (y - 1)^2, one fixed point of multiplicity 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = fixed_points(make_henon([([1, 0, 1], 1.0)]))
    assert len(pts) == 2
    assert all(abs(p.x - 1) + abs(p.y - 1) <= 1e-6 for p in pts)


def test_fixed_points_contain_the_planted_attracting_point():
    rng = np.random.default_rng(71)
    for _ in range(10):
        H, s = planted_attracting_map(rng)
        pts = assert_fixed_points(H)
        assert min(abs(p.x - s) + abs(p.y - s) for p in pts) <= 1e-12


def test_identity_commutes(href):
    ok, defect = commutes_with_power(href, AffineMap.identity(), 1)
    assert ok and defect == 0.0


def test_cubic_odd_symmetry_commutes(hcubic):
    ok, defect = commutes_with_power(hcubic, AffineMap(-1, 0, -1, 0), 1)
    assert ok and defect <= 1e-14


def test_generic_affine_fails_commutation_and_green(rng, href):
    L = AffineMap(1.3, 0.2, 0.7 + 0.1j, 0.0)
    ok, defect = commutes_with_power(href, L, 1)
    assert not ok and defect > 1e-3
    # Green-invariance oracle agrees: G+ is moved by L somewhere
    moved = 0.0
    checked = 0
    while checked < 40:
        z = Point(complex(*rng.uniform(-8, 8, 2)), complex(*rng.uniform(-8, 8, 2)))
        g = green_plus(href, z)
        if g.value <= 0.05:
            continue
        checked += 1
        g2 = green_plus(href, L(z))
        moved = max(moved, abs(g2.value - g.value))
    assert moved > 1e-3


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_commutation_defect_matches_horner_substitution(name, request, rng):
    # commutes_with_power substitutes L by binomial matrices; the reference
    # runs H^k on L's linear forms in the bivariate ring
    H = request.getfixturevalue(name)
    for k in (1, 2):
        for _ in range(3):
            z = rng.normal(size=4)
            L = AffineMap(cmath.exp(1j * z[0]), z[1] + 0.3j, cmath.exp(1j * z[2]), z[3])
            hx = BivariatePoly.var_x() * L.e + BivariatePoly.const(L.f)
            hy = BivariatePoly.var_y() * L.e_prime + BivariatePoly.const(L.f_prime)
            for _ in range(k):
                hx, hy = apply_xy(H, hx, hy)
            ref = 0.0
            for P, HL, s, t in zip(component_polynomials(H, k), (hx, hy), (L.e, L.e_prime), (L.f, L.f_prime)):
                a, b = (P * s + BivariatePoly.const(t))._padded_pair(HL)
                scale = max(1.0, abs(a).max(), abs(b).max())
                ref = max(ref, abs(a - b).max() / scale)
            assert abs(commutes_with_power(H, L, k)[1] - ref) <= 1e-14


def test_numeric_commutation_path(hcubic):
    # 3^4 = 81 exceeds the symbolic cap; there is no sampled fallback
    with pytest.raises(ValueError, match="symbolic cap"):
        commutes_with_power(hcubic, AffineMap(-1, 0, -1, 0), 4)


def test_find_symmetries_cubic(hcubic):
    # (w^3 x, w y) with w = e^(2 pi i / 8) commutes with H^2 exactly, so the
    # group reaches the bound (d + d')(d - 1) = 8; (-x, -y) is its square
    rep = find_affine_symmetries(hcubic)
    assert rep.order == 8
    w = cmath.exp(2j * cmath.pi / 8)
    generator = AffineMap(w**3, 0, w, 0)
    assert commutes_with_power(hcubic, generator, 2)[1] <= 1e-14
    assert not commutes_with_power(hcubic, generator, 1)[0]
    for L in (generator, AffineMap(-1, 0, -1, 0)):
        assert any(L.distance(g) <= 1e-12 for g in rep.generators)
    cyclic, order = verify_cyclic(rep)
    assert cyclic and order == 8
    assert rep.max_commutation_defect <= 1e-9


def test_find_symmetries_generic_quadratic():
    H = make_henon([([1 + 1j, 0, 1], 0.3)])
    rep = find_affine_symmetries(H)
    assert rep.order == 1
    assert rep.generators[0].is_identity()


def test_reference_map_has_no_symmetries(href):
    rep = find_affine_symmetries(href)
    assert rep.order == 1


def test_report_closure(hcubic):
    rep = find_affine_symmetries(hcubic)
    for a in rep.generators:
        for b in rep.generators:
            c = a.compose(b)
            assert any(c.distance(g) <= 1e-9 for g in rep.generators)


_T = 0.6
_C, _A = -0.7, 0.4
# (H, group order) of maps with nontrivial groups.  The translated
# cubic is y^3 shifted by T, so its group is hcubic's conjugated by the
# translation and every element but the identity moves the origin.  The
# shifted odd cubic is u^3 + C u under the same translation: the linear
# term leaves only the involution.
SYMMETRIC_MAPS = {
    "odd_cubic_shifted": (
        make_henon([([-(_T**3) - _C * _T + _T + _A * _T, 3 * _T**2 + _C, -3 * _T, 1], _A)]), 2
    ),
    "hcubic": (spec_map("cubic"), 8),
    "quartic": (make_henon([([0, 0, 0, 0, 1], 0.7)]), 15),
    "translated_cubic": (make_henon([([_T**3 - 1.5 * _T, 3 * _T**2, 3 * _T, 1], 0.5)]), 8),
    "square_square": (make_henon([([0, 0, 1], 0.5), ([0, 0, 1], 0.8)]), 3),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_MAPS))
def test_reported_maps_preserve_green_on_fresh_samples(name):
    # every element commutes exactly with H^2; G+ and G- invariance is the
    # consequence proved in the symmetry module docstring
    H, order = SYMMETRIC_MAPS[name]
    rep = find_affine_symmetries(H)
    assert rep.order == order
    if name == "translated_cubic":
        assert all(abs(L.f) + abs(L.f_prime) > 0.1 for L in rep.generators[1:])
    for L in rep.generators:
        assert commutes_with_power(H, L, 2)[1] <= 1e-13
    samples = (
        (green_plus, escaping_samples(H, 30, 61, N_max=64)),
        (green_minus, escaping_samples(H, 30, 67, N_max=64, forward=False)),
    )
    for L in rep.generators:
        for green, pts in samples:
            for z, g in pts:
                g2 = green(H, L(z), N_max=64)
                assert abs(g2.value - g) <= 1e-6 * max(1.0, g)


def test_verify_cyclic_identity_only():
    rep = SymmetryReport([AffineMap.identity()], 0.0)
    assert verify_cyclic(rep) == (True, 1)


def test_structure_record_rejects_a_wrong_generator(hcubic):
    # {id, (-x, y)} is cyclic of an order dividing the bound 8, but (-x, y)
    # does not commute with H^2: only the factor-chain witness catches it
    wrong = SymmetryReport([AffineMap.identity(), AffineMap(-1, 0, 1, 0)], 0.0)
    assert verify_cyclic(wrong) == (True, 2)
    assert not symmetry_structure_record(hcubic, wrong)["passed"]
    right = find_affine_symmetries(hcubic)
    assert symmetry_structure_record(hcubic, right)["passed"]
    # sets that are not groups: w I has order 3 but {id, w I, 2 I} is not
    # its powers, and hcubic's group with g_2 replaced by a second g_1 lists
    # a duplicate; every element of the second commutes with H^2
    w = cmath.exp(2j * cmath.pi / 3)
    odd = SymmetryReport(
        [AffineMap.identity(), AffineMap(w, 0, w, 0), AffineMap(2, 0, 2, 0)], 0.0
    )
    assert verify_cyclic(odd) == (False, 3)
    gens = list(right.generators)
    gens[2] = gens[1]
    duplicate = SymmetryReport(gens, 0.0)
    assert verify_cyclic(duplicate) == (False, 8)
    assert all(symmetry.factor_chain_witness(hcubic, L)[0] for L in gens)
    assert not symmetry_structure_record(hcubic, duplicate)["passed"]


@pytest.mark.parametrize("name", ["href", "htwo", "hcubic"])
def test_both_witnesses_accept_the_fixture_groups(name, request):
    # below the symbolic cap the expanded H^2 comparison stays as an oracle:
    # it and the factor chain that verify uses accept every fixture element
    H = request.getfixturevalue(name)
    assert H.d**2 <= symmetry.SYMBOLIC_DEGREE_CAP
    rep = find_affine_symmetries(H)
    for L in rep.generators:
        assert commutes_with_power(H, L, 2)[0]
        assert symmetry.factor_chain_witness(H, L)[1] <= 1e-14
    # the finder's defect and the witness are one kernel
    assert rep.max_commutation_defect == max(
        symmetry.factor_chain_witness(H, L)[1] for L in rep.generators
    )


def test_structure_record_accepts_the_order_five_group_at_degree_six():
    # factors y^2 - 2y + 3 and y^3 - 3y^2 + 3y + 1, a = 1: a correct group
    # of order 5 on which the expanded H^2 coefficients cancel only to about
    # 1e-8, above commutes_with_power's tol; the factor chain stays at
    # rounding, and the record passes
    H = spec_map("six")
    rep = find_affine_symmetries(H)
    assert (H.d, rep.order) == (6, 5) and rep.max_commutation_defect <= 1e-12
    assert max(commutes_with_power(H, L, 2)[1] for L in rep.generators) > 1e-9
    rec = symmetry_structure_record(H, rep)
    assert rec["passed"] and "factor-chain witness=" in rec["note"]
    assert all(symmetry.factor_chain_witness(H, L)[1] <= 1e-15 for L in rep.generators)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_structure_record_rejects_a_wrong_element_at_degree_nine(data):
    # d = 9: d^2 is above the symbolic cap, so the factor chain is the witness.
    # The planted group is {id, T(-x, -y)T^-1}; moving its translation gives
    # another involution, so {id, wrong} is cyclic of an order dividing the
    # bound, and only the witness catches it
    H, order, L = data.draw(planted_symmetric_maps("two_odd_cubics"))
    assert H.d**2 > symmetry.SYMBOLIC_DEGREE_CAP and order == 2
    rec = symmetry_structure_record(H, find_affine_symmetries(H))
    assert rec["passed"] and "factor-chain witness" in rec["note"]
    wrong = AffineMap(L.e, L.f + 1.0, L.e_prime, L.f_prime)
    report = SymmetryReport([AffineMap.identity(), wrong], 0.0)
    assert verify_cyclic(report) == (True, 2)
    assert not symmetry_structure_record(H, report)["passed"]


@pytest.mark.parametrize("family", PLANTED_FAMILIES)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_factor_chain_witness_on_planted_groups(family, data):
    # every element of the group passes; the plant with a moved translation
    # fails, as it does the expanded H^2 comparison where that runs
    H, order, L = data.draw(planted_symmetric_maps(family))
    rep = find_affine_symmetries(H)
    assert rep.order == order
    defects = [symmetry.factor_chain_witness(H, g)[1] for g in rep.generators]
    assert max(defects) <= 1e-12 and rep.max_commutation_defect == max(defects)
    moved = AffineMap(L.e, L.f + 0.5, L.e_prime, L.f_prime)
    assert not symmetry.factor_chain_witness(H, moved)[0]
    # e' rotated by 1e-6, its translation kept on the normal form's: only
    # the gaps beta^j - alpha of the chain catch it
    tau0 = -H.factors[0].p.coeffs[-2] / H.factors[0].p.degree
    ep = L.e_prime * cmath.exp(1e-6j)
    assert not symmetry.factor_chain_witness(H, AffineMap(L.e, L.f, ep, tau0 * (1 - ep)))[0]
    if H.d**2 <= symmetry.SYMBOLIC_DEGREE_CAP:
        assert not commutes_with_power(H, moved, 2)[0]


def test_affine_map_algebra():
    a = AffineMap(2.0, 1.0, 3.0, -1.0)
    b = AffineMap(0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0)
    assert a.compose(b).distance(AffineMap(1.0, 1.0, 1.0, 0.0)) <= 1e-15
    with pytest.raises(ValueError):
        AffineMap(0.0, 0.0, 1.0, 0.0)


def test_report_json_round_trip(tmp_path, hcubic):
    rep = find_affine_symmetries(hcubic)
    path = tmp_path / "report.json"
    save_report(rep, path)
    loaded = load_report(path)
    assert loaded.order == rep.order
    assert len(loaded.generators) == len(rep.generators)
    for a, b in zip(loaded.generators, rep.generators):
        assert a.distance(b) == 0.0
    doc = report_to_dict(rep)
    assert doc["format"] == "henoncover-symmetries-v1"
    assert report_from_dict(json.loads(json.dumps(doc))).order == rep.order
    # v1 documents written before the finder dropped Green sampling carry
    # two more keys; they still load
    old = dict(doc, verified_points=80, max_green_defect=2.9e-16)
    loaded = report_from_dict(json.loads(json.dumps(old)))
    assert loaded.order == rep.order
    assert loaded.max_commutation_defect == rep.max_commutation_defect


def test_report_is_frozen_and_its_order_is_the_count_of_its_elements():
    fields = [f.name for f in dataclasses.fields(SymmetryReport)]
    assert fields == ["generators", "max_commutation_defect"]
    rep = SymmetryReport([AffineMap.identity(), AffineMap(-1, 0, -1, 0)], 0.0)
    assert rep.generators == (AffineMap.identity(), AffineMap(-1, 0, -1, 0)) and rep.order == 2
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, ())


@pytest.mark.parametrize("name", CORPUS_MAPS)
def test_corpus_reports_list_their_group_as_a_tuple(name):
    # only huge.json's chain overflows (tau^3 alone is 3.7e328)
    try:
        rep = find_affine_symmetries(spec_map(name))
    except symmetry.ChainOverflow:
        assert name == "huge"
        return
    assert isinstance(rep.generators, tuple) and rep.order == len(rep.generators) >= 1
    assert rep.generators[0].is_identity(0.0)
    assert report_from_dict(json.loads(json.dumps(report_to_dict(rep)))) == rep


@pytest.mark.parametrize("details", [{"order_bound": 8}, 3, [["a", 1]], None],
                         ids=["order-bound", "number", "pairs", "null"])
def test_report_from_dict_ignores_details(details):
    # documents written while the report kept details still load
    doc = _report_doc()
    doc["details"] = details
    assert report_from_dict(doc) == report_from_dict(_report_doc())


def _report_doc(**edits):
    doc = report_to_dict(find_affine_symmetries(spec_map("cubic")))
    for key, value in edits.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.loads(json.dumps(doc))


_ONE = {"e": [1, 0], "f": [0, 0], "e_prime": [1, 0], "f_prime": [0, 0]}


@pytest.mark.parametrize("doc, message", [
    pytest.param(_report_doc(generators=None), "key 'generators' is missing", id="no-generators"),
    pytest.param(_report_doc(order=None), "key 'order' is missing", id="no-order"),
    pytest.param(_report_doc(generators=3), "key 'generators'", id="generators-not-a-list"),
    pytest.param(_report_doc(generators=[dict(_ONE, f_prime=None)]), "key 'generators'",
                 id="generator-f_prime-null"),
    pytest.param(_report_doc(generators=[dict(_ONE, e="x")]), "key 'generators'",
                 id="generator-e-not-a-pair"),
    pytest.param(_report_doc(generators=[dict(_ONE, e=[0, 0])], order=1), "key 'generators'",
                 id="generator-not-invertible"),
    pytest.param(_report_doc(max_commutation_defect="x"), "key 'max_commutation_defect'",
                 id="defect-not-a-number"),
    pytest.param(_report_doc(order=3), "order 3 is not the 8 generators listed", id="order-3-of-8"),
    pytest.param(_report_doc(order="8"), "key 'order'", id="order-a-string"),
    pytest.param(_report_doc(order=8.0), "key 'order'", id="order-a-float"),
    pytest.param(_report_doc(generators=[dict(_ONE, f=["1"])], order=1), "key 'generators'",
                 id="generator-f-string"),
    pytest.param(_report_doc(generators=[dict(_ONE, f=[True, 0])], order=1), "key 'generators'",
                 id="generator-f-true"),
    pytest.param(_report_doc(generators=[dict(_ONE, f=[np.nan, 0])], order=1), "key 'generators'",
                 id="generator-f-nan"),
    pytest.param(_report_doc(max_commutation_defect="0.5"), "key 'max_commutation_defect'",
                 id="defect-a-string"),
    pytest.param(_report_doc(max_commutation_defect=True), "key 'max_commutation_defect'",
                 id="defect-true"),
    pytest.param(_report_doc(max_commutation_defect=np.nan), "key 'max_commutation_defect'",
                 id="defect-nan"),
    pytest.param([], "not a symmetry report document", id="a-list"),
])
def test_report_from_dict_names_a_missing_or_malformed_key(doc, message):
    with pytest.raises(ValueError, match=message):
        report_from_dict(doc)


@pytest.mark.parametrize("family", PLANTED_FAMILIES)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_finder_recovers_planted_groups(family, data):
    H, order, L = data.draw(planted_symmetric_maps(family))
    # the plant itself, checked exactly: L commutes with H, or with H^2
    # when one factor swaps e and e' (m odd, e != e')
    k = 1 if len(H.factors) % 2 == 0 or L.e == L.e_prime else 2
    assert commutes_with_power(H, L, k)[1] <= 1e-9
    rep = find_affine_symmetries(H)
    assert rep.order == order == len(rep.generators)
    assert isinstance(rep.generators, tuple) and rep.generators[0].is_identity(0.0)
    scale = 1.0 + abs(L.f) + abs(L.f_prime)
    assert any(L.distance(g) <= 1e-12 * scale for g in rep.generators)


@pytest.mark.parametrize("name", ["href", "htwo"] + sorted(SYMMETRIC_MAPS))
def test_group_is_complete(name, request):
    # of the N^2 maps T diag(e, e') T^-1 with e, e' in mu_N and T the
    # normal-form translation, exactly the reported group commutes with H^2
    # (a map commuting with H commutes with H^2)
    if name in SYMMETRIC_MAPS:
        H = SYMMETRIC_MAPS[name][0]
    else:
        H = request.getfixturevalue(name)
    N = symmetry.symmetry_order_bound(H.d, H.d_prime)
    assert N <= 18
    tau = [-f.p.coeffs[-2] / f.p.degree for f in H.factors]
    roots = [cmath.exp(2j * cmath.pi * k / N) for k in range(N)]
    found = [
        L
        for e in roots
        for ep in roots
        for L in [AffineMap(e, tau[-1] * (1 - e), ep, tau[0] * (1 - ep))]
        if commutes_with_power(H, L, 2)[0]
    ]
    rep = find_affine_symmetries(H)
    assert len(found) == rep.order
    assert all(any(L.distance(g) <= 1e-12 for g in rep.generators) for L in found)
