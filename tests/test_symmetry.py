import json

import pytest

from henoncover import (
    AffineMap,
    Point,
    commutes_with_power,
    compute_d0,
    find_affine_symmetries,
    green_plus,
    make_henon,
    verify_cyclic,
)
from henoncover.symmetry import (
    fixed_points,
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)
from henoncover.verification import brute_force_d0


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


def test_numeric_commutation_path(hcubic):
    # 3^4 = 81 exceeds the symbolic cap, forcing the sampled path
    ok, defect = commutes_with_power(hcubic, AffineMap(-1, 0, -1, 0), 4)
    assert ok and defect <= 1e-9


def test_find_symmetries_cubic(hcubic):
    rep = find_affine_symmetries(hcubic, budget=60)
    assert rep.order == 2
    assert any(L.distance(AffineMap(-1, 0, -1, 0)) <= 1e-9 for L in rep.generators)
    assert 8 % rep.order == 0
    cyclic, order = verify_cyclic(rep)
    assert cyclic and order == 2
    assert rep.max_green_defect <= 1e-6


def test_find_symmetries_generic_quadratic():
    H = make_henon([([1 + 1j, 0, 1], 0.3)])
    rep = find_affine_symmetries(H, budget=40)
    assert rep.order == 1
    assert rep.generators[0].is_identity()


def test_reference_map_has_no_symmetries(href):
    rep = find_affine_symmetries(href, budget=40)
    assert rep.order == 1


def test_report_closure(hcubic):
    rep = find_affine_symmetries(hcubic, budget=40)
    for a in rep.generators:
        for b in rep.generators:
            c = a.compose(b)
            assert any(c.distance(g) <= 1e-9 for g in rep.generators)


def test_reported_maps_preserve_green_on_fresh_samples(rng, hcubic):
    rep = find_affine_symmetries(hcubic, budget=40)
    for L in rep.generators:
        checked = 0
        while checked < 30:
            z = Point(complex(*rng.uniform(-6, 6, 2)), complex(*rng.uniform(-6, 6, 2)))
            g = green_plus(hcubic, z)
            if g.value <= 0.05:
                continue
            checked += 1
            g2 = green_plus(hcubic, L(z))
            assert abs(g2.value - g.value) <= 1e-6 * max(1.0, g.value)


def test_verify_cyclic_identity_only():
    from henoncover.symmetry import SymmetryReport

    rep = SymmetryReport([AffineMap.identity()], 1, 0, 0.0)
    assert verify_cyclic(rep) == (True, 1)


def test_affine_map_algebra():
    a = AffineMap(2.0, 1.0, 3.0, -1.0)
    b = AffineMap(0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0)
    assert a.compose(b).distance(AffineMap(1.0, 1.0, 1.0, 0.0)) <= 1e-15
    with pytest.raises(ValueError):
        AffineMap(0.0, 0.0, 1.0, 0.0)


def test_report_json_round_trip(tmp_path, hcubic):
    rep = find_affine_symmetries(hcubic, budget=40)
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
