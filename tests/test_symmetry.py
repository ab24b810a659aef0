import json

import pytest

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
from henoncover.green import escaping_samples
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
    rep = find_affine_symmetries(hcubic)
    assert rep.order == 2
    assert any(L.distance(AffineMap(-1, 0, -1, 0)) <= 1e-9 for L in rep.generators)
    assert 8 % rep.order == 0
    cyclic, order = verify_cyclic(rep)
    assert cyclic and order == 2
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
# (factors, group order) of maps with nontrivial groups; the translated
# odd cubic's involution has nonzero translations
SYMMETRIC_MAPS = {
    "hcubic": ([([0, 0, 0, 1], 0.5)], 2),
    "quartic": ([([0, 0, 0, 0, 1], 0.7)], 3),
    "translated_cubic": ([([_T**3 - 1.5 * _T, 3 * _T**2, 3 * _T, 1], 0.5)], 2),
    "square_square": ([([0, 0, 1], 0.5), ([0, 0, 1], 0.8)], 3),
}


@pytest.mark.parametrize("name", ["href", "htwo"] + sorted(SYMMETRIC_MAPS))
def test_fixed_points_exit_matches_full_run(name, request, monkeypatch):
    # with STEP_TOL = 0 only exactly stationary starts stop, which is the
    # fixed 80-step run
    if name in SYMMETRIC_MAPS:
        H = make_henon(SYMMETRIC_MAPS[name][0])
    else:
        H = request.getfixturevalue(name)
    pts = fixed_points(H)
    monkeypatch.setattr(symmetry, "STEP_TOL", 0.0)
    ref = fixed_points(H)
    assert len(pts) == len(ref) > 0
    for p, q in zip(pts, ref):
        scale = 1.0 + abs(q.x) + abs(q.y)
        assert abs(p.x - q.x) + abs(p.y - q.y) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(SYMMETRIC_MAPS))
def test_reported_maps_preserve_green_on_fresh_samples(name):
    # the finder tests commutation only; G+ and G- invariance is the
    # consequence proved in the symmetry module docstring
    factors, order = SYMMETRIC_MAPS[name]
    H = make_henon(factors)
    rep = find_affine_symmetries(H)
    assert rep.order == order
    if name == "translated_cubic":
        assert all(abs(L.f) + abs(L.f_prime) > 0.1 for L in rep.generators[1:])
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
    from henoncover.symmetry import SymmetryReport

    rep = SymmetryReport([AffineMap.identity()], 1, 0.0)
    assert verify_cyclic(rep) == (True, 1)


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
