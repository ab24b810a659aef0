"""Acceptance suite: the headline identities at their contract tolerances.

Reference map: H(x, y) = (y, y^2 - 1.1 - 0.8 x).  Each criterion runs the
matching checks of `henoncover.verification` on its own seeds and sample
domains and prints one PASS/FAIL line (run with -s to see them inline).
"""

import time

import numpy as np

from henoncover import AffineMap, build_chart, find_affine_symmetries
from henoncover.verification import (
    check_annulus_modulus,
    check_boettcher,
    check_chart_semiconjugacy,
    check_covering_map,
    check_d0,
    check_deck,
    check_deck_additivity,
    check_green_functorial,
    check_q_structure,
    check_r_series,
    check_render_determinism,
    check_sublevel_equivariance,
    symmetry_structure_record,
)

from strategies import spec_map

H_REF = spec_map("ref")

_chart_cache = {}


def reference_chart():
    if "chart" not in _chart_cache:
        t0 = time.perf_counter()
        _chart_cache["chart"] = build_chart(H_REF)
        _chart_cache["build_seconds"] = time.perf_counter() - t0
    return _chart_cache["chart"], _chart_cache["build_seconds"]


def criterion(num, name, *records, seconds=None, limit=None):
    """Print one line for the check records; each must pass, within limit seconds."""
    if seconds is None:
        seconds = sum(r["seconds"] for r in records)
    ok = all(r["passed"] for r in records) and (limit is None or seconds <= limit)
    defects = ", ".join(
        f"{r['name']}={r['defect']:.3e} (tol {r['tol']:.1e})" for r in records
    )
    t = f" (limit {limit:g}s)" if limit else ""
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {defects}, {seconds:.2f}s{t}")
    for r in records:
        assert r["passed"], f"criterion {num}: {r['name']} defect {r['defect']:.3e} > {r['tol']:.1e}"
    if limit is not None:
        assert seconds <= limit, f"criterion {num} took {seconds:.1f}s > {limit}s"


def test_criterion_1_green_functorial():
    criterion(1, "Green functorial law",
              check_green_functorial(H_REF, n=200, seed=101), limit=5.0)


def test_criterion_2_boettcher_consistency():
    criterion(2, "Bottcher semiconjugacy and potential",
              check_boettcher(H_REF, n=100, seed=103), limit=5.0)


def test_criterion_3_chart_semiconjugacy():
    chart, build_s = reference_chart()
    criterion(3, "chart semiconjugacy",
              check_chart_semiconjugacy(chart, n=50, seed=107),
              seconds=build_s, limit=60.0)


def test_criterion_4_q_structure():
    chart, _ = reference_chart()
    criterion(4, "lift polynomial structure", check_q_structure(chart))


def test_criterion_5_deck_algebra():
    chart, _ = reference_chart()
    rng = np.random.default_rng(109)  # one stream through both checks
    # additivity defects scale like |zeta|^((d+d')d^(n-1)) * eps through the
    # exactly-cancelling monomials, so sample where the cover lives, near
    # the unit circle
    criterion(5, "deck relations and additivity",
              check_deck(chart, pts=20, seed=rng),
              check_deck_additivity(chart, seed=rng, levels=3,
                                    zeta_range=(1.05, 1.7)))


def test_criterion_6_covering_map():
    chart, _ = reference_chart()
    criterion(6, "covering equivariance and fibers",
              check_covering_map(chart, n=30, budget=20, seed=113))


def test_criterion_7_series_identity():
    chart, _ = reference_chart()
    criterion(7, "correction-series identity",
              check_r_series(chart, n=50, seed=127))


def test_criterion_8_d0_arithmetic():
    criterion(8, "d0 arithmetic vs brute force", check_d0(), limit=1.0)


def test_criterion_9_symmetry_finder():
    t0 = time.perf_counter()
    cubic = spec_map("cubic")
    cubic_rep, ref_rep = (find_affine_symmetries(H) for H in (cubic, H_REF))
    records = [symmetry_structure_record(cubic, cubic_rep),
               symmetry_structure_record(H_REF, ref_rep)]
    # the odd cubic commutes with (x, y) -> (-x, -y); the reference map
    # has no symmetry but the identity
    assert any(L.distance(AffineMap(-1, 0, -1, 0)) <= 1e-9 for L in cubic_rep.generators)
    assert ref_rep.order == 1 and ref_rep.generators[0].is_identity()
    criterion(9, "affine symmetry finder", *records,
              seconds=time.perf_counter() - t0, limit=120.0)


def test_criterion_10_short_c2_laws():
    chart, _ = reference_chart()
    criterion(10, "sub-level power laws",
              check_annulus_modulus(chart, n=100, seed=131),
              check_sublevel_equivariance(H_REF, n=100, c=0.8, seed=137,
                                          half_width=6.0))


def test_criterion_11_render_determinism():
    criterion(11, "render determinism (256 wide, two tiles, 1 vs 8 threads)",
              check_render_determinism(H_REF, size=256))
