"""Runnable invariant suite shared by `henoncover verify` and the tests.

Every check returns a record {name, defect, tol, passed, seconds, note};
`run_suite` collects them at two sample scales (fast/full) for a given
map.  The checks mirror the per-module identities: inverse round trips,
filtration invariance, the Green functorial law, Bottcher semiconjugacy,
chart semiconjugacy, the deck relations, the covering-map diagram, the
correction-series identity, d0 arithmetic, symmetry-group structure,
sub-level laws, and byte-determinism of rendering.
"""

from __future__ import annotations

import time

import numpy as np

from .boettcher import bottcher_phi, certify_region
from .cover import (
    CoverPoint,
    DeckLabel,
    _qminus_eval,
    build_chart,
    covering_map,
    deck,
    lift_H,
    psi_tilde,
    r_series,
)
from .filtration import filtration_radius
from .green import escaping_samples, green_minus, green_plus
from .henon import HenonMap, Point, apply, apply_inverse, apply_xy, iterate
from .shortc2 import annulus_coordinate, classify_sublevel
from .symmetry import compute_d0, find_affine_symmetries, verify_cyclic

__all__ = ["run_suite", "print_results"]


def _record(name, defect, tol, seconds, note=""):
    return {
        "name": name,
        "defect": float(defect),
        "tol": float(tol),
        "passed": bool(defect <= tol),
        "seconds": float(seconds),
        "note": note,
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _region_points(H: HenonMap, region, n: int, seed: int, depth=(1.5, 8.0)):
    rng = np.random.default_rng(seed)
    M, R = region.M, region.R.R
    ys = (
        M * R
        * np.exp(rng.uniform(np.log(depth[0]), np.log(depth[1]), n))
        * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    )
    xs = (
        rng.uniform(0.0, 1.0, n)
        * np.abs(ys)
        / (2.0 * M)
        * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    )
    return [Point(complex(x), complex(y)) for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# module-level checks

def check_inverse_roundtrip(H: HenonMap, n: int = 100, seed: int = 11):
    rng = np.random.default_rng(seed)
    worst = 0.0

    def run():
        nonlocal worst
        for _ in range(n):
            z = Point(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            w = apply_inverse(H, apply(H, z))
            v = apply(H, apply_inverse(H, z))
            scale = max(1.0, abs(z.x), abs(z.y))
            worst = max(
                worst,
                max(abs(w.x - z.x), abs(w.y - z.y)) / scale,
                max(abs(v.x - z.x), abs(v.y - z.y)) / scale,
            )

    _, dt = _timed(run)
    return _record("core.inverse_roundtrip", worst, 1e-12, dt)


def check_filtration_invariance(H: HenonMap, n: int = 10000, seed: int = 13):
    R = filtration_radius(H)
    rng = np.random.default_rng(seed)

    def run():
        from .henon import apply_inverse_xy

        mags = R.R * np.exp(rng.uniform(0.0, np.log(100.0), n))
        frac = rng.uniform(0.0, 1.0, n)
        ph1 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        ph2 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        # V+ samples: |y| >= max(|x|, R)
        fx, fy = apply_xy(H, frac * mags * ph1, mags * ph2)
        bad = int(np.sum(~(np.abs(fy) >= np.maximum(np.abs(fx), R.R))))
        # V- samples: |x| >= max(|y|, R), pulled back
        kx, ky = apply_inverse_xy(H, mags * ph1, frac * mags * ph2)
        bad += int(np.sum(~(np.abs(kx) >= np.maximum(np.abs(ky), R.R))))
        return bad

    bad, dt = _timed(run)
    return _record(
        "filtration.invariance", bad, 0, dt, note=f"{2 * n} samples, R={R.R:g}"
    )


def check_green_functorial(H: HenonMap, n: int = 200, seed: int = 17):
    def run():
        pts = escaping_samples(H, n, seed, N_max=96)
        worst = 0.0
        for z, g in pts:
            g2 = green_plus(H, apply(H, z), N_max=96)
            worst = max(worst, abs(g2.value - H.d * g) / max(1.0, H.d * g))
        return worst

    worst, dt = _timed(run)
    return _record("green.functorial", worst, 1e-6, dt, note=f"{n} points")


def check_green_basics(H: HenonMap, seed: int = 19):
    def run():
        worst = 0.0
        # zero on points still bounded at full budget
        rng = np.random.default_rng(seed)
        R = filtration_radius(H)
        for _ in range(40):
            z = Point(
                0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            g = green_plus(H, z, N_max=128)
            if g.depth == 128:
                worst = max(worst, g.value)
            gm = green_minus(H, z, N_max=128)
            if gm.depth == 128:
                worst = max(worst, gm.value)
        return worst

    worst, dt = _timed(run)
    return _record("green.zero_on_bounded", worst, 0.0, dt)


def check_green_minus_functorial(H: HenonMap, n: int = 60, seed: int = 23):
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R

    def run():
        worst = 0.0
        cnt = 0
        while cnt < n:
            z = Point(
                2.0 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                2.0 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            g = green_minus(H, z, N_max=96)
            if g.value <= 0.01:
                continue
            cnt += 1
            g2 = green_minus(H, apply_inverse(H, z), N_max=96)
            worst = max(worst, abs(g2.value - H.d * g.value) / max(1.0, H.d * g.value))
        return worst

    worst, dt = _timed(run)
    return _record("green.functorial_minus", worst, 1e-6, dt, note=f"{n} points")


def check_boettcher(H: HenonMap, n: int = 100, seed: int = 29):
    region = certify_region(H)

    def run():
        pts = _region_points(H, region, n, seed)
        worst = 0.0
        for z in pts:
            p = bottcher_phi(H, z)
            p2 = bottcher_phi(H, apply(H, z))
            worst = max(worst, abs(p2 - p**H.d) / abs(p) ** H.d)
            g = green_plus(H, z, N_max=96)
            worst = max(worst, abs(np.log(abs(p)) - g.value))
        return worst

    worst, dt = _timed(run)
    return _record("boettcher.semiconjugacy", worst, 1e-8, dt, note=f"{n} points")


def check_chart_semiconjugacy(H: HenonMap, chart, n: int = 50, seed: int = 31):
    def run():
        rng = np.random.default_rng(seed)
        MR = chart.inner_radius
        worst = 0.0
        for _ in range(n):
            y = (
                2.0 * MR
                * rng.uniform(1.0, 4.0)
                * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            x = (
                rng.uniform(0.0, abs(y) / (3.0 * chart.region.M))
                * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            z = Point(x, y)
            w1 = psi_tilde(chart, apply(H, z))
            w2 = lift_H(chart, psi_tilde(chart, z))
            worst = max(
                worst,
                abs(w1.z - w2.z) / max(1.0, abs(w2.z)),
                abs(w1.zeta - w2.zeta) / max(1.0, abs(w2.zeta)),
            )
        return worst

    worst, dt = _timed(run)
    return _record("cover.semiconjugacy", worst, 1e-6, dt, note=f"{n} points")


def check_q_structure(H: HenonMap, chart):
    def run():
        deg_ok = chart.Q.degree == H.d + H.d_prime
        monic = chart.meta.get("monic_defect", np.inf)
        agree = chart.meta.get("two_radius_agreement", np.inf)
        defect = max(
            0.0 if deg_ok else 1.0, monic / 1e-6, agree / 1e-7
        )
        return defect, f"deg={chart.Q.degree}, monic={monic:.2e}, radii={agree:.2e}"

    (defect, note), dt = _timed(run)
    return _record("cover.q_structure", defect, 1.0, dt, note=note)


def check_deck(H: HenonMap, chart, pts: int = 20, seed: int = 37):
    d = H.d

    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for n in (1, 2, 3):
            for k in range(1, d**n):
                for _ in range(pts):
                    zeta = rng.uniform(1.2, 2.5) * np.exp(
                        1j * rng.uniform(0, 2 * np.pi)
                    )
                    w = CoverPoint(complex(rng.normal(), rng.normal()), zeta)
                    l1 = lift_H(chart, deck(chart, DeckLabel.reduced(k, n, d), w))
                    l2 = deck(
                        chart, DeckLabel.reduced(k, n - 1, d), lift_H(chart, w)
                    )
                    worst = max(
                        worst,
                        abs(l1.z - l2.z) / max(1.0, abs(l2.z)),
                        abs(l1.zeta - l2.zeta) / max(1.0, abs(l2.zeta)),
                    )
        return worst

    worst, dt = _timed(run)
    return _record("cover.deck_relation", worst, 1e-10, dt)


def check_deck_additivity(
    H: HenonMap, chart, seed: int = 41, levels: int = 2, zeta_range=(1.2, 2.2)
):
    """Deck labels add: k1/d^n then k2/d^n equals (k1 + k2)/d^n, for n <= levels."""
    d = H.d

    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for n in range(1, levels + 1):
            for k1 in range(d**n):
                for k2 in range(d**n):
                    zeta = rng.uniform(*zeta_range) * np.exp(
                        1j * rng.uniform(0, 2 * np.pi)
                    )
                    w = CoverPoint(complex(rng.normal(), rng.normal()), zeta)
                    l1 = deck(
                        chart,
                        DeckLabel.reduced(k1, n, d),
                        deck(chart, DeckLabel.reduced(k2, n, d), w),
                    )
                    l2 = deck(chart, DeckLabel.reduced(k1 + k2, n, d), w)
                    worst = max(
                        worst,
                        abs(l1.z - l2.z) / max(1.0, abs(l2.z)),
                        abs(l1.zeta - l2.zeta) / max(1.0, abs(l2.zeta)),
                    )
        return worst

    worst, dt = _timed(run)
    return _record("cover.deck_additivity", worst, 1e-10, dt)


def check_covering_map(H: HenonMap, chart, n: int = 30, budget: int = 20, seed: int = 43):
    def run():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n):
            zeta = rng.uniform(1.15, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            w = CoverPoint(0.4 * complex(rng.normal(), rng.normal()), zeta)
            p1 = covering_map(chart, lift_H(chart, w), budget)
            p2 = apply(H, covering_map(chart, w, budget))
            scale = max(1.0, abs(p2.x), abs(p2.y))
            worst = max(worst, max(abs(p1.x - p2.x), abs(p1.y - p2.y)) / scale)
            q1 = covering_map(chart, deck(chart, DeckLabel.reduced(1, 1, H.d), w), budget)
            q2 = covering_map(chart, w, budget)
            scale = max(1.0, abs(q2.x), abs(q2.y))
            worst = max(worst, max(abs(q1.x - q2.x), abs(q1.y - q2.y)) / scale)
        return worst

    worst, dt = _timed(run)
    return _record("cover.projection", worst, 1e-6, dt, note=f"{n} points")


def check_r_series(H: HenonMap, chart, n: int = 50, seed: int = 47):
    def run():
        rng = np.random.default_rng(seed)
        MR = chart.inner_radius
        worst = 0.0
        for _ in range(n):
            z = (
                2.0 * MR
                * rng.uniform(1.0, 3.0)
                * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            lhs = (H.jacobian / H.d) * r_series(chart, z) - r_series(chart, z**H.d)
            worst = max(worst, abs(lhs - _qminus_eval(chart, z)))
        return worst

    worst, dt = _timed(run)
    return _record("cover.series_identity", worst, 1e-8, dt, note=f"{n} points")


def brute_force_d0(d: int, d_prime: int) -> int:
    """Oracle for compute_d0: min (d + d') / q over divisors q built from d's primes."""
    primes = []
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    combos = [()]
    for _ in primes:
        combos = [c + (e,) for c in combos for e in range(11)]
    best = None
    for combo in combos:
        denom = 1
        for p_, e_ in zip(primes, combo):
            denom *= p_**e_
        if (d + d_prime) % denom == 0:
            val = (d + d_prime) // denom
            best = val if best is None else min(best, val)
    return best


def check_d0():
    def run():
        if compute_d0(2, 1) != 3 or compute_d0(3, 1) != 4:
            return 1.0
        for d in range(2, 31):
            for dp in range(1, d + 1):
                if brute_force_d0(d, dp) != compute_d0(d, dp):
                    return 1.0
        return 0.0

    worst, dt = _timed(run)
    return _record("symmetry.d0", worst, 0.0, dt, note="oracle sweep d<=30")


def check_symmetry_structure(H: HenonMap, budget: int = 60):
    def run():
        rep = find_affine_symmetries(H, budget=budget)
        cyclic, order = verify_cyclic(rep)
        bound = (H.d + H.d_prime) * (H.d - 1)
        bad = 0.0
        if not cyclic:
            bad = 1.0
        if order < 1 or bound % order != 0:
            bad = 1.0
        return bad, f"order={order}, bound={bound}, green={rep.max_green_defect:.1e}"

    (worst, note), dt = _timed(run)
    return _record("symmetry.group_structure", worst, 0.0, dt, note=note)


def check_sublevel_equivariance(
    H: HenonMap, n: int = 100, c: float = 0.8, seed: int = 53, half_width=None
):
    """z and H(z) fall on the same side of {G+ < c} and {G+ < d c}.

    Samples are uniform in the box |Re|, |Im| <= half_width (default 1.5 R).
    """

    def run():
        rng = np.random.default_rng(seed)
        h = 1.5 * filtration_radius(H).R if half_width is None else half_width
        mismatches = 0
        used = 0
        while used < n:
            z = Point(
                h * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                h * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            c1 = classify_sublevel(H, c, z, budget=128)
            c2 = classify_sublevel(H, H.d * c, apply(H, z), budget=128)
            if c1.ambiguous or c2.ambiguous:
                continue
            used += 1
            if c1.tag is not c2.tag:
                mismatches += 1
        return mismatches

    worst, dt = _timed(run)
    return _record("shortc2.equivariance", worst, 0.0, dt, note=f"{n} points")


def check_annulus_modulus(H: HenonMap, chart, n: int = 100, seed: int = 59):
    def run():
        pts = escaping_samples(H, n, seed, N_max=96)
        worst = 0.0
        for z, _ in pts:
            z1 = annulus_coordinate(chart, z)
            z2 = annulus_coordinate(chart, apply(H, z))
            worst = max(
                worst, abs(abs(z2) - abs(z1) ** H.d) / abs(z1) ** H.d
            )
        return worst

    worst, dt = _timed(run)
    return _record("shortc2.modulus_law", worst, 1e-8, dt, note=f"{n} points")


def check_render_determinism(H: HenonMap, size: int = 256):
    from .cli import GridJob, quantize, render_grid

    def run():
        job = GridJob(
            plane="real_slice",
            anchor=0j,
            center=(0.0, 0.0),
            width=4.0,
            height=4.0,
            nx=size,
            ny=size,
            quantity="green_plus",
            c=0.0,
            clamp=3.0,
        )
        b1 = quantize(job, render_grid(H, job, budget=48, threads=1)).tobytes()
        b2 = quantize(job, render_grid(H, job, budget=48, threads=1)).tobytes()
        b3 = quantize(job, render_grid(H, job, budget=48, threads=8)).tobytes()
        return 0.0 if (b1 == b2 == b3) else 1.0

    worst, dt = _timed(run)
    return _record(
        "cli.render_determinism", worst, 0.0, dt, note=f"{size}x{size}, 1 vs 8 threads"
    )


def check_iterate_roundtrip(H: HenonMap, seed: int = 61):
    """Round trip H^-3(H^3(z)) = z on orbits that stay in the bounded block."""

    def run():
        rng = np.random.default_rng(seed)
        R = filtration_radius(H).R
        worst = 0.0
        cnt = 0
        tries = 0
        while cnt < 50 and tries < 5000:
            tries += 1
            z = Point(
                0.4 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                0.4 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            orbit = [z]
            for _ in range(3):
                orbit.append(apply(H, orbit[-1]))
            if any(max(abs(p.x), abs(p.y)) > 2.0 * R for p in orbit):
                continue  # oracle only covers bounded orbits
            cnt += 1
            w = iterate(H, orbit[-1], -3)
            scale = max(1.0, abs(z.x), abs(z.y))
            worst = max(worst, max(abs(w.x - z.x), abs(w.y - z.y)) / scale)
        return worst

    worst, dt = _timed(run)
    return _record("core.iterate_roundtrip", worst, 1e-12, dt)


# ---------------------------------------------------------------------------

def run_suite(H: HenonMap, level: str = "fast"):
    """All checks at the requested scale; 'full' builds the cover chart."""
    fast = level != "full"
    k = 2 if fast else 1  # sample divisor
    results = [
        check_inverse_roundtrip(H, n=100 // k),
        check_iterate_roundtrip(H),
        check_filtration_invariance(H, n=10000 // k),
        check_green_functorial(H, n=200 // k),
        check_green_minus_functorial(H, n=60 // k),
        check_green_basics(H),
        check_boettcher(H, n=100 // k),
        check_d0(),
        check_symmetry_structure(H, budget=120 // k),
        check_sublevel_equivariance(H, n=100 // k),
    ]
    if not fast:
        chart = build_chart(H)
        results += [
            check_q_structure(H, chart),
            check_chart_semiconjugacy(H, chart),
            check_deck(H, chart),
            check_deck_additivity(H, chart),
            check_covering_map(H, chart),
            check_r_series(H, chart),
            check_annulus_modulus(H, chart),
            check_render_determinism(H),
        ]
    return results


def print_results(results) -> int:
    failed = 0
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        if not r["passed"]:
            failed += 1
        note = f"  [{r['note']}]" if r["note"] else ""
        print(
            f"{status}  {r['name']:<28} defect={r['defect']:.3e} "
            f"tol={r['tol']:.1e}  ({r['seconds']:.2f}s){note}"
        )
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return failed
