"""Runnable invariant suite shared by `henoncover verify` and the tests.

Each check is a plain function of the map, or of the chart alone (which
carries its map), that returns its defect, or (defect, note); the
`_check(name, tol)` decorator turns it into a record {name, defect, tol,
passed, seconds, note} with passed = defect <= tol.  `seconds` times the
whole call: the sampling, any setup the check does itself (filtration
radius, Bottcher region, symmetry search) and the identity itself, but
not the build of a chart passed in.  The circle check of Q (chart.meta)
is not part of a build: check_q_structure runs it, and its seconds
count it.  A `HenonError` raised inside a check becomes a
failed record with defect inf and note "ExceptionName: message", as a
failed chart build does in `run_suite`; any other exception is a
programming error and propagates.  A check that finds nothing to sample
also fails with defect inf, and its note counts what it sampled.

`run_suite` collects the records at two sample scales (fast/full) for a
given map.  The checks mirror the per-module identities: inverse round
trips, filtration invariance, the Green functorial law, Bottcher
semiconjugacy, chart semiconjugacy, the deck relations, the covering-map
diagram, the correction-series identity, d0 arithmetic, symmetry-group
structure, sub-level laws, the escape band behind sub-level renders, and
byte-determinism of rendering.
"""

from __future__ import annotations

import functools
import time
from dataclasses import replace

import numpy as np

from .boettcher import bottcher_phi, certify_region
from .cover import (
    CoverPoint,
    DeckLabel,
    _qtilde_batch,
    build_chart,
    covering_map,
    deck,
    lift_H,
    psi_tilde,
    r_series,
)
from .filtration import escape_orbit, filtration_radius
from .green import (
    BAND_SLACK,
    escape_band,
    escaping_samples,
    green_minus,
    green_plus,
    green_plus_grid,
    sublevel_classes,
    sublevel_grid,
)
from .henon import (
    HenonError,
    HenonMap,
    Point,
    apply,
    apply_inverse,
    apply_inverse_xy,
    apply_xy,
    iterate,
)
from .shortc2 import annulus_coordinate, classify_sublevel
from .symmetry import (
    compute_d0,
    factor_chain_witness,
    find_affine_symmetries,
    symmetry_order_bound,
    verify_cyclic,
)

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


def _failed(name, tol, seconds, exc: HenonError):
    return _record(name, np.inf, tol, seconds, f"{type(exc).__name__}: {exc}")


def _check(name: str, tol):
    """Decorate a check body that returns defect or (defect, note)."""

    def wrap(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                with np.errstate(all="ignore"):  # a float event shows as an inf or NaN defect
                    out = fn(*args, **kwargs)
            except HenonError as exc:
                return _failed(name, tol, time.perf_counter() - t0, exc)
            defect, note = out if isinstance(out, tuple) else (out, "")
            return _record(name, defect, tol, time.perf_counter() - t0, note)

        return check

    return wrap


def _region_points(H: HenonMap, n: int, seed: int, depth=(1.5, 8.0)):
    """n seeded points of W+_M with |y|/(MR) in depth and |x| < |y|/(2M)."""
    rng = np.random.default_rng(seed)
    M, R = certify_region(H).M, filtration_radius(H).R
    radii = M * R * np.exp(rng.uniform(np.log(depth[0]), np.log(depth[1]), n))
    ys = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    moduli = rng.uniform(0.0, 1.0, n) * np.abs(ys) / (2.0 * M)
    xs = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return [Point(complex(x), complex(y)) for x, y in zip(xs, ys)]


def _box_point(rng, h: float) -> Point:
    """A point uniform in the box |Re|, |Im| <= h of both coordinates."""
    return Point(
        h * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        h * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def _polar(rng, lo: float, hi: float, scale: float = 1.0):
    """scale r e^(i t), r uniform in [lo, hi] and t uniform in [0, 2 pi)."""
    return scale * rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def _cover_sample(rng, lo: float, hi: float, z_scale: float = 1.0) -> CoverPoint:
    """A cover point with |zeta| uniform in [lo, hi] and a normal z."""
    zeta = _polar(rng, lo, hi)
    return CoverPoint(z_scale * complex(rng.normal(), rng.normal()), zeta)


def _point_defect(w: Point, z: Point) -> float:
    """Max-norm distance of w from z, relative to max(1, |z|)."""
    return max(abs(w.x - z.x), abs(w.y - z.y)) / max(1.0, abs(z.x), abs(z.y))


def _cover_defect(w: CoverPoint, v: CoverPoint) -> float:
    """Distance of w from v, per coordinate relative to max(1, |v|)."""
    return max(abs(w.z - v.z) / max(1.0, abs(v.z)), abs(w.zeta - v.zeta) / max(1.0, abs(v.zeta)))


# ---------------------------------------------------------------------------
# module-level checks

@_check("core.inverse_roundtrip", 1e-12)
def check_inverse_roundtrip(H: HenonMap, n: int = 100, seed: int = 11):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        z = Point(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        w = apply_inverse(H, apply(H, z))
        v = apply(H, apply_inverse(H, z))
        worst = max(worst, _point_defect(w, z), _point_defect(v, z))
    return worst


@_check("filtration.invariance", 0)
def check_filtration_invariance(H: HenonMap, n: int = 10000, seed: int = 13):
    R = filtration_radius(H)
    rng = np.random.default_rng(seed)
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
    return bad, f"{2 * n} samples, R={R.R:g}"


def _green_functorial(H: HenonMap, n: int, seed: int, forward: bool):
    """G+(H(z)) = d G+(z), or with forward=False G-(H^-1(z)) = d G-(z)."""
    green, step = (green_plus, apply) if forward else (green_minus, apply_inverse)
    worst = 0.0
    for z, g in escaping_samples(H, n, seed, N_max=96, forward=forward):
        g2 = green(H, step(H, z), N_max=96)
        worst = max(worst, abs(g2.value - H.d * g) / max(1.0, H.d * g))
    return worst, f"{n} points"


@_check("green.functorial", 1e-6)
def check_green_functorial(H: HenonMap, n: int = 200, seed: int = 17):
    return _green_functorial(H, n, seed, forward=True)


@_check("green.functorial_minus", 1e-6)
def check_green_functorial_minus(H: HenonMap, n: int = 60, seed: int = 23):
    return _green_functorial(H, n, seed, forward=False)


@_check("green.zero_on_bounded", 0.0)
def check_green_basics(H: HenonMap, seed: int = 19):
    """G+ and G- vanish where the orbit stays bounded for the full budget.

    Samples the box |Re|, |Im| <= 0.3; a run with no bounded sample fails.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(40):
        z = _box_point(rng, 0.3)
        for g in (green_plus(H, z, N_max=128), green_minus(H, z, N_max=128)):
            if g.depth == 128:
                used += 1
                worst = max(worst, g.value)
    return worst if used else np.inf, f"{used} bounded samples"


@_check("boettcher.semiconjugacy", 1e-8)
def check_boettcher(H: HenonMap, n: int = 100, seed: int = 29):
    worst = 0.0
    for z in _region_points(H, n, seed):
        p = bottcher_phi(H, z)
        p2 = bottcher_phi(H, iterate(H, z, 1))  # NonFinite where H(z) overflows
        worst = max(worst, abs(p2 - p**H.d) / abs(p) ** H.d)
        g = green_plus(H, z, N_max=96)
        worst = max(worst, abs(np.log(abs(p)) - g.value))
    return worst, f"{n} points"


def _chart_points(chart, n: int, seed, depth=(1.0, 4.0)):
    """n seeded points of the chart domain: |y|/(2 r_in) uniform in depth,
    |x| uniform in [0, |y|/(3M)], drawn y then x point by point."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        y = _polar(rng, *depth, 2.0 * chart.inner_radius)
        out.append(Point(_polar(rng, 0.0, abs(y) / (3.0 * chart.region.M)), y))
    return out


@_check("cover.semiconjugacy", 1e-6)
def check_chart_semiconjugacy(chart, n: int = 50, seed: int = 31):
    worst = 0.0
    for z in _chart_points(chart, n, seed):
        w1 = psi_tilde(chart, apply(chart.H, z))
        worst = max(worst, _cover_defect(w1, lift_H(chart, psi_tilde(chart, z))))
    return worst, f"{n} points"


@_check("cover.q_structure", 1.0)
def check_q_structure(chart):
    """Degree d + d', monic defect over 1e-6, and tail purity over its floor,
    from chart.meta: every chart's first read runs its circle check here,
    built or loaded, and a DecayFailed of the circle is a failed record."""
    deg_ok = chart.Q.degree == chart.H.d + chart.H.d_prime
    monic, purity = chart.meta["monic_defect"], chart.meta["tail_purity"]
    defect = max(0.0 if deg_ok else 1.0, monic / 1e-6, purity)
    return defect, f"deg={chart.Q.degree}, monic={monic:.2e}, purity={purity:.2f}"


@_check("cover.deck_relation", 1e-10)
def check_deck(chart, pts: int = 20, seed: int = 37):
    d = chart.H.d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(1, d**n):
            for _ in range(pts):
                w = _cover_sample(rng, 1.2, 2.5)
                l1 = lift_H(chart, deck(chart, DeckLabel.reduced(k, n, d), w))
                l2 = deck(chart, DeckLabel.reduced(k, n - 1, d), lift_H(chart, w))
                worst = max(worst, _cover_defect(l1, l2))
    return worst


@_check("cover.deck_additivity", 1e-10)
def check_deck_additivity(chart, seed: int = 41, levels: int = 2, zeta_range=(1.2, 2.2)):
    """Deck labels add: k1/d^n then k2/d^n equals (k1 + k2)/d^n, for n <= levels."""
    d = chart.H.d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, levels + 1):
        for k1 in range(d**n):
            for k2 in range(d**n):
                w = _cover_sample(rng, *zeta_range)
                l1 = deck(
                    chart, DeckLabel.reduced(k1, n, d), deck(chart, DeckLabel.reduced(k2, n, d), w)
                )
                l2 = deck(chart, DeckLabel.reduced(k1 + k2, n, d), w)
                worst = max(worst, _cover_defect(l1, l2))
    return worst


@_check("cover.projection", 1e-6)
def check_covering_map(chart, n: int = 30, budget: int = 20, seed: int = 43):
    H = chart.H
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        w = _cover_sample(rng, 1.15, 2.0, z_scale=0.4)
        p1 = covering_map(chart, lift_H(chart, w), budget)
        p2 = apply(H, covering_map(chart, w, budget))
        q1 = covering_map(chart, deck(chart, DeckLabel.reduced(1, 1, H.d), w), budget)
        q2 = covering_map(chart, w, budget)
        worst = max(worst, _point_defect(p1, p2), _point_defect(q1, q2))
    return worst, f"{n} points"


@_check("cover.series_identity", 64.0)
def check_r_series(chart, n: int = 50, seed: int = 47):
    """(a/d) R(zeta) - R(zeta^d) against Qtilde(zeta) - Q(zeta), |zeta| in 2MR [1, 3].

    R sums the Laurent coefficients of the table's series composition,
    Qtilde the pointwise one (_qtilde_batch).  Defects count the floor
    eps |Qtilde| of the cancellation, as tail_purity does.  Tolerance 64:
    the lambda Newton's relative 13.5 eps reaches Qtilde d' times, and
    Horner's Q adds about (d + d') eps, 41 eps for d' <= 2.  The fixtures
    read at most 9, the degree-12 charts 28.
    """
    H, rng = chart.H, np.random.default_rng(seed)
    z = np.array([_polar(rng, 1.0, 3.0, 2.0 * chart.inner_radius) for _ in range(n)])
    lhs = [(H.jacobian / H.d) * r_series(chart, v) - r_series(chart, v**H.d) for v in z]
    qt = _qtilde_batch(chart, z)
    defect = np.abs(lhs - (qt - chart.Q(z))) / (np.finfo(float).eps * np.abs(qt))
    return float(defect.max()), f"{n} points, in units of eps |Qtilde|"


def brute_force_d0(d: int, d_prime: int) -> int:
    """Oracle for compute_d0: min s / q over divisors q of s = d + d' built from d's primes.

    A divisor q of s is built from d's primes exactly when q divides d^s,
    because no prime occurs in q more than s times.
    """
    s = d + d_prime
    return min(s // q for q in range(1, s + 1) if s % q == 0 and d**s % q == 0)


@_check("symmetry.d0", 0.0)
def check_d0():
    note = "oracle sweep d<=30"
    if compute_d0(2, 1) != 3 or compute_d0(3, 1) != 4:
        return 1.0, note
    agree = all(
        brute_force_d0(d, dp) == compute_d0(d, dp) for d in range(2, 31) for dp in range(1, d + 1)
    )
    return (0.0 if agree else 1.0), note


@_check("symmetry.group_structure", 0.0)
def symmetry_structure_record(H: HenonMap, report=None):
    """Group-structure test of a symmetry report (by default H's own) as a check record.

    The listed elements must be the powers of one of them (verify_cyclic),
    their number, the report's order, must divide the bound
    (d + d')(d - 1), and every element must commute with H^2 by the factor
    relations of the symmetry.py proof (factor_chain_witness), at every
    degree.  The expanded H^2 comparison of commutes_with_power is not used
    here: its defect is a difference of coefficients as large as those of
    H^2, and on a d = 6 map with a correct group of order 5 it reaches
    1.7e-8 where the chain stays at rounding.  With no report given, the
    timed call includes the symmetry search.
    """
    if report is None:
        report = find_affine_symmetries(H)
    cyclic, order = verify_cyclic(report)
    bound = symmetry_order_bound(H.d, H.d_prime)
    witness = [factor_chain_witness(H, L) for L in report.generators]
    ok = cyclic and order >= 1 and bound % order == 0 and all(w for w, _ in witness)
    note = (
        f"order={order}, bound={bound}, commutation={report.max_commutation_defect:.1e}"
        f", factor-chain witness={max((defect for _, defect in witness), default=0.0):.1e}"
    )
    return (0.0 if ok else 1.0), note


@_check("shortc2.equivariance", 0.0)
def check_sublevel_equivariance(
    H: HenonMap, n: int = 100, c: float = 0.8, seed: int = 53, half_width=None
):
    """z and H(z) fall on the same side of {G+ < c} and {G+ < d c}.

    Samples are uniform in the box |Re|, |Im| <= half_width (default 1.5 R).
    Ambiguous samples are redrawn, at most 50 n draws in all; a run that
    finds fewer than n unambiguous samples fails.
    """
    rng = np.random.default_rng(seed)
    h = 1.5 * filtration_radius(H).R if half_width is None else half_width
    mismatches = used = draws = 0
    while used < n and draws < 50 * n:
        draws += 1
        z = _box_point(rng, h)
        c1 = classify_sublevel(H, c, z, budget=128)
        c2 = classify_sublevel(H, H.d * c, apply(H, z), budget=128)
        if c1.ambiguous or c2.ambiguous:
            continue
        used += 1
        if c1.tag is not c2.tag:
            mismatches += 1
    if used < n:
        return np.inf, f"{used} of {n} points unambiguous in {draws} draws"
    return mismatches, f"{n} points"


def _ulps(v: float, k: int) -> float:
    """v moved by k units in the last place."""
    for _ in range(abs(k)):
        v = np.nextafter(v, np.inf if k > 0 else -np.inf)
    return float(v)


@_check("shortc2.sublevel_band", 1.0)
def check_sublevel_band(
    H: HenonMap, n: int = 40, size: int = 64, picks: int = 2, seed: int = 67, budget: int = 64
):
    """The escape band holds, and sublevel renders equal thresholded G+.

    Band: at n seeded escaping samples with escape step m and y_m,
    |G+ - d^-m log|y_m|| <= d^-m (escape_band + BAND_SLACK).  Classes: on
    a size x size real slice over [-R, R]^2, with c at the computed G+ of
    `picks` seeded escaped pixels, at 1 and 4 ulps either side (where
    sublevel_grid refines every escaped pixel) and 2^-20 above (where it
    refines only the pixels the band leaves open), the
    sublevel render equals the green_plus values thresholded
    (green.sublevel_classes) and shaded as cli.SUBLEVEL_SHADES, and
    sublevel_grid equals the thresholding on the same pixels plus
    infinite, NaN and bail-out points.  The defect is the worst band
    ratio plus the number of differing pixels: at most 1 passes.
    """
    from .cli import _CLASS_SHADES, GridJob, _tile_points, render_grid

    R = filtration_radius(H).R
    width = escape_band(H) + BAND_SLACK
    ratio = 0.0
    for z, g in escaping_samples(H, n, seed, N_max=96):
        m, _, y = escape_orbit(H, complex(z.x), complex(z.y), 96)
        scale = float(H.d) ** -m
        ratio = max(ratio, abs(g - scale * np.log(abs(y))) / (scale * width))
    job = GridJob(
        "real_slice", 0j, (0.0, 0.0), 2.0 * R, 2.0 * R, size, size, "sublevel", 1.0, 1.0
    )
    xs, ys = (np.ravel(a) for a in _tile_points(job, 0, size))
    xs = np.append(xs, [np.inf, np.nan, 0.0, 1e160, 1e200j, 2.0 * R])
    ys = np.append(ys, [np.inf, 1.0, 1e200, 1e155, 1.0, np.inf])
    vals, _, depths = green_plus_grid(H, xs, ys, budget)
    pool = vals[(vals > 0.0) & np.isfinite(vals)]
    rng = np.random.default_rng(seed)
    cs = [
        c
        for v in rng.choice(pool, picks)
        for c in [_ulps(v, k) for k in (-4, -1, 0, 1, 4)] + [v * (1.0 + 2.0**-20)]
    ]
    bad = 0
    for c in cs:
        want = sublevel_classes(vals, depths, budget, c)
        bad += np.count_nonzero(sublevel_grid(H, xs, ys, budget, c) != want)
        image = render_grid(H, replace(job, c=c), budget)
        bad += np.count_nonzero(image.ravel() != _CLASS_SHADES[want[: size * size]])
    return ratio + bad, f"band ratio {ratio:.3f}, {bad} pixels differ, {len(cs)} c values"


@_check("shortc2.modulus_law", 1e-8)
def check_annulus_modulus(chart, n: int = 100, seed: int = 59):
    H = chart.H
    worst = 0.0
    for z, _ in escaping_samples(H, n, seed, N_max=96):
        z1 = annulus_coordinate(chart, z)
        z2 = annulus_coordinate(chart, apply(H, z))
        worst = max(worst, abs(abs(z2) - abs(z1) ** H.d) / abs(z1) ** H.d)
    return worst, f"{n} points"


@_check("cli.render_determinism", 0.0)
def check_render_determinism(H: HenonMap, size: int = 256):
    """Render bytes of one green_plus job at 1, 1 and 8 threads agree.

    The job is size pixels wide and one and a half tiles high
    (cli.TILE_POINTS // size rows per tile), with square pixels 4/size
    across on the real slice: two tiles, so the 8-thread render runs a
    pool of two workers, and one of them takes a ragged tile.
    """
    from .cli import TILE_POINTS, GridJob, quantize, render_grid

    rows = max(1, TILE_POINTS // size)
    ny = rows + max(1, rows // 2)
    job = GridJob(
        plane="real_slice",
        anchor=0j,
        center=(0.0, 0.0),
        width=4.0,
        height=4.0 * ny / size,
        nx=size,
        ny=ny,
        quantity="green_plus",
        c=0.0,
        clamp=3.0,
    )
    b1, b2, b3 = (
        quantize(job, render_grid(H, job, budget=48, threads=t)).tobytes() for t in (1, 1, 8)
    )
    return (0.0 if b1 == b2 == b3 else 1.0), f"{size}x{ny} in 2 tiles, 1 vs 8 threads"


@_check("core.iterate_roundtrip", 1e-12)
def check_iterate_roundtrip(H: HenonMap, seed: int = 61):
    """Round trip H^-3(H^3(z)) = z on orbits that stay in the bounded block.

    Samples the box |Re|, |Im| <= 0.4 R until 50 orbits stay within 2 R, at
    most 5000 tries; a run with no such orbit fails.
    """
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    worst = 0.0
    cnt = 0
    tries = 0
    while cnt < 50 and tries < 5000:
        tries += 1
        orbit = [_box_point(rng, 0.4 * R)]
        for _ in range(3):
            orbit.append(apply(H, orbit[-1]))
        if any(max(abs(p.x), abs(p.y)) > 2.0 * R for p in orbit):
            continue  # oracle only covers bounded orbits
        cnt += 1
        worst = max(worst, _point_defect(iterate(H, orbit[-1], -3), orbit[0]))
    return worst if cnt else np.inf, f"{cnt} orbits"


# ---------------------------------------------------------------------------

def run_suite(H: HenonMap, level: str = "fast"):
    """All checks at the requested scale; 'full' builds the cover chart.

    A chart build that raises a HenonError ends the suite with one failed
    cover.build record naming the exception.
    """
    fast = level != "full"
    k = 2 if fast else 1  # sample divisor
    results = [
        check_inverse_roundtrip(H, n=100 // k),
        check_iterate_roundtrip(H),
        check_filtration_invariance(H, n=10000 // k),
        check_green_functorial(H, n=200 // k),
        check_green_functorial_minus(H, n=60 // k),
        check_green_basics(H),
        check_boettcher(H, n=100 // k),
        check_d0(),
        symmetry_structure_record(H),
        check_sublevel_equivariance(H, n=100 // k),
        check_sublevel_band(H),
    ]
    if not fast:
        t0 = time.perf_counter()
        try:
            with np.errstate(all="ignore"):
                chart = build_chart(H)
        except HenonError as exc:
            return results + [_failed("cover.build", 0.0, time.perf_counter() - t0, exc)]
        results += [
            check_q_structure(chart),
            check_chart_semiconjugacy(chart),
            check_deck(chart),
            check_deck_additivity(chart),
            check_covering_map(chart),
            check_r_series(chart),
            check_annulus_modulus(chart),
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
