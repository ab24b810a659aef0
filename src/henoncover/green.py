"""Forward and backward Green's functions of a generalized Henon map.

G+(z) is the normalized escape rate lim d^-n log+ ||H^n(z)||; it vanishes
exactly on the non-escaping set and satisfies G+(H(z)) = d * G+(z).  An
orbit point (x, y) of the escape region with |y| >= l has G+ within a
proved B(H, l) of log|y| (escape_band), and B falls like 1/l.  So an
escaped orbit is pushed on until |y| passes the stop modulus Y where
B(H, Y) <= tol (_stop_modulus, cached per map and tol), and the value is
d^-m log|y_m| with the bound d^-m B(H, Y) plus its rounding: a few
pushes, no product and no fallback.  G-, the escape rate of H^{-1}, is
G+ of the monic Henon map henon.backward_conjugate(H), conjugate to
H^{-1} by a swap and a diagonal scaling, so both come from the one
green_plus kernel.

The grid kernels (escape_time_grid, green_plus_grid) run the escape test
of escape_orbit over flat arrays in one loop, _escape_steps.  Its full
test runs only on steps where some point lies past the cutoff 2R or past
the bail-out.  Every TRAP_EVERY-th step it retires the points that lie in
a certified trap of K+: a polydisc around an attracting fixed point that
H maps into itself (attracting_traps, whose docstring holds the proof,
also for float orbits).  The full loop would carry such a point to the
budget and call it non-escaping, so every result is the same, bit for
bit.

sublevel_grid, the kernel of sub-level renders {G+ < c}, decides which
side of c an escaped pixel lies on from its escape step n and y_n alone:
escape_band(H) is a proved B with |G+ - d^-n log|y_n|| <= d^-n B, which
also bounds the computed G+ up to a stated slack.  Only the pixels whose
band contains c are refined, and the classes equal thresholding
green_plus_grid byte for byte (for the refined pixels by a measured
guard, see sublevel_grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .filtration import (
    BAIL_OUT,
    ESCAPE_MARGIN,
    classify_point,
    escape_orbit,
    filtration_radius,
)
from .henon import (
    BivariatePoly,
    HenonMap,
    Point,
    apply_xy,
    backward_conjugate,
    component_polynomials,
)
from .symmetry import fixed_points

__all__ = [
    "GreenValue",
    "Membership",
    "green_plus",
    "green_minus",
    "membership",
    "escaping_samples",
    "green_plus_grid",
    "escape_time_grid",
    "escape_band",
    "sublevel_classes",
    "sublevel_grid",
    "Trap",
    "attracting_traps",
]

# no coordinate of a push from below the stop modulus exceeds this (_stop_modulus)
PUSH_CAP = 1e300
# the rounding of d^-m log|y_m| in the computed value, per unit of d^-m log|y_m|
VALUE_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GreenValue:
    value: float
    error_bound: float
    depth: int

    def __post_init__(self):
        if self.value < 0 or self.error_bound < 0:
            raise ValueError("Green data must be nonnegative")


class Membership(Enum):
    ESCAPING = "Escaping"
    NON_ESCAPING_UP_TO_BUDGET = "NonEscapingUpToBudget"


def _bounded_value(H: HenonMap, R: float, N_max: int) -> GreenValue:
    err = float(H.d) ** -N_max * max(1.0, np.log(ESCAPE_MARGIN * R))
    return GreenValue(0.0, err, N_max)


def _pushed_value(H: HenonMap, log_y, depth, band: float):
    """(max(d^-m log|y_m|, 0), d^-m (band + rounding)) at depth m; scalars or arrays."""
    scale = float(H.d) ** -depth
    return np.maximum(scale * log_y, 0.0), scale * (band + VALUE_ROUNDING * log_y)


def _refine_plus(H: HenonMap, x, y, steps, tol: float):
    """G+ at escaped orbit points as (values, error_bounds, depths).

    x[i], y[i] is the orbit of point i at its escape step steps[i].  Each
    point is pushed with H until |y| >= Y = _stop_modulus(H, tol); the
    value is d^-m log|y_m| at the depth m reached (escape_band's docstring
    proves the value and its bound).
    """
    Y, band = _stop_modulus(H, tol)
    depths = steps.copy()
    abs_y = np.abs(y)
    idx = np.flatnonzero(abs_y < Y)
    cx, cy = x[idx], y[idx]
    while idx.size:
        cx, cy = apply_xy(H, cx, cy)
        depths[idx] += 1
        a = np.abs(cy)
        abs_y[idx] = a
        go = a < Y
        if not go.all():
            idx, cx, cy = idx[go], cx[go], cy[go]
    return (*_pushed_value(H, np.log(abs_y), depths.astype(float), band), depths)


def green_plus(H: HenonMap, z: Point, tol: float = 1e-10, N_max: int = 256) -> GreenValue:
    """G+(z) with a reported error bound and the orbit depth used."""
    R = filtration_radius(H).R
    hit = escape_orbit(H, complex(z.x), complex(z.y), R, N_max)
    if hit is None:
        return _bounded_value(H, R, N_max)
    n, x, y = hit
    Y, band = _stop_modulus(H, tol)
    while abs(y) < Y:  # the scalar form of _refine_plus's push
        x, y = apply_xy(H, x, y)
        n += 1
    value, err = _pushed_value(H, math.log(abs(y)), n, band)
    return GreenValue(float(value), float(err), n)


def green_minus(H: HenonMap, z: Point, tol: float = 1e-10, N_max: int = 256) -> GreenValue:
    """G-(z) as G+ of the monic conjugate K of H^{-1} (henon.backward_conjugate).

    G-_H(x, y) = G+_K(y / alpha, x / beta), proved in the backward_conjugate
    docstring; the value, error bound and depth are those of green_plus on K.
    """
    K, alpha, beta = backward_conjugate(H)
    return green_plus(K, Point(z.y / alpha, z.x / beta), tol, N_max)


def membership(H: HenonMap, z: Point, budget: int = 256) -> Membership:
    """Escaping iff the forward orbit reaches the escape region in budget."""
    if classify_point(H, z, filtration_radius(H), budget).escaped:
        return Membership.ESCAPING
    return Membership.NON_ESCAPING_UP_TO_BUDGET


def escaping_samples(
    H: HenonMap, count: int, seed: int, N_max: int, forward: bool = True
):
    """count seeded (z, G(z)) with G = G+ (or G-) > 0.01, z uniform in the 2R box."""
    rng = np.random.default_rng(seed)
    R = filtration_radius(H).R
    green = green_plus if forward else green_minus
    out = []
    while len(out) < count:
        z = Point(
            2.0 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            2.0 * R * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        g = green(H, z, N_max=N_max)
        if g.value > 0.01:
            out.append((z, g.value))
    return out


# ---------------------------------------------------------------------------
# Certified traps of K+ around attracting fixed points.  The grid escape
# loop retires the points that enter one, instead of iterating them to the
# budget.

# delta: the contraction margin of the proof and the test radius (1 - delta) r
TRAP_MARGIN = 1.0 / 256.0
# _escape_steps tests the traps on every TRAP_EVERY-th step
TRAP_EVERY = 8
# the smallest trap radius tried is 2^-TRAP_HALVINGS
TRAP_HALVINGS = 16


@dataclass(frozen=True)
class Trap:
    """The polydisc D_r = {|S (z - p)|max <= r} around a fixed point p of H.

    S = T^-1 for the eigenvector matrix T of DH(p), stored row-major as
    (s11, s12, s21, s22).  reach bounds |x| and |y| over D_r.
    """

    point: Point
    spectral_radius: float
    r: float
    basis_inverse: tuple
    reach: float

    def holds(self, x, y):
        """Points with |S (z - p)|max < (1 - TRAP_MARGIN) r."""
        s11, s12, s21, s22 = self.basis_inverse
        u, v = x - self.point.x, y - self.point.y
        lim = (1.0 - TRAP_MARGIN) * self.r
        return np.maximum(np.abs(s11 * u + s12 * v), np.abs(s21 * u + s22 * v)) < lim


def _jacobian(H: HenonMap, x: complex, y: complex) -> np.ndarray:
    """DH at (x, y): the product of the factor Jacobians [[0, 1], [-a, p'(y)]]."""
    J = np.eye(2, dtype=complex)
    for f in H.factors:
        J = np.array([[0.0, 1.0], [-f.a, f.p.derivative()(y)]]) @ J
        x, y = y, f.p(y) - f.a * x
    return J


def _step_rounding(H: HenonMap, m: float) -> float:
    """Bound on the rounding of one float step of H over |x|, |y| <= m.

    Per factor, Horner on p and the subtraction of a x round by at most
    8 (deg p + 2) eps times sum |c_k| m^k + |a| m (the standard Horner
    bound, widened for complex products); an error e already in (x, y)
    grows to at most max(1, |a| + max|p'|) e; m grows to the image bound.
    """
    eps = np.finfo(float).eps
    err = 0.0
    for f in H.factors:
        cs = [abs(c) for c in f.p.coeffs]
        image = sum(c * m**k for k, c in enumerate(cs)) + abs(f.a) * m
        slope = abs(f.a) + sum(k * c * m ** (k - 1) for k, c in enumerate(cs) if k)
        err = max(1.0, slope) * err + 8.0 * (len(cs) + 1) * eps * image
        m = max(m, image)
    return err


def _trap_radius(H: HenonMap, p: Point, T: np.ndarray, S: np.ndarray):
    """The largest proved r = 2^-k <= 1 for D_r around p, with its reach, or None."""
    P1, P2 = component_polynomials(H)
    g1, g2 = BivariatePoly.var_x(), BivariatePoly.var_y()
    A = g1 * T[0, 0] + g2 * T[0, 1] + p.x
    B = g1 * T[1, 0] + g2 * T[1, 1] + p.y
    F1, F2 = P1(A, B) - p.x, P2(A, B) - p.y
    # |G_ij| per component of G, and the total degree i + j of each entry
    G = [np.abs((F1 * S[i, 0] + F2 * S[i, 1]).c) for i in (0, 1)]
    deg = [np.add.outer(np.arange(g.shape[0]), np.arange(g.shape[1])) for g in G]
    s_norm = float(np.abs(S).sum(axis=1).max())
    t_norm = float(np.abs(T).sum(axis=1).max())
    cond = s_norm * t_norm
    for k in range(TRAP_HALVINGS + 1):
        r = 2.0**-k
        majorant = max(float((g * r**e).sum()) for g, e in zip(G, deg))
        reach = max(abs(p.x), abs(p.y)) + t_norm * r
        if (
            majorant <= (1.0 - TRAP_MARGIN) * r
            and cond * s_norm * _step_rounding(H, reach) <= 0.25 * TRAP_MARGIN * r
        ):
            return r, reach
    return None


@functools.lru_cache(maxsize=64)
def attracting_traps(H: HenonMap) -> tuple:
    """Proved forward-invariant polydiscs around the attracting fixed points.

    For each fixed point p of H (symmetry.fixed_points) whose Jacobian
    J = DH(p) has spectral radius < 1, diagonalise J = T diag(lambda) S
    with S = T^-1, and expand

        G(g) = S (H(p + T g) - p) = sum_ij G_ij g1^i g2^j

    in both components, every coefficient included: the constant term (the
    residual of an inexact p), the linear part (diag(lambda) up to
    rounding) and the nonlinear part.  With r = 2^-k the largest for which

        sum_ij |G_ij| r^(i+j) <= (1 - delta) r    in both components

    (delta = TRAP_MARGIN), every |g1|, |g2| <= r gives |G(g)|max <= (1 - delta) r,
    so H maps D_r = {p + T g : |g|max <= r} into its own shrunken copy: D_r is
    forward-invariant, hence a subset of int K+, the basin of p (Bedford &
    Smillie, Invent. Math. 103, 1991).

    The loop iterates in floats, so the proof must cover float orbits.
    Over D_r, |x|, |y| <= reach = max(|p.x|, |p.y|) + |T|inf r, and one
    float step of H rounds by at most E = _step_rounding(H, reach); the
    trap is kept only if cond(T) |S|inf E <= delta r / 4, with cond(T) =
    |S|inf |T|inf >= 1.  If a float iterate z lies in D_r, its float image
    lies within |S|inf E of H(z) in the g coordinates, at |g|max <=
    (1 - delta) r + delta r / 4 < r: in D_r again.  The rounding of the
    G_ij, of S = T^-1 and of the test itself (a point whose computed
    |S (z - p)|max is below (1 - delta) r) is of the order of
    cond(T) |S|inf E or less and fits in the rest of the margin; an
    ill-conditioned T, as at a double eigenvalue, gets no trap.  So the
    whole float orbit stays in D_r, and where
    reach <= R it never meets the escape test |y| > 2R or the bail-out:
    _escape_steps may retire the point as non-escaping (-1), the answer
    the full loop gives.  Fixed points of H only: a trap around a cycle
    needs a test per cycle point, and the one tried (htwo's 2-cycle,
    r = 1/64) cost more than it saved.
    """
    traps = []
    for p in fixed_points(H):
        J = _jacobian(H, p.x, p.y)
        lam, T = np.linalg.eig(J)
        rho = float(np.abs(lam).max())
        if not rho < 1.0:
            continue
        try:
            S = np.linalg.inv(T)
        except np.linalg.LinAlgError:
            continue
        proved = _trap_radius(H, p, T, S)
        if proved is not None:
            r, reach = proved
            traps.append(Trap(p, rho, r, tuple(complex(s) for s in S.ravel()), reach))
    return tuple(traps)


# ---------------------------------------------------------------------------
# Vector grid evaluation (renderer backend).  The forward escape test of
# escape_orbit and the refinement of green_plus, run over flat arrays with
# masks; deterministic for a fixed input order.

def _escape_steps(H: HenonMap, x, y, R: float, N_max: int):
    """First escape step per point of the flat arrays x, y, or -1.

    Iterates compact copies of the points still in play (gathered again
    only on steps where some point escapes, bails out or is retired) and
    writes each escaped point's coordinates back into x and y at its
    escape step, so x and y hold the escape coordinates of every escaped
    point on return (the other entries are left as given).  While every
    |x|, |y| is at most both the cutoff 2R and BAIL_OUT, no point can
    escape or bail out, so the full test is skipped.  Every TRAP_EVERY-th
    step, points inside one of attracting_traps(H) with reach <= R are
    retired as -1; the attracting_traps docstring proves that the full
    loop returns -1 for them too, so the result is the same.  The traps
    are built only once some point is still live at the first such step.
    """
    traps = None  # built on the first trap step that has live points
    steps = np.full(x.size, -1, dtype=np.int64)
    idx = np.arange(x.size)
    cx, cy = x, y
    cutoff = ESCAPE_MARGIN * R
    quiet = min(cutoff, BAIL_OUT)
    for n in range(N_max + 1):
        ax, ay = np.abs(cx), np.abs(cy)
        far = np.maximum(ax, ay)
        keep = None  # every point stays in play
        if not (far <= quiet).all():
            # some point may escape or bail out (or is NaN): the full test
            esc = (ay >= np.maximum(ax, R)) & (ay > cutoff)
            if esc.any():
                hit = idx[esc]
                steps[hit] = n
                x[hit], y[hit] = cx[esc], cy[esc]
            keep = ~esc & (far <= BAIL_OUT)
        if n == N_max:
            break
        if n % TRAP_EVERY == TRAP_EVERY - 1:
            if traps is None:
                traps = [t for t in attracting_traps(H) if t.reach <= R]
            for t in traps:
                out = ~t.holds(cx, cy)
                keep = out if keep is None else keep & out
        if keep is not None:
            if not keep.any():
                break
            if not keep.all():
                idx = idx[keep]
                cx, cy = cx[keep], cy[keep]
        cx, cy = apply_xy(H, cx, cy)
    return steps


def _flat_escape(H: HenonMap, xs, ys, R: float, N_max: int):
    """(shape, x, y, steps): _escape_steps on flat copies x, y of xs, ys."""
    x = np.asarray(xs, dtype=complex).ravel().copy()
    y = np.asarray(ys, dtype=complex).ravel().copy()
    return np.shape(xs), x, y, _escape_steps(H, x, y, R, N_max)


def escape_time_grid(H: HenonMap, xs, ys, R: float, N_max: int):
    """First escape step per point (N_max where the budget ran out)."""
    shape, _, _, steps = _flat_escape(H, xs, ys, R, N_max)
    return np.where(steps < 0, N_max, steps).reshape(shape)


def green_plus_grid(H: HenonMap, xs, ys, R: float, N_max: int, tol: float = 1e-10):
    """G+ over an array of points; returns (values, error_bounds, depths)."""
    shape, x, y, steps = _flat_escape(H, xs, ys, R, N_max)
    vals = np.zeros(x.size)
    errs = np.full(x.size, _bounded_value(H, R, N_max).error_bound)
    depths = np.full(x.size, N_max, dtype=np.int64)
    esc = np.flatnonzero(steps >= 0)
    vals[esc], errs[esc], depths[esc] = _refine_plus(H, x[esc], y[esc], steps[esc], tol)
    return vals.reshape(shape), errs.reshape(shape), depths.reshape(shape)


# ---------------------------------------------------------------------------
# Sub-level classes {G+ < c} by a proved escape band.  Thresholding
# green_plus_grid needs only the side of c a pixel lies on, and the band
# below decides that side from the escape step alone for nearly every
# escaped pixel; the rest are refined.

# sublevel_grid's allowance for float rounding, in units of d^-n (see escape_band)
BAND_SLACK = 1e-9
# the band decides a pixel only where d^-n (log|y_n| - band) exceeds this
BAND_FLOOR = 2.0**-600
# a refined value within this relative distance of c (plus twice its error
# bound) sends the tile through the whole refinement: a guard for rounding
# that could differ with a point's place in the batch (see sublevel_grid)
PATH_WINDOW = 2.0**-30
# sublevel_classes codes: non-escaping up to the budget, G+ < c, G+ >= c
SUBLEVEL_K_PLUS, SUBLEVEL_BELOW, SUBLEVEL_ABOVE = 0, 1, 2


def _band(H: HenonMap, log_l: float) -> float:
    """B(H, l) for l = exp(log_l) >= 2R: escape_band's sum, its chain started at l."""
    eps = np.finfo(float).eps
    ds = [f.p.degree for f in H.factors]
    factors = [
        (abs(f.a) + sum(map(abs, f.p.coeffs[:-1])), 8.0 * (di + 2) * eps, di, math.prod(ds[i + 1 :]))
        for i, (f, di) in enumerate(zip(H.factors, ds))
    ]
    band, scale = 0.0, 1.0
    while True:
        scale /= H.d
        t = 0.0
        for C, g, di, D in factors:
            r = C * math.exp(-log_l)
            e = r + g * (1.0 + r)
            if not e < 0.5:
                return math.inf
            t -= D * math.log1p(-e)
            log_l = di * log_l + math.log1p(-e)
        band += scale * t
        if scale * t <= 2.0**-60 * band:
            return band + scale * t / (H.d - 1)


@functools.lru_cache(maxsize=64)
def escape_band(H: HenonMap) -> float:
    """A proved B with |G+(z) - d^-n log|y_n|| <= d^-n B at the escape step.

    n is the first step at which (x_n, y_n) = H^n(z) lies in the escape
    region |y_n| >= max(|x_n|, R), |y_n| > 2R of filtration.escape_orbit.
    B = B(H, 2R) of the family B(H, l) below.

    Proof.  Let factor i be (u, v) -> (v, p_i(v) - a_i u) with monic p_i of
    degree d_i, C_i = |a_i| + sum_{k<d_i} |c_k| <= R - 2, and D_i the
    product of the degrees of the later factors.  On V+ (|u| <= |v|,
    |v| >= R >= 2),
    |c_k v^k| <= |c_k| |v|^(d_i - 1) and |a_i u| <= |a_i| |v|^(d_i - 1), so

        p_i(v) - a_i u = v^d_i (1 + w_i),   |w_i| <= C_i / |v|.

    In floats, Horner and the subtraction add at most g_i = 8 (d_i + 2) eps
    times sum |c_k| |v|^k + |a_i| |u| <= |v|^d_i (1 + C_i/|v|) (the bound
    of _step_rounding), so every float factor obeys the same form with
    |w_i| <= e_i(|v|) = C_i/|v| + g_i (1 + C_i/|v|).  Take a point of the
    escape region with |y| >= l >= 2R.  Past 2R, e_i < 1/2 (the sum is
    inf otherwise), so the new |v| >= |v|^d_i / 2 >= |v|: the image stays
    in V+, the moduli met factor after factor never fall, and each is at
    least the lower bound l carried from l by
    log l' = d_i log l + log(1 - e_i(l)).  One step of H gives

        log|y_(k+1)| = d log|y_k| + rho_k,   rho_k = sum_i D_i log|1 + w_i|,

    with |rho_k| <= t_k = sum_i D_i (-log(1 - e_i(l_ki))), and t_k does not
    increase with k because e_i falls as l grows.  So

        G+(x, y) = lim d^-k log|y_k| = log|y| + sum_k d^-(k+1) rho_k

    lies within B(H, l) = sum_k d^-(k+1) t_k of log|y|, and G+(z) = d^-n
    G+(x_n, y_n).  B(H, l) does not increase with l.  The sum (_band) runs
    in logarithms (l overflows a float power within a few steps) until a
    term is below 2^-60 of the sum; the terms after it shrink at least by
    the factor 1/d each, so the term over (d - 1) closes the remainder.
    Its floor as l grows is the rounding, sum_i D_i g_i / (d - 1) (about
    7e-15 for d = 2).

    The pushed value.  _refine_plus and green_plus push (x_n, y_n) with
    float steps of H to the first depth m = n + k with |y_m| >= Y =
    _stop_modulus(H, tol) and return max(d^-m log|y_m|, 0).  The pushes
    are float factor steps, so log|y_m| = d^k log|y_n| + sum_(j<k)
    d^(k-1-j) rho_j with the float rho_j above, and d^-m log|y_m| =
    d^-n (log|y_n| + sum_(j<k) d^-(j+1) rho_j) lies within d^-n B of
    d^-n log|y_n|, term by term: the value sublevel_grid thresholds lies
    in the band it decides by.  The error bound: (x_m, y_m) lies in the
    escape region with |y_m| >= Y, so |G+(x_m, y_m) - log|y_m|| <=
    B(H, Y), and d^-m G+(x_m, y_m) is G+ at the computed orbit (as for
    every orbit method here, the float orbit up to depth m is taken as
    given).  _stop_modulus evaluates B at log Y - 2^-40 and widens it by
    2^-40, which covers the rounding of |y_m|, of exp and of this float
    sum of B (within 2^-40).  The rounding left over: |y_m| within 2 eps
    (hypot), so log|y_m| within eps |log|y_m|| + 2.1 eps; the power d^-m
    and the product within an ulp each; in all below 5 eps
    d^-m log|y_m| + 2.1 eps d^-m <= VALUE_ROUNDING d^-m log|y_m|, as
    log|y_m| > log 4.  The error_bound d^-m (B(H, Y) + VALUE_ROUNDING
    log|y_m|) is the sum of the two.

    sublevel_grid's own d^-n (log|y_n| -+ B) rounds like the value; with
    log|y| <= 710 all of it is below 2e4 eps d^-n < 5e-12 d^-n, a 200th
    of BAND_SLACK.  The relative bounds need normal floats: sublevel_grid
    decides a pixel only where d^-n (log|y_n| - B - BAND_SLACK) >
    BAND_FLOOR = 2^-600, and there the value is at least 2^-600 and,
    since log|y_m| <= 710, d^-m >= 2^-610: both are normal.
    """
    return _band(H, math.log(ESCAPE_MARGIN * filtration_radius(H).R))


@functools.lru_cache(maxsize=256)
def _stop_modulus(H: HenonMap, tol: float):
    """(Y, B(H, Y)): where the G+ push stops for tol, and the band there.

    Y is the smallest l with B(H, l) <= tol, to 2^-10 in log l, clamped
    to [2R, Ymax]; if no l up to Ymax reaches tol, Y = Ymax and the band
    B(H, Ymax) is the error floor.  Ymax = (PUSH_CAP / 1.5^(d-1))^(1/d)
    keeps every push finite: a factor from |v| > 2R >= 2 C_i with
    |u| <= |v| gives |p_i(v) - a_i u| <= |v|^d_i (1 + C_i / |v|) <=
    1.5 |v|^d_i, and the moduli grow factor after factor, so a push from
    |y| < Y meets no coordinate above 1.5^(sum_i D_i) Y^d, where
    sum_i D_i <= 2 d / d_1 - 1 <= d - 1 (each D_i is at least twice the
    next): at most PUSH_CAP, times 1 + O(eps) for rounding.  The band is
    B evaluated at log Y - 2^-40 and widened by 2^-40 (see escape_band).
    """
    lo = math.log(ESCAPE_MARGIN * filtration_radius(H).R)
    hi = max(lo, (math.log(PUSH_CAP) - (H.d - 1) * math.log(1.5)) / H.d)
    if _band(H, lo) <= tol:
        hi = lo
    elif _band(H, hi) <= tol:  # bisect with B(lo) > tol >= B(hi)
        while hi - lo > 2.0**-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _band(H, mid) <= tol else (mid, hi)
    return math.exp(hi), _band(H, hi - 2.0**-40) * (1.0 + 2.0**-40)


def sublevel_classes(vals, depths, N_max: int, c: float):
    """Threshold green_plus_grid output at c, as SUBLEVEL_* codes (int8).

    K+ (up to the budget) where the value is 0 at depth N_max, else
    G+ < c or G+ >= c by the computed value.
    """
    below = np.where(vals < c, SUBLEVEL_BELOW, SUBLEVEL_ABOVE)
    bounded = (vals == 0.0) & (depths == N_max)
    return np.where(bounded, SUBLEVEL_K_PLUS, below).astype(np.int8)


def sublevel_grid(H: HenonMap, xs, ys, R: float, N_max: int, c: float, tol: float = 1e-10):
    """sublevel_classes of green_plus_grid, refining only undecided pixels.

    After _escape_steps, an escaped pixel with escape step n and band
    lo, hi = d^-n (log|y_n| -+ (escape_band(H) + BAND_SLACK)) has a
    computed G+ in [lo, hi] (escape_band's docstring proves it, rounding
    included), so it is below c if hi < c and above c if lo >= c, provided
    lo > BAND_FLOOR.  Only the other escaped pixels go through _refine_plus.

    The band decides pixels by proof; that the refined pixels get the
    classes of green_plus_grid rests on a measurement, not a proof.  The
    push is elementwise, so a refined point meets the same operations
    whether it is refined alone, with the undecided pixels or with every
    escaped pixel; that numpy rounds each element alike wherever it sits
    in an array is measured (the tests compare against thresholding).
    Should it round the last bits differently, the value moves by a few
    eps relative (PATH_WINDOW is about 1e6 times that), or a flipped push
    test |y| < Y moves it by one push, where both values lie within their
    error bounds of G+ and twice this one's bound stands in for the pair.
    So if a refined value lies within 2 err + PATH_WINDOW c of c, or is
    not finite, every escaped pixel is refined as green_plus_grid refines
    it.
    """
    shape, x, y, steps = _flat_escape(H, xs, ys, R, N_max)
    out = np.full(x.size, SUBLEVEL_K_PLUS, dtype=np.int8)
    esc = np.flatnonzero(steps >= 0)
    if esc.size == 0:
        return out.reshape(shape)
    n = steps[esc]
    scale = (float(H.d) ** -np.arange(n.max() + 1.0))[n]
    log_y = np.log(np.abs(y[esc]))
    width = escape_band(H) + BAND_SLACK
    lo, hi = scale * (log_y - width), scale * (log_y + width)
    decided = (lo > BAND_FLOOR) & (hi < np.inf) & ((hi < c) | (lo >= c))
    out[esc] = np.where(hi < c, SUBLEVEL_BELOW, SUBLEVEL_ABOVE)
    rest = esc[~decided]
    if rest.size:
        vals, errs, depths = _refine_plus(H, x[rest], y[rest], steps[rest], tol)
        exact = np.isfinite(vals) & (np.abs(vals - c) > 2.0 * errs + PATH_WINDOW * c)
        if rest.size < esc.size and not exact.all():
            rest = esc
            vals, _, depths = _refine_plus(H, x[esc], y[esc], steps[esc], tol)
        out[rest] = sublevel_classes(vals, depths, N_max, c)
    return out.reshape(shape)
