"""Forward and backward Green's functions of a generalized Henon map.

G+(z) is the normalized escape rate lim d^-n log+ ||H^n(z)||; it vanishes
exactly on the non-escaping set and satisfies G+(H(z)) = d * G+(z).  Once
an orbit is deep in V+, the remaining limit equals log|phi| at that orbit
point, so the value is refined through the Bottcher product rather than by
iterating to overflow.  G-, the escape rate of H^{-1}, is G+ of the monic
Henon map henon.backward_conjugate(H), conjugate to H^{-1} by a swap and a
diagonal scaling, so both come from the one green_plus kernel.

The grid kernels (escape_time_grid, green_plus_grid) run the escape test
of escape_orbit over flat arrays in one loop, _escape_steps.  Its full
test runs only on steps where some point lies past the cutoff 2R or past
the bail-out.  Every TRAP_EVERY-th step it retires the points that lie in
a certified trap of K+: a polydisc around an attracting fixed point that
H maps into itself (attracting_traps, whose docstring holds the proof,
also for float orbits).  The full loop would carry such a point to the
budget and call it non-escaping, so every result is the same, bit for
bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .boettcher import phi_series
from .filtration import (
    BAIL_OUT,
    ESCAPE_MARGIN,
    FiltrationRadius,
    OrbitTag,
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
    "Trap",
    "attracting_traps",
]

# extra forward pushes allowed when the product bound fails at the escape step
MAX_PUSH = 6
FALLBACK_TAIL = np.log(4.0)


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


def _refine_plus(H: HenonMap, x, y, steps, tol: float):
    """G+ at escaped orbit points as (values, error_bounds, depths).

    x[i], y[i] is the orbit of point i at its escape step steps[i].  The
    value is d^-depth (log|y| + log-product tail) once phi_series bounds
    the tail; a point whose bound fails is pushed one more step, at most
    MAX_PUSH times, and then keeps the raw logarithm (a zero tail) with a
    FALLBACK_TAIL error.  x and y are updated in place.
    """
    depths = steps.copy()
    tail = np.zeros(x.size)
    errs = np.full(x.size, FALLBACK_TAIL)
    todo = np.arange(x.size)
    for push in range(MAX_PUSH + 1):
        if todo.size == 0:
            break
        if push:
            tx, ty = apply_xy(H, x[todo], y[todo])
            x[todo], y[todo] = tx, ty
            depths[todo] += 1
        else:
            tx, ty = x, y  # todo is every point: no gather
        S, perr, ok, _ = phi_series(H, tx, ty, tol)
        done = todo[ok]
        tail[done] = S[ok].real
        errs[done] = perr[ok]
        todo = todo[~ok]
    scale = float(H.d) ** (-depths.astype(float))
    vals = np.maximum(scale * (np.log(np.abs(y)) + tail), 0.0)
    return vals, scale * errs, depths


def green_plus(
    H: HenonMap,
    z: Point,
    tol: float = 1e-10,
    N_max: int = 256,
    R: FiltrationRadius | None = None,
) -> GreenValue:
    """G+(z) with a reported error bound and the orbit depth used."""
    if R is None:
        R = filtration_radius(H)
    hit = escape_orbit(H, complex(z.x), complex(z.y), R.R, N_max)
    if hit is None:
        return _bounded_value(H, R.R, N_max)
    n, x, y = hit
    vals, errs, depths = _refine_plus(
        H, np.array([x]), np.array([y]), np.array([n]), tol
    )
    return GreenValue(float(vals[0]), float(errs[0]), int(depths[0]))


def green_minus(H: HenonMap, z: Point, tol: float = 1e-10, N_max: int = 256) -> GreenValue:
    """G-(z) as G+ of the monic conjugate K of H^{-1} (henon.backward_conjugate).

    G-_H(x, y) = G+_K(y / alpha, x / beta), proved in the backward_conjugate
    docstring; the value, error bound and depth are those of green_plus on K.
    """
    K, alpha, beta = backward_conjugate(H)
    return green_plus(K, Point(z.y / alpha, z.x / beta), tol, N_max)


def membership(H: HenonMap, z: Point, budget: int = 256) -> Membership:
    """Escaping iff the forward orbit reaches the escape region in budget."""
    R = filtration_radius(H)
    cls = classify_point(H, z, R, budget)
    if cls.tag is OrbitTag.ESCAPED_FORWARD:
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


def escape_time_grid(H: HenonMap, xs, ys, R: float, N_max: int):
    """First escape step per point (N_max where the budget ran out)."""
    x = np.asarray(xs, dtype=complex).ravel().copy()
    y = np.asarray(ys, dtype=complex).ravel().copy()
    steps = _escape_steps(H, x, y, R, N_max)
    return np.where(steps < 0, N_max, steps).reshape(np.asarray(xs).shape)


def green_plus_grid(H: HenonMap, xs, ys, R: float, N_max: int, tol: float = 1e-10):
    """G+ over an array of points; returns (values, error_bounds, depths)."""
    shape = np.asarray(xs).shape
    x = np.asarray(xs, dtype=complex).ravel().copy()
    y = np.asarray(ys, dtype=complex).ravel().copy()
    steps = _escape_steps(H, x, y, R, N_max)
    vals = np.zeros(x.size)
    errs = np.full(x.size, _bounded_value(H, R, N_max).error_bound)
    depths = np.full(x.size, N_max, dtype=np.int64)
    esc = np.flatnonzero(steps >= 0)
    vals[esc], errs[esc], depths[esc] = _refine_plus(H, x[esc], y[esc], steps[esc], tol)
    return vals.reshape(shape), errs.reshape(shape), depths.reshape(shape)
