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

The grid kernels (escape_time_grid, green_plus_grid, sublevel_grid) run
the escape test of escape_orbit over flat arrays in one loop body,
_escape_steps, and each pixel finishes there, on the step the loop
handles it: at its escape for escape_time_grid and sublevel_grid, and
at the stop modulus for green_plus_grid, whose push runs in the same
loop with green_plus's floats (past the budget where a pixel escapes
near it).  Each kernel reads R = filtration_radius(H).R from the map,
the radius that proves the cutoff 2R, the trap filter and escape_band.
The loop runs the first TRAP_EVERY steps over each block of
BLOCK_POINTS points, where most points escape or are retired, and then
the rest once over the pooled points still in play, so the long tail
of bounded points costs one pass per step, not one per block.  The
inputs are only read, and a finished point leaves only its step and
|y| in two arrays of the input's size; it stays in the work arrays,
masked out of every test, until a quarter of them are finished or its
modulus grows too large (_escape_steps proves that it stays finite).
Every operation is elementwise, so no result depends on the blocks,
the pool or the compaction.  The full escape test runs only on steps
where some point lies past the cutoff 2R or past the bail-out.  Every
TRAP_EVERY-th step it retires the points that lie in a certified trap
of K+: a box inside a polydisc around an attracting fixed point that H
maps into itself (attracting_traps, whose docstring holds the proof,
also for float orbits and for the box).  The full loop would carry such
a point to the budget and call it non-escaping, so every result is the
same, bit for bit.  Real points of a map with real coefficients
(H.is_real: the map stores them as floats) run in float64 rather than
complex arithmetic: while the orbit stays finite every value equals the
real part of the complex run's, so the results are the same bytes
(_escape_steps has the proof), and a call whose float run meets an inf
or NaN is run again as complex (_flat_escape).

sublevel_grid, the kernel of sub-level renders {G+ < c}, decides which
side of c an escaped pixel lies on from its escape step n and |y_n|:
escape_band(H) is a proved B with |G+ - d^-n log|y_n|| <= d^-n B, which
also bounds the computed G+ up to a stated slack.  Only the pixels whose
band contains c get green_plus_grid's value, and the classes equal
thresholding green_plus_grid byte for byte (for those pixels by a
measured guard, see sublevel_grid).  An orbit given up on at the 1e150
bail-out or as NaN reads 0 with an infinite error bound, in green_plus
and green_plus_grid alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .filtration import (
    BAIL_OUT,
    ESCAPE_MARGIN,
    escape_orbit,
    filtration_radius,
)
from .henon import (
    BivariatePoly,
    HenonMap,
    Point,
    _jacobian,
    apply_xy,
    backward_conjugate,
)
from .symmetry import fixed_points

__all__ = [
    "GreenValue",
    "green_plus",
    "green_minus",
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
VALUE_ROUNDING = 8.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class GreenValue:
    value: float
    error_bound: float
    depth: int

    def __post_init__(self):
        if self.value < 0 or self.error_bound < 0:
            raise ValueError("Green data must be nonnegative")


def _bounded_value(H: HenonMap, N_max: int) -> GreenValue:
    err = float(H.d) ** -N_max * max(1.0, np.log(ESCAPE_MARGIN * filtration_radius(H).R))
    return GreenValue(0.0, err, N_max)


def _pushed_value(log_y, scale, band: float):
    """(d^-m log|y_m|, d^-m (band + rounding)) at depth m, scale = d^-m; scalars or arrays.

    The value is never negative, so no clamp at 0 is taken.  Every escaped
    point has |y_n| > 2R >= 4 (R >= 2, filtration_radius), and the pushes
    stop at the first |y_m| >= Y >= 2R, so log|y_m| >= log 4 > 0 (an
    infinite |y_n| gives inf), and d^-m is positive or underflows to +0:
    the product is at least +0.  Python floats give Python floats; the
    bound of an array is formed in place, with the floats of
    d^-m * (band + VALUE_ROUNDING * log|y_m|).
    """
    err = VALUE_ROUNDING * log_y
    err += band
    err *= scale
    return scale * log_y, err


def _scales(H: HenonMap, depths):
    """d^-m for each entry m >= 0 of the integer array depths, by numpy's power."""
    return (float(H.d) ** -np.arange(depths.max(initial=0) + 1.0))[depths]


def green_plus(H: HenonMap, z: Point, tol: float = 1e-10, N_max: int = 256) -> GreenValue:
    """G+(z) with a reported error bound and the orbit depth used.

    An orbit that does not escape within N_max steps reads 0 at depth
    N_max; where it was given up on at BAIL_OUT or as NaN (escape_orbit
    returns False) the bound is infinite, since it may escape later.
    """
    hit = escape_orbit(H, complex(z.x), complex(z.y), N_max)
    if hit is None:
        return _bounded_value(H, N_max)
    if hit is False:
        return GreenValue(0.0, math.inf, N_max)
    n, x, y = hit
    Y, band = _stop_modulus(H, tol)
    while abs(y) < Y:  # the scalar form of _escape_steps's push
        x, y = apply_xy(H, x, y)
        n += 1
    value, err = _pushed_value(math.log(abs(y)), float(H.d) ** -n, band)
    return GreenValue(value, err, n)


def green_minus(H: HenonMap, z: Point, tol: float = 1e-10, N_max: int = 256) -> GreenValue:
    """G-(z) as G+ of the monic conjugate K of H^{-1} (henon.backward_conjugate).

    G-_H(x, y) = G+_K(y / alpha, x / beta), proved in the backward_conjugate
    docstring; the value, error bound and depth are those of green_plus on K.
    """
    K, alpha, beta = backward_conjugate(H)
    return green_plus(K, Point(z.y / alpha, z.x / beta), tol, N_max)


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
# the smallest trap radius tried is 2^-TRAP_HALVINGS, the smallest normal float
TRAP_HALVINGS = 1022
# the box half-width (1 - delta) r / |S|inf is shrunk by this relative slack
# for the rounding of |S|inf, of the half-width and of the box test
BOX_SLACK = 2.0**-40


@dataclass(frozen=True)
class Trap:
    """The polydisc D_r = {|S (z - p)|max <= r} around a fixed point p of H.

    S = T^-1 for the eigenvector matrix T of DH(p), stored row-major as
    (s11, s12, s21, s22).  reach bounds |x| and |y| over D_r.  half_width
    is the h of the box {|x - p.x| < h, |y - p.y| < h} that holds tests,
    which lies inside the (1 - TRAP_MARGIN) r polydisc (attracting_traps).
    """

    point: Point
    spectral_radius: float
    r: float
    basis_inverse: tuple
    reach: float
    half_width: float

    def holds(self, x, y):
        """Points of the box |x - p.x| < h and |y - p.y| < h, h = half_width.

        A real coordinate of p is subtracted as a float, so a float x
        meets float arithmetic only.
        """
        px, py = (c.real if c.imag == 0 else c for c in (self.point.x, self.point.y))
        inside = np.abs(x - px) < self.half_width
        inside &= np.abs(y - py) < self.half_width
        return inside


def _step_rounding(H: HenonMap, m: float) -> float:
    """Bound on the rounding of one float step of H over |x|, |y| <= m.

    Per factor, Horner on p and the subtraction of a x round by at most
    8 (deg p + 2) eps times sum |c_k| m^k + |a| m (the standard Horner
    bound, widened for complex products); an error e already in (x, y)
    grows to at most max(1, |a| + max|p'|) e; m grows to the image bound.
    An operation whose result underflows rounds by at most 2^-1075
    instead, so each operation is also given that much.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    err = 0.0
    for f in H.factors:
        cs = [abs(c) for c in f.p.coeffs]
        image = sum(c * m**k for k, c in enumerate(cs)) + abs(f.a) * m
        slope = abs(f.a) + sum(k * c * m ** (k - 1) for k, c in enumerate(cs) if k)
        err = max(1.0, slope) * err + 8.0 * (len(cs) + 1) * (eps * image + tiny)
        m = max(m, image)
    return err


def _trap_radius(H: HenonMap, p: Point, T: np.ndarray, S: np.ndarray):
    """The largest proved r = 2^-k <= 1 for D_r around p, with its reach, or None."""
    g1, g2 = BivariatePoly.var_x(), BivariatePoly.var_y()
    A = g1 * T[0, 0] + g2 * T[0, 1] + p.x
    B = g1 * T[1, 0] + g2 * T[1, 1] + p.y
    H1, H2 = apply_xy(H, A, B)
    F1, F2 = H1 - p.x, H2 - p.y
    # |G_ij| per component of G, and the total degree i + j of each entry
    G = [np.abs((F1 * S[i, 0] + F2 * S[i, 1]).c) for i in (0, 1)]
    deg = [np.add.outer(np.arange(g.shape[0]), np.arange(g.shape[1])) for g in G]
    s_norm = float(np.abs(S).sum(axis=1).max())
    t_norm = float(np.abs(T).sum(axis=1).max())
    cond = s_norm * t_norm
    if max(float(g[e == 1].sum()) for g, e in zip(G, deg)) >= 1.0 - TRAP_MARGIN:
        return None  # the linear terms alone fail at every r
    for k in range(TRAP_HALVINGS + 1):
        r = 2.0**-k
        # the majorant over r: the terms g r^(e-1) stay finite or underflow
        # by at most 2^-1074 g, far below the margin, where g r^e would not
        majorant = max(float((g * r ** (e - 1.0)).sum()) for g, e in zip(G, deg))
        reach = max(abs(p.x), abs(p.y)) + t_norm * r
        if (
            majorant <= 1.0 - TRAP_MARGIN
            and cond * s_norm * _step_rounding(H, reach) <= 0.25 * TRAP_MARGIN * r
        ):
            return r, reach
    return None


@functools.lru_cache(maxsize=64)
def attracting_traps(H: HenonMap) -> tuple:
    """Proved forward-invariant polydiscs around the attracting fixed points.

    symmetry.fixed_points gives all d fixed points of H, counted with
    multiplicity, from one eigenproblem and a fixed Newton polish; a
    multiple one has the multiplier 1 and is not attracting, and a point
    listed twice (two fixed points closer than the polish resolves) gets
    one trap.  For each fixed point p whose Jacobian J = DH(p) has
    spectral radius < 1, diagonalise J = T diag(lambda) S
    with S = T^-1, and expand

        G(g) = S (H(p + T g) - p) = sum_ij G_ij g1^i g2^j

    in both components, every coefficient included: the constant term (the
    residual of an inexact p), the linear part (diag(lambda) up to
    rounding) and the nonlinear part.  With r = 2^-k the largest for which

        sum_ij |G_ij| r^(i+j) <= (1 - delta) r    in both components

    (delta = TRAP_MARGIN), every |g1|, |g2| <= r gives |G(g)|max <= (1 - delta) r,
    so H maps D_r = {p + T g : |g|max <= r} into its own shrunken copy: D_r is
    forward-invariant, hence a subset of int K+, the basin of p (Bedford &
    Smillie, Invent. Math. 103, 1991).  k runs from 0 to TRAP_HALVINGS =
    1022, so r reaches the smallest normal float (a large coefficient such
    as the 1e110 of y^3 + 1e110 y^2 needs r near 1e-111); divided by r,
    the sum is at least its linear terms sum_(i+j=1) |G_ij| at every r, so
    where those reach 1 - delta in a component no r is tried.

    The loop iterates in floats, so the proof must cover float orbits.
    Over D_r, |x|, |y| <= reach = max(|p.x|, |p.y|) + |T|inf r, and one
    float step of H rounds by at most E = _step_rounding(H, reach); the
    trap is kept only if cond(T) |S|inf E <= delta r / 4, with cond(T) =
    |S|inf |T|inf >= 1.  If a float iterate z lies in D_r, its float image
    lies within |S|inf E of H(z) in the g coordinates, at |g|max <=
    (1 - delta) r + delta r / 4 < r: in D_r again.  The rounding of the
    G_ij and of S = T^-1 is of the order of cond(T) |S|inf E or less and
    fits in the rest of the margin; an ill-conditioned T, as at a double
    eigenvalue, gets no trap.  So the whole float orbit stays in D_r.

    The box.  Trap.holds tests |x - p.x| < h and |y - p.y| < h with
    h = half_width = (1 - delta) r / |S|inf (1 - BOX_SLACK).  For z in the
    box, with u = x - p.x and v = y - p.y,

        |S (z - p)|max = max_i |s_i1 u + s_i2 v| <= |S|inf max(|u|, |v|),

    so the box lies inside the (1 - delta) r polydisc, a subset of D_r.
    A computed |u| below h means |u| < h (1 + 4 eps) (the difference rounds
    each part by eps / 2, hypot by an ulp), and |S|inf and h round by a
    few eps more; BOX_SLACK = 2^-40 covers all of it.  So a point that
    holds accepts lies in D_r, its whole float orbit stays there, and
    where reach <= R it never meets the escape test |y| > 2R or the
    bail-out: _escape_steps may retire the point as non-escaping (-1), the
    answer the full loop gives.  The box costs two differences and two
    moduli per point, against four complex products for the polydisc.
    Fixed points of H only: a trap around a cycle needs a test per cycle
    point, and the one tried (htwo's 2-cycle, r = 1/64) cost more than it
    saved.
    """
    traps = []
    for p in dict.fromkeys(fixed_points(H)):  # each distinct point once
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
            s_norm = float(np.abs(S).sum(axis=1).max())
            h = (1.0 - TRAP_MARGIN) * r / s_norm * (1.0 - BOX_SLACK)
            traps.append(Trap(p, rho, r, tuple(complex(s) for s in S.ravel()), reach, h))
    return tuple(traps)


# ---------------------------------------------------------------------------
# Vector grid evaluation (renderer backend).  The forward escape test of
# escape_orbit and the push of green_plus, run over flat arrays with masks;
# deterministic for a fixed input order.

# points per block of _escape_steps's first TRAP_EVERY steps
BLOCK_POINTS = 16384
# the _escape_steps code of a point given up on at BAIL_OUT or as NaN
GAVE_UP = -2


def _log_push_limit(H: HenonMap) -> float:
    """log Ymax, Ymax = (PUSH_CAP / 1.5^(d-1))^(1/d) (_stop_modulus)."""
    return (math.log(PUSH_CAP) - (H.d - 1) * math.log(1.5)) / H.d


def _escape_steps(H: HenonMap, x, y, N_max: int, Y=None):
    """(steps, mods): the step at which each point of x, y finishes.

    A point escapes on the first step n <= N_max with |y_n| >= max(|x_n|,
    R) and |y_n| > 2R, and finishes on the first step m >= n with |y_m| >=
    Y (or NaN): steps[i] = m and mods[i] = |y_m|.  Y None or 0 finishes a
    point on its escape step; Y = _stop_modulus(H, tol)[0] gives the depth
    and modulus of green_plus's push, the same floats, so a point that
    escapes near the budget keeps stepping past N_max until it reaches Y.
    steps[i] is -1 where the budget runs out first and GAVE_UP where a
    coordinate passes BAIL_OUT or is NaN first; mods[i] is 1 there, and
    mods is None for Y None (escape_time_grid reads the steps alone).  x
    and y are only read.

    The loop steps copies of the points in play, which it compacts from
    time to time (below).  While every |x|, |y| is at most both the cutoff
    2R and BAIL_OUT, no point can escape or bail out, so the full test is
    skipped; likewise the bail-out test, while every |x|, |y| is at most
    BAIL_OUT.  The escape test |y| >= max(|x|, R) and |y| > 2R is taken as
    |y| >= |x| and |y| > 2R, the same test since 2R >= R.  On a one-factor
    map the next x is the current y itself, so its modulus is reused rather
    than taken again, and so is the largest |y| as a bound on the largest
    |x|: dropping points only lowers the true largest |x|, and a test run
    where the true moduli would have let it be skipped finds nothing (an
    escape needs |y| > 2R, a bail-out a modulus past BAIL_OUT), so the
    bound changes no result.  Every TRAP_EVERY-th step, points inside one
    of attracting_traps(H) with reach <= R are retired as -1; the
    attracting_traps docstring proves that the full loop returns -1 for
    them too, so the result is the same.  The traps are built only once
    some point still seeks its escape at the first such step.

    The loop body runs in two phases.  Steps 0 ... TRAP_EVERY - 1, which
    end with the first trap test, run over each block of BLOCK_POINTS
    input points in turn, where most points escape or are retired while
    the arrays stay small.  The points still in play in all blocks are
    then pooled and run once to the budget, and past it while some escaped
    point is below Y, so the long tail of bounded points costs one pass
    per step instead of one per block.

    Finished points stay in the arrays, masked out of every test, and are
    stepped with the rest, which saves gathering every array on each step
    where a few points finish.  The arrays are compacted to the points in
    play when a quarter of them are finished, at the budget (where every
    point that has not escaped finishes), and on a step where some
    modulus exceeds Ymax = exp(_log_push_limit(H)) <= 8.2e149 < BAIL_OUT
    or is NaN; the rule is checked on every step that runs a test.  A
    finished point stays finite.  It finished by a trap, and its float
    orbit stays in the trap (attracting_traps), or it escaped, and lies in
    the escape region with |y| > 2R: a point given up on has a modulus
    past BAIL_OUT or a NaN, and the arrays are compacted on that step.  An
    escaped point's float step stays in the escape region and, from |y| <=
    Ymax, meets no coordinate above 1.5^(d-1) Ymax^d = PUSH_CAP, times
    1 + O(eps) (escape_band and _stop_modulus prove both).  A step without
    a test is quiet: every modulus is at most 2R or BAIL_OUT, so no
    escaped point is in the arrays then.  So every escaped point that is
    stepped starts at most at Ymax, every inf or NaN the loop meets
    belongs to a point in play, and the results are those of a loop that
    drops each point when it finishes.  A point's result does not depend
    on the phase, the compaction or the other points of its array: every
    operation on it is elementwise, and a test skipped because no point of
    the array lies past the cutoff or the bail-out would have left it in
    play anyway.  So the results are those of one run over all points, for
    any BLOCK_POINTS.

    x and y are complex, or float64 for a map with real coefficients.  H
    stores those as floats, so a float run stays float64, and it returns
    what the complex run on x + 0j, y + 0j returns, bit for bit, or None
    once some coordinate of a block or of the pool is not finite
    (_flat_escape then runs all the points again as complex); a finished
    point never causes that (above).
    Proof.  Compare the two runs operation by operation while every value
    is finite.  Claim: each complex value has imaginary part +-0 and a real
    part equal to the float value, as a number (a zero may differ in
    sign).  The inputs x + 0j and the coefficients, which numpy promotes
    from c to c + 0i in the complex run, hold it.
    Complex + and - act on the parts one by one: the real part is the
    float sum, the imaginary part (+-0) +- (+-0) = +-0.  A complex product
    (a + b i)(c + d i) with b, d = +-0 and a, c finite has the imaginary
    part a d + b c = +-0 and the real part a c - b d = a c - (+-0),
    rounded once, also where an FMA forms it: the float product a c.
    Zeros of either sign stay zeros under +, - and *, and equal nonzero
    operands give equal results, so the claim carries to every
    intermediate of a step.  Then |re + (+-0) i| = hypot(re, 0) = |re|
    exactly, so every modulus, test, finish, mods entry and step count is
    the same in both runs; Trap.holds subtracts the trap centre from a
    float x as x + 0j, a number equal to the complex run's x, so it forms
    the same test (for a real centre it subtracts the real part alone, and
    |(x - re p) + (+-0) i| = |x - re p| exactly).  Everything computed
    from steps and mods (green_plus_grid's values, sublevel_grid's band)
    is then the same bytes.  The argument needs finite values: after a
    product overflows, inf * 0 puts NaN into the complex run's imaginary
    part, and a point the float run escapes at inf the complex run drops
    as NaN.  An inf or NaN never turns finite again under +, - and *, so
    the first non-finite intermediate shows in a coordinate at the next
    max(), where the float run gives up.
    """
    steps = np.full(x.size, -1, dtype=np.int64)
    mods = None if Y is None else np.ones(x.size)
    real = x.dtype.kind == "f"
    R = filtration_radius(H).R
    cutoff = ESCAPE_MARGIN * R
    quiet = min(cutoff, BAIL_OUT)
    ymax = math.exp(_log_push_limit(H))
    one_factor = len(H.factors) == 1
    traps = None  # built on the first trap step that has a seeking point

    def run(idx, cx, cy, push, n, n1):
        """Steps n ... n1 - 1 (n1 None: until none is in play) of the points idx.

        They lie at cx, cy, and push marks those that have escaped and are
        still below Y.  Returns the points in play at step n1 as (idx, cx,
        cy, push), or None where a float run meets an inf or NaN.
        """
        nonlocal traps
        seek = ~push  # the points in play that have not escaped
        npush = int(np.count_nonzero(push))
        nseek = idx.size - npush
        ax = np.abs(cx)
        top_x = ax.max()
        while n != n1:
            ay = np.abs(cy)
            top_y = ay.max()
            tested = False  # whether a point may have finished on this step
            if not (top_x <= quiet and top_y <= quiet):
                if real and not (top_x < np.inf and top_y < np.inf):
                    return None  # inf or NaN: the float run no longer matches
                # some point may escape or bail out (or is NaN): the full test
                esc = ay > cutoff
                esc &= ay >= ax
                if nseek < idx.size:
                    esc &= seek
                nesc = np.count_nonzero(esc)
                if nesc:
                    seek ^= esc  # every escaped point was seeking
                    nseek -= nesc
                if npush:
                    esc |= push
                if nesc or npush:
                    if Y:  # without Y a point finishes on its escape
                        push = esc & (ay < Y)
                        esc ^= push
                        npush = np.count_nonzero(push)
                    hit = idx[esc]  # the points that finish on this step
                    steps[hit] = n
                    if mods is not None:
                        mods[hit] = ay[esc]
                if not (top_x <= BAIL_OUT and top_y <= BAIL_OUT):
                    gone = seek & ~(np.maximum(ax, ay) <= BAIL_OUT)
                    steps[idx[gone]] = GAVE_UP
                    seek ^= gone
                    nseek -= np.count_nonzero(gone)
                tested = True
            if n == N_max:
                seek[:] = False
                nseek, tested = 0, True
            elif n % TRAP_EVERY == TRAP_EVERY - 1 and nseek:
                if traps is None:
                    traps = [t for t in attracting_traps(H) if t.reach <= R]
                for t in traps:
                    seek &= ~t.holds(cx, cy)
                nseek, tested = np.count_nonzero(seek), True
            kept = nseek + npush
            if tested and kept < idx.size and (
                n == N_max
                or 4 * (idx.size - kept) >= idx.size
                or not (top_x <= ymax and top_y <= ymax)
            ):
                if not kept:
                    return idx[:0], cx[:0], cy[:0], push[:0]
                # gathered by index, which costs less than a mask per array
                live = np.flatnonzero(seek | push if npush else seek)
                idx, cx, cy = idx[live], cx[live], cy[live]
                push = push[live] if npush else np.zeros(kept, dtype=bool)
                seek = ~push
                if one_factor:
                    ay = ay[live]
            cx, cy = apply_xy(H, cx, cy)
            if one_factor:  # top_y still bounds the kept moduli
                ax, top_x = ay, top_y
            else:
                ax = np.abs(cx)
                top_x = ax.max()
            n += 1
        live = np.flatnonzero(seek | push)
        return idx[live], cx[live], cy[live], push[live]

    # the first TRAP_EVERY steps block by block, then the rest pooled
    pool = []
    for b in range(0, x.size, BLOCK_POINTS):
        bx, by = x[b : b + BLOCK_POINTS], y[b : b + BLOCK_POINTS]
        rest = run(np.arange(b, b + bx.size), bx, by, np.zeros(bx.size, dtype=bool), 0, TRAP_EVERY)
        if rest is None:
            return None
        pool.append(rest)
    if pool:
        idx, cx, cy, push = (np.concatenate(a) for a in zip(*pool))
        if idx.size and run(idx, cx, cy, push, TRAP_EVERY, None) is None:
            return None
    return steps, mods


def _flat_escape(H: HenonMap, xs, ys, N_max: int, Y=None):
    """(shape, (steps, mods)): _escape_steps on flat arrays x, y of xs, ys.

    x and y are float64 where H.is_real and neither xs nor ys is complex,
    and complex otherwise; they are views of xs, ys where the dtype and
    layout allow, since _escape_steps only reads them.  A float run that
    meets an inf or NaN is dropped and the points run again as complex,
    so the result is the complex run's.  Both runs ignore overflow and
    invalid values: an orbit that overflows or turns NaN is given up on
    (GAVE_UP), and that give-up is already in the result, so neither
    emits a RuntimeWarning.
    """
    shape = np.shape(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        if H.is_real and not (np.iscomplexobj(xs) or np.iscomplexobj(ys)):
            x, y = np.asarray(xs, dtype=float).ravel(), np.asarray(ys, dtype=float).ravel()
            result = _escape_steps(H, x, y, N_max, Y)
            if result is not None:
                return shape, result
        x, y = np.asarray(xs, dtype=complex).ravel(), np.asarray(ys, dtype=complex).ravel()
        return shape, _escape_steps(H, x, y, N_max, Y)


def escape_time_grid(H: HenonMap, xs, ys, N_max: int):
    """First escape step per point; N_max where the budget ran out first,
    or where the orbit was given up on at BAIL_OUT or as NaN."""
    shape, (steps, _) = _flat_escape(H, xs, ys, N_max, None)
    return np.where(steps < 0, N_max, steps).reshape(shape)


def green_plus_grid(H: HenonMap, xs, ys, N_max: int, tol: float = 1e-10):
    """G+ over an array of points; returns (values, error_bounds, depths).

    Each escaped point is pushed to the stop modulus inside the escape
    loop (_escape_steps with Y = _stop_modulus(H, tol)[0]), with the
    floats of green_plus's push; the value is d^-m log|y_m| (_pushed_value).
    A point that does not escape within N_max steps reads 0 at depth N_max,
    with an infinite error bound where the orbit was given up on at
    BAIL_OUT or as NaN (it may escape later, or be no point at all).
    """
    Y, band = _stop_modulus(H, tol)
    shape, (depths, mods) = _flat_escape(H, xs, ys, N_max, Y)
    bounded, given_up = depths < 0, depths == GAVE_UP
    depths[bounded] = N_max
    # mods is 1 where no point escaped, so the value there is d^-N_max * 0 = 0
    vals, errs = _pushed_value(np.log(mods, out=mods), _scales(H, depths), band)
    errs[bounded] = _bounded_value(H, N_max).error_bound
    errs[given_up] = np.inf
    return vals.reshape(shape), errs.reshape(shape), depths.reshape(shape)


# ---------------------------------------------------------------------------
# Sub-level classes {G+ < c} by a proved escape band.  Thresholding
# green_plus_grid needs only the side of c a pixel lies on, and the band
# below decides that side from the escape step alone for nearly every
# escaped pixel; the rest get green_plus_grid's value.

# sublevel_grid's allowance for float rounding, in units of d^-n (see escape_band)
BAND_SLACK = 1e-9
# the band decides a pixel only where d^-n (log|y_n| - band) exceeds this
BAND_FLOOR = 2.0**-600
# an undecided pixel's value within this relative distance of c (plus twice
# its error bound) sends every escaped pixel of the tile through
# green_plus_grid: a guard for rounding that could differ with a point's
# place in the batch (see sublevel_grid)
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

    The pushed value.  green_plus and _escape_steps push (x_n, y_n) with
    float steps of H to the first depth m = n + k with |y_m| >= Y =
    _stop_modulus(H, tol) and return d^-m log|y_m|, which is never
    negative: |y_m| >= min(|y_n|, Y) >= 2R >= 4, so log|y_m| > 0 and
    d^-m log|y_m| >= +0 (_pushed_value), and no clamp at 0 acts.  The pushes
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
    hi = max(lo, _log_push_limit(H))
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


def _entries(a, flat):
    """The entries of the array a at the flat (row-major) indices flat, without copying a."""
    a = np.atleast_1d(a)
    return a[np.unravel_index(flat, a.shape)]


def sublevel_grid(H: HenonMap, xs, ys, N_max: int, c: float, tol: float = 1e-10):
    """sublevel_classes of green_plus_grid, taking G+ only where the band leaves c open.

    _escape_steps leaves each escaped pixel's escape step n and |y_n|, and
    its band lo, hi = d^-n (log|y_n| -+ (escape_band(H) + BAND_SLACK))
    holds its computed G+ (escape_band's docstring proves it, rounding
    included), so it is below c if hi < c and above c if lo >= c, provided
    lo > BAND_FLOOR.  Only the undecided pixels get green_plus_grid's
    value, from their own coordinates.

    The band decides pixels by proof; that the undecided pixels get the
    classes of green_plus_grid over the whole grid rests on a measurement,
    not a proof.  The escape loop and its push are elementwise, so a
    pixel meets the same operations whether green_plus_grid takes it alone,
    with the undecided pixels or with the whole grid; that numpy rounds
    each element alike wherever it sits in an array is measured (the tests
    compare against thresholding).
    Should it round the last bits differently, the value moves by a few
    eps relative (PATH_WINDOW is about 1e6 times that), or a flipped push
    test |y| < Y moves it by one push, where both values lie within their
    error bounds of G+ and twice this one's bound stands in for the pair.
    So if an undecided pixel's value lies within 2 err + PATH_WINDOW c of
    c, or is not finite, every escaped pixel takes its class from
    green_plus_grid over all of them.
    """
    shape, (steps, mods) = _flat_escape(H, xs, ys, N_max, 0.0)
    escaped = steps >= 0
    steps[~escaped] = 0
    # mods is 1 where no point escaped: log|y| = 0 and lo < 0 there; lo and
    # hi are d^-n (log|y_n| -+ width), formed in place.  An infinite width
    # or |y_n| can give inf - inf or inf * 0: the NaN decides nothing
    scale, width = _scales(H, steps), escape_band(H) + BAND_SLACK
    with np.errstate(invalid="ignore"):
        lo = np.log(mods, out=mods) - width
        lo *= scale
        hi = np.add(mods, width, out=mods)
        hi *= scale
    decided = (lo > BAND_FLOOR) & (hi < np.inf) & ((hi < c) | (lo >= c))
    out = np.where(hi < c, np.int8(SUBLEVEL_BELOW), np.int8(SUBLEVEL_ABOVE))
    out[~escaped] = SUBLEVEL_K_PLUS
    rest = np.flatnonzero(escaped & ~decided)
    if rest.size:
        vals, errs, depths = green_plus_grid(H, _entries(xs, rest), _entries(ys, rest), N_max, tol)
        exact = np.isfinite(vals) & (np.abs(vals - c) > 2.0 * errs + PATH_WINDOW * c)
        if not exact.all() and rest.size < np.count_nonzero(escaped):
            rest = np.flatnonzero(escaped)
            vals, _, depths = green_plus_grid(H, _entries(xs, rest), _entries(ys, rest), N_max, tol)
        out[rest] = sublevel_classes(vals, depths, N_max, c)
    return out.reshape(shape)
