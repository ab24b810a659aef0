"""Bottcher coordinate phi on V+, its y-inverse lambda, and loop winding.

phi conjugates H to the d-th power map near the y-axis at infinity:
phi(H(z)) = phi(z)^d and log|phi| is the forward Green's function.  It is
computed as an orbit product

    phi(x, y) = y * prod_j (1 + q_j / y_j^d)^(1/d^(j+1)),

q = pi_2(H) - y^d, with principal logarithms (each factor satisfies
|q/y^d| <= 1/2 inside the working region, enforced step by step).

phi_series is the one product loop on arrays, and it always carries the
y-tangent of the orbit alongside phi (forward-mode differentiation): its
callers, the lambda Newton and dphi_dy_vec, need dphi/dy.  Each factor
is one call of _phi_step, on arrays or on Python complex scalars:

- _phi_batch, behind phi_series, iterates compact copies of its live
  points and writes a point's results back once, when it retires (tail
  below tol, a bad factor, or |y| past the y^d cap).  One reduction per
  step decides each of the three tests, and the live copies are compacted
  only after a step where some but not all points retire (none, in the
  fixtures' chart builds: every torus node stops at the same step).  The
  lambda Newton carries its active nodes compactly in the same way.  A
  point's result does not depend on the other points of the call.
- _phi_point, bottcher_phi's alone, runs one point on Python complex
  scalars, about a tenth of a numpy call's cost, and returns S, ok and
  bad_step: no tangent and no tail bound.  bottcher_phi forms
  phi = y exp(S) with the ufuncs np.multiply and np.exp, which from equal
  S give the arrays' y * np.exp(S) bit for bit; Python's * or a numpy
  scalar's * does not (Python's * matched 1,476 of 1,995 seeded htwo
  points).

The two drivers take the log term log(1 + w) differently, each the
cheapest accurate form for its number type.  On arrays it is
log1p(u (2 + u) + v^2) / 2 + i arctan2(v, 1 + u) for w = u + iv: numpy's
complex log costs 115-165 ns a point for |w| <= 1/2, about ten times the
real log1p and arctan2, and rounding 1 + w first leaves an absolute error
of up to eps however small w is.  On scalars it is cmath.log(1.0 + w),
one C call, where the same formula in Python costs several times as much.
y^d is a product of repeated squares on arrays (_ipow: numpy's complex **
runs an element-wise cpow for d >= 3) and CPython's ** on scalars, which
multiplies in the same order.

The scalar path does the same additions and multiplications, so it pushes
the same orbit, but its complex division and logarithm are CPython's, not
numpy's.  Against the batch result for the same point, ok and bad_step
are equal and S is within 4 eps (eps = 2^-52; measured at most 1.3 eps
over 400 points on each fixture and 60 on each of 100 seeded random
maps).  A zero divisor or log(0) reruns the point on arrays, which follow
IEEE arithmetic.  A NaN coordinate gives a NaN |w|, which counts as a bad
factor at its first step.

The working region is W+_M = {|y| > M*max(|x|, R)}, with M the smallest
power of two >= 2 for which a factor-by-factor bound proves |w| <= 1/2 and
H(W+_M) inside W+_M (certify_region); the product converges there (Hubbard
& Oberste-Vorth, Henon mappings in the complex domain I, 1994).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import FiltrationRadius, filtration_radius
from .henon import (
    HenonError,
    HenonMap,
    Point,
    apply_xy,
    second_component_correction,
)

__all__ = [
    "OutsideRegion",
    "NoConvergence",
    "RefinementBudgetExceeded",
    "BoettcherRegion",
    "certify_region",
    "bottcher_phi",
    "alpha_of_loop",
    "phi_series",
    "dphi_dy_vec",
    "lambda_vec",
    "dlambda_dy_vec",
    "in_region_xy",
]

PRODUCT_BOUND = 0.5  # enforced per-factor bound on |q/y^d|
PHI_MAX_STEPS = 64  # phi_series: factors taken before the tail bound d^-(steps+1)
LOOP_PUSH_BUDGET = 64  # alpha_of_loop: pushes by H to bring a loop into W+_M
LOOP_REFINEMENTS = 12  # alpha_of_loop: doublings of the samples per edge


class OutsideRegion(HenonError):
    def __init__(self, step: int = 0, detail: str = ""):
        self.step = step
        super().__init__(
            f"point left the certified product region at step {step}"
            + (f" ({detail})" if detail else "")
        )


class NoConvergence(HenonError):
    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(f"Newton did not converge in {iterations} steps")


class RefinementBudgetExceeded(HenonError):
    pass


@dataclass(frozen=True)
class BoettcherRegion:
    M: float
    R: FiltrationRadius


@functools.lru_cache(maxsize=64)
def _series_consts(H: HenonMap):
    """(c0, ycap, ((p, p', a) per factor)) for phi_series, built once per map.

    c0 bounds |q(x, y)| <= c0 * max(|x|, |y|)^(d-1); q has total degree d-1.
    ycap = 10^(280/d) caps |y| before a step, so that y^d stays below 1e280.
    """
    c0 = 1.0 + float(np.abs(second_component_correction(H).c).sum())
    ycap = 10.0 ** (280.0 / H.d)
    return c0, ycap, tuple((f.p, f.p.derivative(), f.a) for f in H.factors)


def _ipow(y, d: int):
    """y**d for an integer d >= 1 by repeated squaring, low bits first.

    This is the product order of CPython's complex ** for small integer
    exponents, so on Python complex scalars it equals y**d bitwise.  On
    arrays it costs about one multiply per point per product, where
    numpy's complex ** takes an element-wise cpow for d >= 3.
    """
    out = None
    while True:
        if d & 1:
            out = y if out is None else out * y
        d >>= 1
        if not d:
            return out
        y = y * y


def _log1p_array(w):
    """log(1 + w) on a complex array, from log1p and arctan2 of w's parts.

    Re = log|1 + w| = log1p(u (2 + u) + v^2) / 2 and Im = arctan2(v, 1 + u),
    w = u + iv.  For |w| <= 1/2 each part is within a few eps |w| of the
    exact value, where np.log(1.0 + w) rounds 1 + w first and is off by up
    to eps absolute; it also costs about a tenth of numpy's complex log.
    """
    u, v = w.real, w.imag
    out = np.empty(w.shape, dtype=complex)
    out.real = 0.5 * np.log1p(u * (2.0 + u) + v * v)
    out.imag = np.arctan2(v, 1.0 + u)
    return out


def _log1p_scalar(w: complex) -> complex:
    """log(1 + w) on a Python complex; cmath.log is one C call."""
    return cmath.log(1.0 + w)


def _phi_step(factors, d, x, y, tx, ty, scale, log1p, power):
    """One factor of the orbit product at (x, y), on arrays or on scalars.

    Pushes (x, y) through H and, when tx is not None, the y-tangent
    (tx, ty) as (dx, dy) -> (dy, p'(y) dy - a dx).  Returns
    (nx, ny, ntx, nty, |w|, term, dterm) with w = ny / y^d - 1, the log term
    scale * log(1 + w) and its y-derivative dterm (None without a tangent).
    log1p(w) = log(1 + w) and power(y, d) = y^d are _log1p_array and _ipow
    on arrays and _log1p_scalar and pow on scalars (see the module
    docstring).
    """
    nx, ny, ntx, nty = x, y, tx, ty
    for p, dp, a in factors:
        nx, ny = ny, p(ny) - a * nx
        if tx is not None:
            ntx, nty = nty, dp(nx) * nty - a * ntx
    w = ny / power(y, d) - 1.0
    term = scale * log1p(w)
    dterm = None if tx is None else scale * (nty / ny - d * ty / y)
    return nx, ny, ntx, nty, abs(w), term, dterm


def _next_term_bound(c0: float, d: int, scale: float, mag):
    """Bound on the next log term of the product, the orbit being at |y| = mag.

    On W+_M, |x| < |y| and |q| <= c0 |y|^(d-1), so |w| <= c0 / |y|; with
    |log(1 + w)| <= 2|w| for |w| <= 1/2 and the next term's scale scale/d,
    that term is at most 2 c0 scale / (d |y|), and the terms after it fall
    doubly exponentially.  The current term alone bounds nothing: q can
    vanish at one step and not at the next (at x = 0 on a map whose p is
    y^d, w is 0 at the first step).
    """
    return 2.0 * c0 * scale / d / mag


def _phi_one(H: HenonMap, x: complex, y: complex, tol: float):
    """The orbit product of one point in Python complex arithmetic.

    Returns (S, ok, bad_step) as scalars.  Division by zero, log(0) or an
    overflowing |.| raise instead of giving IEEE infinities; _phi_point
    then reruns the point on arrays.
    """
    c0, ycap, factors = _series_consts(H)
    d = H.d
    S = 0j
    mag = abs(y)
    for j in range(PHI_MAX_STEPS):
        if mag > ycap:
            break
        scale = float(d) ** -(j + 1)
        x, y, _, _, aw, term, _ = _phi_step(factors, d, x, y, None, None, scale, _log1p_scalar, pow)
        if not aw <= PRODUCT_BOUND:  # a NaN |w| is a bad factor too
            return S, False, j
        mag = abs(y)
        S += term
        if max(abs(term), _next_term_bound(c0, d, scale, mag)) < tol:
            break
    return S, True, -1


def _phi_point(H: HenonMap, x: complex, y: complex, tol: float):
    """(S, ok, bad_step) of one point, bottcher_phi's driver.

    _phi_one, or where it meets exceptional arithmetic (a zero divisor,
    log(0), an overflowing |.|) the batch driver, which gives IEEE values.
    """
    try:
        return _phi_one(H, x, y, tol)
    except (ArithmeticError, ValueError):
        S, _, ok, bad_step, _ = _phi_batch(H, np.array([x]), np.array([y]), tol)
        return S[0], ok[0], bad_step[0]


def _take(keep, *arrays):
    return tuple(a[keep] for a in arrays)


def _phi_batch(H: HenonMap, x, y, tol: float):
    """phi_series on flat arrays, iterating compact copies of the live points.

    live maps the copies back to output indices; S/err/ok/bad_step/dS are
    written once per point, when it retires: before a step if its |y| is
    past the y^d cap, after a step on a bad factor (|w| > 1/2 or NaN) or
    once its tail is below tol.  One reduction over the live points decides
    each test (max |y| for the cap, max |w| for a bad factor, min tail for
    the stop), and the masks are formed only when it says some point is
    affected; so is the cap's tail constant, from the previous factor's |w|
    and |y|.  The tail itself is formed only once the bound at max |y| is
    below tol.  keep marks the points that go on once some have stopped;
    the live copies are compacted only then, at the start of the next step
    and together with the cap's retirements, and when none go on the loop
    ends.

    S and dS accumulate in place, but no product writes over one of its own
    operands: on numpy 2.4.6, np.multiply(t, b, out=t), c * t into t and
    t * t into t each round differently from the out-of-place product on
    one-element complex arrays (862 to 1,347 of 3,000 seeded products per
    form), while sizes 2-69, 127-129, 1023, 4097 and 16385 matched, and so
    did in-place sums at every size.  One-point calls reach this driver
    through _phi_point's fallback and the tests.
    """
    c0, ycap, factors = _series_consts(H)
    d = H.d
    n = x.size
    S = np.zeros(n, dtype=complex)
    err = np.zeros(n, dtype=float)
    ok = np.ones(n, dtype=bool)
    bad_step = np.full(n, -1, dtype=int)
    dS = np.zeros(n, dtype=complex)

    if not n:
        return S, err, ok, bad_step, dS
    live = np.arange(n)
    s, ds = S.copy(), dS.copy()
    tx, ty = np.zeros(n, dtype=complex), np.ones(n, dtype=complex)

    def retire(mask):
        idx = live[mask]
        S[idx] = s[mask]
        dS[idx] = ds[mask]
        return idx

    # a bad factor may divide by zero or take log(0); it is reported in ok
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(y)
        top, keep = mag.max(), None  # keep: the live points that go on, once some stop
        for j in range(PHI_MAX_STEPS):
            scale = float(d) ** -(j + 1)

            # points too large for another y^d: bound the tail by the previous
            # factor's |w| |y| = |q| / |y|^(d-1) (c0 before the first), retire them
            if not top <= ycap:  # a NaN max forms the mask too
                huge = mag > ycap if keep is None else keep & (mag > ycap)
                c = c0 if j == 0 else np.maximum(aw[huge] * mag_in[huge], 1e-300)
                err[retire(huge)] = scale * 2.0 * c / mag[huge]
                keep = ~huge if keep is None else keep & ~huge
            if keep is not None:
                if not keep.any():
                    break
                live, x, y, tx, ty, s, ds, mag = _take(keep, live, x, y, tx, ty, s, ds, mag)
                keep = None

            mag_in = mag
            x, y, tx, ty, aw, term, dterm = _phi_step(
                factors, d, x, y, tx, ty, scale, _log1p_array, _ipow
            )
            mag = np.abs(y)
            top = mag.max()
            if not aw.max() <= PRODUCT_BOUND:  # a NaN |w| is a bad factor too
                keep = aw <= PRODUCT_BOUND
                idx = retire(~keep)
                ok[idx], bad_step[idx] = False, j
            s += term
            ds += dterm

            # stop once the current term and the bound on the next are below
            # tol (none is while the bound at max |y| is not; no tail is NaN
            # without a bad factor); twice the larger bounds the remaining tail
            if not _next_term_bound(c0, d, scale, top) >= tol:
                tail = np.maximum(np.abs(term), _next_term_bound(c0, d, scale, mag))
                if keep is not None or tail.min() < tol:
                    done = tail < tol if keep is None else keep & (tail < tol)
                    err[retire(done)] = 2.0 * tail[done]
                    keep = ~done if keep is None else keep & ~done
        else:
            err[retire(slice(None) if keep is None else keep)] = float(d) ** -(PHI_MAX_STEPS + 1)
    return S, err, ok, bad_step, dS


def phi_series(H: HenonMap, x, y, tol: float = 1e-12):
    """Accumulated log-product S with phi = y * exp(S), and dS = dS/dy.

    Returns (S, err, ok, bad_step, dS) as arrays matching x/y.  err bounds
    the truncation tail of S; ok is False where some factor violated
    |q/y^d| <= 1/2 (bad_step records the first offending step, -1 if none).
    The y-tangent of the orbit is pushed through each factor as
    (dx, dy) -> (dy, p'(y) dy - a dx), so dphi/dy = exp(S) * (1 + y dS).
    A point's values do not depend on the other points of the call.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    out = _phi_batch(H, x.ravel(), y.ravel(), tol)
    return tuple(a.reshape(x.shape) for a in out)


def bottcher_phi(H: HenonMap, z: Point, tol: float = 1e-12) -> complex:
    """phi(z) to tail tolerance tol; OutsideRegion on a bad product factor.

    From the scalar driver: S is within 4 eps of phi_series's S at z, with
    ok and bad_step equal (see the module docstring).
    """
    y = complex(z.y)
    S, ok, bad = _phi_point(H, complex(z.x), y, tol)
    if not ok:
        raise OutsideRegion(int(bad))
    return complex(np.multiply(y, np.exp(S)))


def in_region_xy(x, y, M: float, R: float):
    return np.abs(y) > M * np.maximum(np.abs(x), R)


def _product_bound(H: HenonMap, M: float, R: float) -> tuple[float, bool]:
    """(bound on |w| over W+_M, whether H maps W+_M into itself).

    w = pi_2(H(x, y)) / y^d - 1.  Factor i maps (u, v) to
    (v, v^d_i (1 + w_i)) with |w_i| <= e_i = sum_{k<d_i} |c_k| |v|^(k-d_i)
    + |a_i| |u| / |v|^d_i, so 1 + w = prod_i (1 + w_i)^(D_i), D_i the
    product of the later degrees, and |w| <= prod_i (1 + e_i)^(D_i) - 1.
    The bounds start from |y| = MR, |x| <= R and carry an upper bound on |u|
    and lower and upper bounds on |v| through the factors.  See
    certify_region for why this one radius covers all of W+_M.

    The moduli are carried in logarithms, as green._band does: |v|^d_i
    overflows a float on maps whose coefficients reach 1e110.  Each term of
    e_i is exp of its log, capped at log 0: a term of log >= 0 alone makes
    e_i >= 1, so the cap changes no verdict and no exp overflows.
    """
    log_u_hi, log_v_lo, log_v_hi = math.log(R), math.log(M * R), math.log(M * R)
    degrees = [f.p.degree for f in H.factors]
    log_w = 0.0
    for i, f in enumerate(H.factors):
        di = degrees[i]
        terms = [math.log(abs(f.a)) + log_u_hi - di * log_v_lo] + [
            math.log(abs(c)) + (k - di) * log_v_lo
            for k, c in enumerate(f.p.coeffs[:-1]) if c != 0
        ]
        e = math.fsum(math.exp(min(t, 0.0)) for t in terms)
        if not e < 1.0:
            return math.inf, False
        log_w += math.prod(degrees[i + 1 :]) * math.log1p(e)
        log_u_hi, log_v_lo, log_v_hi = (
            log_v_hi, di * log_v_lo + math.log1p(-e), di * log_v_hi + math.log1p(e)
        )
    return math.expm1(log_w), log_v_lo > math.log(M) + max(log_u_hi, math.log(R))


@functools.lru_cache(maxsize=32)
def certify_region(H: HenonMap) -> BoettcherRegion:
    """W+_M for the smallest power of two M >= 2 that _product_bound proves.

    Why the one check at |y| = MR covers W+_M: a point of W+_M has
    r = |y| > MR and |x| < r/M.  Run _product_bound's recursion from
    (r/M, r) in place of (R, MR).  Factor i sees (u_i, v_i) with
    r^(P_i) B_i <= |v_i| <= r^(P_i) A_i, where P_i = d_0 ... d_(i-1) and B_i
    and A_i are products of powers of (1 - e_j) and (1 + e_j), j < i; and
    |u_0| <= r/M, |u_i| = |v_(i-1)| <= r^(P_(i-1)) A_(i-1).  By induction
    every e_j falls as r grows: if the earlier ones do, B_i rises and
    A_(i-1) falls, so the first term of e_i falls with 1/|v_i|, and the
    second, |a_i| |u_i| / |v_i|^(d_i), is r^(P_(i-1) - P_(i+1)) (a negative
    power; r^(1 - d_0) / M for i = 0) times a falling factor.  So the |w|
    bound is largest at r = MR, where |x| <= R.  The image satisfies
    |y'| >= r^d B_n and |x'| <= r^(d / d_last) A_(n-1), so |y'| / (M |x'|)
    and |y'| / (MR) rise with r, and the invariance checked at r = MR holds
    on all of W+_M.  Hence every step of the orbit product of a point of
    W+_M stays in W+_M with |q/y^d| <= 1/2, and phi_series reports no bad
    factor there.
    """
    fr = filtration_radius(H)
    M = 2.0
    while M <= 2.0**20:
        w, invariant = _product_bound(H, M, fr.R)
        if w <= PRODUCT_BOUND and invariant:
            return BoettcherRegion(M, fr)
        M *= 2.0
    raise OutsideRegion(detail="no M up to 2^20 proved the product bound")


def dphi_dy_vec(H: HenonMap, x, y, tol: float = 1e-12):
    """dphi/dy from the tangent pass of phi_series; returns (dphi, ok)."""
    y = np.asarray(y, dtype=complex)
    S, _, ok, _, dS = phi_series(H, x, y, tol)
    return np.exp(S) * (1.0 + y * dS), ok


def _lambda_start(H: HenonMap, x, w):
    """The first-order inverse y0 = w (1 - w0 / d) of phi(x, .) at w.

    On W+_M, phi(x, y) = y (1 + w0)^(1/d) (1 + w1)^(1/d^2) ... with
    w0 = pi_2(H(x, y)) / y^d - 1 and |w0| <= 1/2, so phi = y (1 + w0 / d)
    up to O(w0^2) and the terms of later factors, which are O(1/|y|^d)
    smaller still.  Inverting to first order at y = w gives y0; it costs
    one apply_xy and one _ipow.  Where y0 is not finite (w^d overflows or
    vanishes) the start is w itself.
    """
    with np.errstate(all="ignore"):
        w0 = apply_xy(H, x, w)[1] / _ipow(w, H.d) - 1.0
        y0 = w - w * w0 / H.d
    return np.where(np.isfinite(y0), y0, w)


# the cap on a lambda solve's Newton rounds, which NoConvergence reports
_LAMBDA_MAX_ITER = 50


def _lambda_newton(H: HenonMap, x, w, tol: float):
    """Solve phi(x, y) = w for y, vectorized Newton from _lambda_start.

    Each round takes phi and its exact slope dphi/dy from one tangent pass
    of phi_series.  Returns (y, ok, dphi), where dphi is the slope from the
    last round that evaluated each point; at a converged point that round
    evaluated exactly the returned y.  The active nodes are carried as
    compact x, w, |w| and y arrays: a node retires, and its y and slope are
    written out, in the round whose phi meets the residual test or has a
    bad factor, and the arrays are compacted only in a round where some but
    not all nodes retire.  Updates are out-of-place, as in _phi_batch.
    """
    x = np.asarray(x, dtype=complex)
    w = np.asarray(w, dtype=complex)
    y = _lambda_start(H, x, w)
    dphi = np.full_like(y, np.nan)
    ok = np.ones(w.shape, dtype=bool)
    idx, xa, wa, wabs, ya = np.arange(w.size), x, w, np.maximum(np.abs(w), 1e-300), y
    for _ in range(_LAMBDA_MAX_ITER):
        if not idx.size:
            break
        S, _, pok, _, dS = phi_series(H, xa, ya, tol)
        e = np.exp(S)
        slope = e * (1.0 + ya * dS)
        f = ya * e - wa
        go = pok & ~(np.abs(f) / wabs <= tol)
        if not go.all():
            stop = ~go
            y[idx[stop]], dphi[idx[stop]] = ya[stop], slope[stop]
            ok[idx[~pok]] = False
            if stop.all():
                break
            idx, xa, wa, wabs, ya, f, slope = _take(go, idx, xa, wa, wabs, ya, f, slope)
        ya = ya - f / slope
    else:  # out of rounds: the last iterates, with the slopes at the ones before
        y[idx], dphi[idx], ok[idx] = ya, slope, False
    return y, ok, dphi


def lambda_vec(H: HenonMap, x, w, tol: float = 1e-12):
    """Solve phi(x, y) = w for y by Newton from _lambda_start; returns (y, ok)."""
    y, ok, _ = _lambda_newton(H, x, w, tol)
    return y, ok


def dlambda_dy_vec(H: HenonMap, x, w, tol: float = 1e-12):
    """1 / (dphi/dy) at the matched point (x, y = lambda(x, w)); returns (dl, ok, y).

    The slope is the one from the Newton round that converged, which
    evaluated dphi/dy at exactly the returned y.
    """
    y, ok, dphi = _lambda_newton(H, x, w, tol)
    return 1.0 / dphi, ok, y


def alpha_of_loop(H: HenonMap, loop) -> Fraction:
    """Winding class of a closed polygonal loop in U+, in Z[1/d].

    The loop is pushed forward by H until every sample lies in W+_M, the
    winding of y is accumulated over a subdivision fine enough that
    consecutive arguments of y move by less than pi/2, and the integer
    winding is divided by d^pushes.  Pulling a loop through H multiplies
    winding by d, hence the division.

    On W+_M the winding of y is that of phi.  There every factor of the
    orbit product has |w| <= 1/2 (certify_region), so phi = y e^S with S
    continuous on W+_M, and |arg(1 + w)| <= arcsin(1/2) = pi/6 gives
    |Im S| <= sum_j d^-(j+1) pi/6 = pi/(6(d-1)) <= pi/6.  Between
    consecutive samples the principal increment of arg phi is then the
    increment of arg y plus that of Im S, since the two add up to less
    than pi/2 + pi/3 < pi and so take no multiple of 2 pi.  The increments
    of Im S telescope to 0 around the closed loop, so the two windings are
    equal.
    """
    M, R = certify_region(H).M, filtration_radius(H).R
    verts = np.array([complex(p.x) for p in loop] + [complex(loop[0].x)])
    verts_y = np.array([complex(p.y) for p in loop] + [complex(loop[0].y)])
    d = H.d

    k = 4  # samples per edge, doubled until the winding stabilizes
    last = None
    for _ in range(LOOP_REFINEMENTS):
        t = np.linspace(0.0, 1.0, k, endpoint=False)
        xs = (verts[:-1, None] + (verts[1:] - verts[:-1])[:, None] * t).ravel()
        ys = (verts_y[:-1, None] + (verts_y[1:] - verts_y[:-1])[:, None] * t).ravel()
        xs = np.append(xs, xs[0])
        ys = np.append(ys, ys[0])

        pushes = 0
        while pushes <= LOOP_PUSH_BUDGET and not np.all(in_region_xy(xs, ys, M, R)):
            xs, ys = apply_xy(H, xs, ys)
            pushes += 1
            if np.max(np.abs(ys)) > 1e120:
                raise RefinementBudgetExceeded(
                    "loop did not enter the region before overflow"
                )
        if pushes > LOOP_PUSH_BUDGET:
            raise RefinementBudgetExceeded("push budget exhausted")

        darg = np.angle(ys[1:] / ys[:-1])
        winding = darg.sum() / (2.0 * np.pi)
        if np.max(np.abs(darg)) < 0.5 * np.pi and last is not None:
            w_round = round(winding)
            if (
                abs(winding - w_round) <= 0.1
                and last[1] == pushes
                and round(last[0]) == w_round
            ):
                return Fraction(w_round, d**pushes)
        last = (winding, pushes)
        k *= 2
    raise RefinementBudgetExceeded("winding failed to stabilize")
