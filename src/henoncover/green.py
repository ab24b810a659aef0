"""Forward and backward Green's functions of a generalized Henon map.

G+(z) is the normalized escape rate lim d^-n log+ ||H^n(z)||; it vanishes
exactly on the non-escaping set and satisfies G+(H(z)) = d * G+(z).  Once
an orbit is deep in V+, the remaining limit equals log|phi| at that orbit
point, so the value is refined through the Bottcher product rather than by
iterating to overflow.  G- mirrors this under H^{-1} through V-, with the
backward product normalized by the constant kappa from the inverse's
leading coefficient.
"""

from __future__ import annotations

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
    HenonMap,
    Point,
    apply_inverse_xy,
    apply_xy,
    inverse_leading_constant,
)

__all__ = [
    "GreenValue",
    "Membership",
    "green_plus",
    "green_minus",
    "membership",
    "escaping_samples",
    "green_plus_grid",
    "escape_time_grid",
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
            x[todo], y[todo] = apply_xy(H, x[todo], y[todo])
            depths[todo] += 1
        S, perr, ok, _ = phi_series(H, x[todo], y[todo], tol)
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


def _backward_series(H: HenonMap, x: complex, y: complex, tol: float, max_steps: int = 64):
    """sum d^-(j+1) log|1 + w_j| along the backward orbit, w from x' kappa/x^d."""
    d = H.d
    kappa = inverse_leading_constant(H)
    xcap = 10.0 ** (280.0 / d)
    total = 0.0
    err = 0.0
    c_est = 10.0
    for j in range(max_steps):
        scale = float(d) ** -(j + 1)
        if abs(x) > xcap:
            err += scale * 2.0 * c_est / abs(x)
            break
        nx, ny = apply_inverse_xy(H, x, y)
        w = nx * kappa / x**d - 1.0
        if abs(w) > 0.5:
            return total, err, False
        term = scale * np.log(abs(1.0 + w))
        total += term
        c_est = max(abs(w) * abs(x), 1e-300)
        if abs(term) < tol:
            err += 2.0 * abs(term)
            break
        x, y = nx, ny
    else:
        err += float(d) ** -(max_steps + 1)
    return total, err, True


def green_minus(
    H: HenonMap,
    z: Point,
    tol: float = 1e-10,
    N_max: int = 256,
    R: FiltrationRadius | None = None,
) -> GreenValue:
    """G-(z): the mirror of green_plus under H^{-1} and V-."""
    if R is None:
        R = filtration_radius(H)
    hit = escape_orbit(H, complex(z.x), complex(z.y), R.R, N_max, forward=False)
    if hit is None:
        return _bounded_value(H, R.R, N_max)
    n, x, y = hit
    d = H.d
    offset = -np.log(abs(inverse_leading_constant(H))) / (d - 1.0)
    for push in range(MAX_PUSH + 1):
        if push:
            x, y = apply_inverse_xy(H, x, y)
        tail, err, ok = _backward_series(H, x, y, tol)
        depth = n + push
        scale = float(d) ** -depth
        if ok:
            value = scale * (np.log(abs(x)) + offset + tail)
            return GreenValue(max(value, 0.0), scale * err, depth)
    return GreenValue(
        max(scale * np.log(abs(x)), 0.0),
        scale * (FALLBACK_TAIL + abs(offset)),
        depth,
    )


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
# Vector grid evaluation (renderer backend).  The forward escape test of
# escape_orbit and the refinement of green_plus, run over flat arrays with
# masks; deterministic for a fixed input order.

def _escape_steps(H: HenonMap, x, y, R: float, N_max: int):
    """First escape step per point of the flat arrays x, y, or -1.

    Iterates compact copies of the points still in play (gathered again
    only on steps where some point escapes or bails out) and writes each
    escaped point's coordinates back into x and y at its escape step, so
    x and y hold the escape coordinates of every escaped point on return
    (the other entries are left as given).
    """
    steps = np.full(x.size, -1, dtype=np.int64)
    idx = np.arange(x.size)
    cx, cy = x, y
    cutoff = ESCAPE_MARGIN * R
    for n in range(N_max + 1):
        ax, ay = np.abs(cx), np.abs(cy)
        esc = (ay >= np.maximum(ax, R)) & (ay > cutoff)
        if esc.any():
            hit = idx[esc]
            steps[hit] = n
            x[hit], y[hit] = cx[esc], cy[esc]
        keep = ~esc & (np.maximum(ax, ay) <= BAIL_OUT)
        if n == N_max or not keep.any():
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
