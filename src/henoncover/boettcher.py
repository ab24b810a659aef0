"""Bottcher coordinate phi on V+, its y-inverse lambda, and loop winding.

phi conjugates H to the d-th power map near the y-axis at infinity:
phi(H(z)) = phi(z)^d and log|phi| is the forward Green's function.  It is
computed as an orbit product

    phi(x, y) = y * prod_j (1 + q_j / y_j^d)^(1/d^(j+1)),

q = pi_2(H) - y^d, with principal logarithms (each factor satisfies
|q/y^d| <= 1/2 inside the working region, enforced step by step).

All kernels operate on numpy arrays; the public single-point API wraps
them.  dphi/dy comes from the same product loop, which can carry the
tangent of the orbit in y alongside phi (forward-mode differentiation).
The working region is W+_M = {|y| > M*max(|x|, R)} with M doubled until
sampled bounds certify |phi/y - 1| and |dphi/dy - 1| below epsilon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import FiltrationRadius, filtration_radius
from .henon import HenonError, HenonMap, Point, apply_xy

__all__ = [
    "OutsideRegion",
    "NoConvergence",
    "RefinementBudgetExceeded",
    "BoettcherRegion",
    "certify_region",
    "q_correction",
    "bottcher_phi",
    "lambda_inverse",
    "dphi_dy",
    "dlambda_dy",
    "alpha_of_loop",
    "phi_series",
    "phi_vec",
    "dphi_dy_vec",
    "lambda_vec",
    "dlambda_dy_vec",
    "in_region_xy",
]

PRODUCT_BOUND = 0.5  # enforced per-factor bound on |q/y^d|


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
    epsilon: float
    certification_samples: int = 0

    def __post_init__(self):
        if not self.epsilon < 0.5:
            raise ValueError("epsilon must be < 1/2")


def q_correction(H: HenonMap, z: Point) -> complex:
    """q(x, y) = pi_2(H(x, y)) - y^d, evaluated directly."""
    _, y2 = apply_xy(H, z.x, z.y)
    return y2 - z.y**H.d


@functools.lru_cache(maxsize=64)
def _q_coeff_bound(H: HenonMap) -> float:
    """c0 with |q(x, y)| <= c0 * max(|x|, |y|)^(d-1); q has total degree d-1."""
    from .henon import second_component_correction

    q = second_component_correction(H)
    return 1.0 + float(np.abs(q.c).sum())


def phi_series(
    H: HenonMap, x, y, tol: float = 1e-12, max_steps: int = 64, dy: bool = False
):
    """Accumulated log-product S with phi = y * exp(S).

    Returns (S, err, ok, bad_step) as arrays matching x/y.  err bounds the
    truncation tail of S; ok is False where some factor violated
    |q/y^d| <= 1/2 (bad_step records the first offending step, -1 if none).

    With dy=True the tangent (dx, dy) of the orbit in the initial y is
    pushed through each factor as (dx, dy) -> (dy, p'(y) dy - a dx), and a
    fifth array dS = dS/dy is accumulated over the same factors, so that
    dphi/dy = exp(S) * (1 + y dS) (forward-mode differentiation).  It is
    off by default: the tangent adds 50-100 % to the cost, and the Green's
    function and render paths need S alone.
    """
    x_in = np.asarray(x, dtype=complex)
    shape = x_in.shape
    x = x_in.ravel().copy()
    y = np.asarray(y, dtype=complex).ravel().copy()
    n = x.size
    d = H.d
    S = np.zeros(n, dtype=complex)
    err = np.zeros(n, dtype=float)
    ok = np.ones(n, dtype=bool)
    bad_step = np.full(n, -1, dtype=int)
    alive = np.arange(n)
    ycap = 10.0 ** (280.0 / d)
    c0 = _q_coeff_bound(H)
    c_est = np.full(n, c0)
    if dy:
        tx = np.zeros(n, dtype=complex)
        ty = np.ones(n, dtype=complex)
        dS = np.zeros(n, dtype=complex)
        slopes = [f.p.derivative() for f in H.factors]

    for j in range(max_steps):
        if alive.size == 0:
            break
        scale = float(d) ** -(j + 1)
        ax, ay = x[alive], y[alive]
        mag = np.abs(ay)

        # points too large for another y^d: bound the tail and retire them
        huge = mag > ycap
        if huge.any():
            hidx = alive[huge]
            err[hidx] += scale * 2.0 * c_est[hidx] / mag[huge]
            alive = alive[~huge]
            ax, ay, mag = ax[~huge], ay[~huge], mag[~huge]
            if alive.size == 0:
                break

        if dy:
            nx, ny, ntx, nty = ax, ay, tx[alive], ty[alive]
            for f, dp in zip(H.factors, slopes):
                nx, ny = ny, f.p(ny) - f.a * nx
                ntx, nty = nty, dp(nx) * nty - f.a * ntx
        else:
            nx, ny = apply_xy(H, ax, ay)
        w = ny / ay**d - 1.0
        aw = np.abs(w)

        bad = aw > PRODUCT_BOUND
        if bad.any():
            bidx = alive[bad]
            ok[bidx] = False
            bad_step[bidx] = j

        good = ~bad
        gidx = alive[good]
        term = scale * np.log(1.0 + w[good])
        S[gidx] += term
        c_est[gidx] = np.maximum(aw[good] * mag[good], 1e-300)
        if dy:
            dS[gidx] += scale * (nty[good] / ny[good] - d * ty[gidx] / ay[good])

        # terms shrink at least geometrically (|w| ~ C/|y| and |y| blows up
        # doubly exponentially); once below tol, twice the current term
        # bounds the remaining tail
        done = np.abs(term) < tol
        err[gidx[done]] += 2.0 * np.abs(term[done])

        keep = gidx[~done]
        x[keep] = nx[good][~done]
        y[keep] = ny[good][~done]
        if dy:
            tx[keep] = ntx[good][~done]
            ty[keep] = nty[good][~done]
        alive = keep

    if alive.size:
        err[alive] += float(d) ** -(max_steps + 1)

    out = (
        S.reshape(shape),
        err.reshape(shape),
        ok.reshape(shape),
        bad_step.reshape(shape),
    )
    return out + (dS.reshape(shape),) if dy else out


def phi_vec(H: HenonMap, x, y, tol: float = 1e-12):
    """Vector phi; returns (phi, err, ok, bad_step)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    S, err, ok, bad = phi_series(H, x, y, tol)
    return y * np.exp(S), err, ok, bad


def bottcher_phi(H: HenonMap, z: Point, tol: float = 1e-12) -> complex:
    """phi(z) to tail tolerance tol; OutsideRegion on a bad product factor."""
    phi, _, ok, bad = phi_vec(H, [z.x], [z.y], tol)
    if not ok[0]:
        raise OutsideRegion(int(bad[0]))
    return complex(phi[0])


def in_region_xy(x, y, M: float, R: float):
    return np.abs(y) > M * np.maximum(np.abs(x), R)


def _region_boundary_samples(R: float, M: float, n: int, rng):
    """Points on {|y| = M*max(|x|, R)}, phases random, radii spread."""
    n_flat = n // 2
    rx_flat = rng.uniform(0.0, R, n_flat)
    ry_flat = np.full(n_flat, M * R)
    r_out = R * np.exp(rng.uniform(0.0, np.log(50.0), n - n_flat))
    rx = np.concatenate([rx_flat, r_out])
    ry = np.concatenate([ry_flat, M * r_out])
    ph_x = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    ph_y = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return rx * ph_x, ry * ph_y


@functools.lru_cache(maxsize=32)
def certify_region(
    H: HenonMap,
    eps: float = 0.25,
    n_boundary: int = 1000,
) -> BoettcherRegion:
    """Double M from 2 until sampled epsilon-bounds hold on the boundary.

    Certifies |phi/y - 1| <= eps on n_boundary boundary samples of W+_M,
    |dphi/dy| in [1-eps, 1+eps] on a subsample, and |lambda/y - 1| <= eps
    for the Newton inverse on a subsample.
    """
    fr = filtration_radius(H)
    R = fr.R
    rng_seed = 715225741
    M = 2.0
    while M <= 2.0**20:
        rng = np.random.default_rng(rng_seed)
        x, y = _region_boundary_samples(R, M, n_boundary, rng)
        phi, _, ok, _ = phi_vec(H, x, y)
        if ok.all():
            ratio = np.abs(phi / y - 1.0)
            eps_obs = float(ratio.max())
            if eps_obs <= eps:
                # derivative and inverse bounds on a subsample
                xs, ys = x[:200], y[:200]
                dp, dok = dphi_dy_vec(H, xs, ys)
                lam, lok = lambda_vec(H, xs, ys)
                if (
                    dok.all()
                    and lok.all()
                    and np.all(np.abs(np.abs(dp) - 1.0) <= eps)
                    and np.all(np.abs(lam / ys - 1.0) <= eps)
                ):
                    eps_final = max(
                        eps_obs, float(np.abs(np.abs(dp) - 1.0).max())
                    )
                    return BoettcherRegion(
                        M, fr, max(eps_final, 1e-12), n_boundary + 400
                    )
        M *= 2.0
    raise OutsideRegion(detail="no M up to 2^20 certified the region bounds")


def dphi_dy_vec(H: HenonMap, x, y, tol: float = 1e-12):
    """dphi/dy from the tangent pass of phi_series; returns (dphi, ok)."""
    y = np.asarray(y, dtype=complex)
    S, _, ok, _, dS = phi_series(H, x, y, tol, dy=True)
    return np.exp(S) * (1.0 + y * dS), ok


def dphi_dy(H: HenonMap, z: Point, region: BoettcherRegion | None = None) -> complex:
    """Derivative of phi in y at a point of W+_M."""
    if region is None:
        region = certify_region(H)
    if not in_region_xy(np.asarray(z.x), np.asarray(z.y), region.M, region.R.R):
        raise OutsideRegion(detail="center outside W+_M")
    d, ok = dphi_dy_vec(H, [z.x], [z.y])
    if not ok[0]:
        raise OutsideRegion(detail="orbit left the product region")
    return complex(d[0])


def _lambda_newton(H: HenonMap, x, w, tol: float, max_iter: int = 50):
    """Solve phi(x, y) = w for y, vectorized Newton from y = w.

    Each round takes phi and its exact slope dphi/dy from one tangent pass
    of phi_series.  Returns (y, ok, dphi), where dphi is the slope from the
    last round that evaluated each point; at a converged point that round
    evaluated exactly the returned y.
    """
    x = np.asarray(x, dtype=complex)
    w = np.asarray(w, dtype=complex)
    y = w.copy()
    dphi = np.full_like(y, np.nan)
    ok = np.ones(w.shape, dtype=bool)
    active = np.ones(w.shape, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        yi = y[idx]
        S, _, pok, _, dS = phi_series(H, x[idx], yi, tol, dy=True)
        e = np.exp(S)
        slope = e * (1.0 + yi * dS)
        dphi[idx] = slope
        f = yi * e - w[idx]
        res = np.abs(f) / np.maximum(np.abs(w[idx]), 1e-300)
        conv = res <= tol
        bad = ~pok
        ok[idx[bad]] = False
        active[idx[bad | conv]] = False
        upd = ~(bad | conv)
        y[idx[upd]] = yi[upd] - f[upd] / slope[upd]
    ok &= ~active
    return y, ok, dphi


def lambda_vec(H: HenonMap, x, w, tol: float = 1e-12, max_iter: int = 50):
    """Solve phi(x, y) = w for y by Newton from y = w; returns (y, ok)."""
    y, ok, _ = _lambda_newton(H, x, w, tol, max_iter)
    return y, ok


def lambda_inverse(
    H: HenonMap,
    x: complex,
    w: complex,
    region: BoettcherRegion | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> complex:
    """y with phi(x, y) = w (relative tolerance tol) inside W+_M."""
    if region is None:
        region = certify_region(H)
    if not in_region_xy(np.asarray(x), np.asarray(w), region.M, region.R.R):
        raise OutsideRegion(detail="(x, w) outside W+_M")
    y, ok = lambda_vec(H, [x], [w], tol, max_iter)
    if not ok[0]:
        raise NoConvergence(max_iter)
    return complex(y[0])


def dlambda_dy_vec(H: HenonMap, x, w, tol: float = 1e-12):
    """1 / dphi_dy at the matched point (x, lambda(x, w)); returns (dl, ok).

    The slope is the one from the Newton round that converged, which
    evaluated dphi/dy at exactly the returned y.
    """
    _, ok, dphi = _lambda_newton(H, x, w, tol)
    return 1.0 / dphi, ok


def dlambda_dy(
    H: HenonMap,
    x: complex,
    w: complex,
    region: BoettcherRegion | None = None,
    tol: float = 1e-12,
) -> complex:
    """Exact inverse-function relation 1 / dphi_dy(x, lambda(x, w))."""
    if region is None:
        region = certify_region(H)
    if not in_region_xy(np.asarray(x), np.asarray(w), region.M, region.R.R):
        raise OutsideRegion(detail="(x, w) outside W+_M")
    y = lambda_inverse(H, x, w, region, tol)
    return 1.0 / dphi_dy(H, Point(x, y), region)


def alpha_of_loop(
    H: HenonMap,
    loop,
    region: BoettcherRegion | None = None,
    push_budget: int = 64,
    refine_budget: int = 12,
) -> Fraction:
    """Winding class of a closed polygonal loop in U+, in Z[1/d].

    The loop is pushed forward by H until every sample lies in the product
    region, phi-winding is accumulated over a subdivision fine enough that
    consecutive arguments move by less than pi/2, and the integer winding
    is divided by d^pushes.  Pulling a loop through H multiplies winding by
    d, hence the division.
    """
    if region is None:
        region = certify_region(H)
    M, R = region.M, region.R.R
    verts = np.array([complex(p.x) for p in loop] + [complex(loop[0].x)])
    verts_y = np.array([complex(p.y) for p in loop] + [complex(loop[0].y)])
    d = H.d

    k = 4  # samples per edge, doubled until the winding stabilizes
    last = None
    for _ in range(refine_budget):
        t = np.linspace(0.0, 1.0, k, endpoint=False)
        xs = (verts[:-1, None] + (verts[1:] - verts[:-1])[:, None] * t).ravel()
        ys = (verts_y[:-1, None] + (verts_y[1:] - verts_y[:-1])[:, None] * t).ravel()
        xs = np.append(xs, xs[0])
        ys = np.append(ys, ys[0])

        pushes = 0
        while pushes <= push_budget and not np.all(in_region_xy(xs, ys, M, R)):
            xs, ys = apply_xy(H, xs, ys)
            pushes += 1
            if np.max(np.abs(ys)) > 1e120:
                raise RefinementBudgetExceeded(
                    "loop did not enter the region before overflow"
                )
        if pushes > push_budget:
            raise RefinementBudgetExceeded("push budget exhausted")

        phi, _, ok, _ = phi_vec(H, xs, ys)
        if not ok.all():
            raise OutsideRegion(detail="loop sample outside product region")
        darg = np.angle(phi[1:] / phi[:-1])
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
