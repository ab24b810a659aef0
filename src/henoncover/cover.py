"""Covering chart of the escaping set and the model lift of H.

The chart is assembled in three steps on the region W~+_M:

    E1(x, y) = (x, phi(x, y))                 straighten y to the Bottcher value
    E2(x, y) = (psi(x, y), y),  psi = y * int_0^x dlambda/dy(t, y) dt
    E3(x, y) = (x - R(y), y)                  kill the Laurent tail

E2 is evaluated from one table per map and Bottcher region: the
Taylor coefficients in s = x/y and u = 1/y of dlambda/dy and of
log(lambda/y), which are holomorphic on the bidisc of W+_M and extend
across u = 0 (Hubbard & Oberste-Vorth, Publ. Math. IHES 79, 1994).  One
batched lambda solve on a torus and a 2-D FFT give them (the trapezoidal
rule on a torus: Trefethen & Weideman, SIAM Rev. 56, 2014); psi is the
termwise integral in x.  psi_integral keeps the direct quadrature, one
fixed 20-node Gauss-Legendre panel on the segment [0, x], as the
reference.

Conjugating H through E3 . E2 . E1 yields the polynomial model

    (z, zeta) -> (a/d * z + Q(zeta), zeta^d)

with Q monic of degree d + d'.  Q is extracted by sampling
Qtilde(zeta) = psi(P1(lambda(0, zeta)), zeta^d) on a circle and splitting
the discrete Fourier series into the polynomial part Q and the tail Q^-;
R is the geometric series sum_i (d/a)^(i+1) Q^-(zeta^(d^i)).  Deck
transformations rotate zeta by d-power roots of unity and shift z by an
exactly cancelling Q-difference.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boettcher import (
    BoettcherRegion,
    NoConvergence,
    bottcher_phi,
    certify_region,
    dlambda_dy_vec,
    lambda_vec,
)
from .filtration import FiltrationRadius
from .henon import (
    ComplexPolynomial,
    HenonError,
    HenonMap,
    Point,
    _c2l,
    _factors_json,
    _l2c,
    first_component_axis_poly,
    iterate,
    make_henon,
)

__all__ = [
    "MonicityFailed",
    "DecayFailed",
    "Divergence",
    "OutsideChartDomain",
    "NewtonNoConvergence",
    "BudgetExceeded",
    "Overflow",
    "SegmentOutsideRegion",
    "CoverChart",
    "DeckLabel",
    "CoverPoint",
    "psi_integral",
    "build_chart",
    "r_series",
    "psi_tilde",
    "psi_tilde_inverse",
    "lift_H",
    "deck",
    "covering_map",
    "save_chart",
    "load_chart",
    "chart_to_dict",
    "chart_from_dict",
]


class MonicityFailed(HenonError):
    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"|leading(Q) - 1| = {defect:.3e} exceeds 1e-6")


class DecayFailed(HenonError):
    pass


class Divergence(HenonError):
    pass


class OutsideChartDomain(HenonError):
    pass


class NewtonNoConvergence(HenonError):
    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(f"chart Newton did not converge in {iterations} steps")


class BudgetExceeded(HenonError):
    pass


class Overflow(HenonError):
    pass


class SegmentOutsideRegion(HenonError):
    pass


@dataclass(frozen=True)
class DeckLabel:
    """The class [k / d^n] in Z[1/d]/Z, stored reduced."""

    k: int
    n: int

    @classmethod
    def reduced(cls, k: int, n: int, d: int) -> "DeckLabel":
        if n < 0:
            raise ValueError("n must be nonnegative")
        while n > 0 and k % d == 0:
            k //= d
            n -= 1
        if n == 0:
            return cls(0, 0)
        return cls(k % d**n, n)


@dataclass(frozen=True)
class CoverPoint:
    z: complex
    zeta: complex

    def __post_init__(self):
        if not abs(self.zeta) > 1.0:
            raise ValueError("|zeta| must exceed 1")


@dataclass
class CoverChart:
    H: HenonMap
    region: BoettcherRegion
    Q: ComplexPolynomial
    rho: float
    qminus_rho: float
    qminus_samples: np.ndarray
    series_tol: float
    Mtilde: float
    t: float
    meta: dict = field(default_factory=dict)

    @property
    def inner_radius(self) -> float:
        return self.region.M * self.region.R.R

    @functools.cached_property
    def _qminus_nodes(self):
        """(z_k, g_k z_k) on the Q^- sample circle, built on first use.

        qminus_rho and qminus_samples are fixed once the chart is built.
        """
        n = self.qminus_samples.size
        zk = self.qminus_rho * np.exp(1j * 2.0 * np.pi * np.arange(n) / n)
        return zk, self.qminus_samples * zk


# ---------------------------------------------------------------------------
# psi quadrature

# lambda solves (the series table's torus nodes, lambda(0, zeta) on the
# chart's circles and psi_integral's nodes) run far below the chart's
# targets; sample noise otherwise scales with the function's magnitude and
# poisons the Fourier coefficients of Qtilde.  Kept a factor above the
# double rounding floor so the Newton residual test stays reachable.
_INNER_TOL = 3e-15


@functools.cache
def _psi_panel():
    """Nodes and weights of the 20-point Gauss-Legendre rule on [0, 1].

    Exact to degree 39; on an integrand analytic about the segment its
    error falls geometrically in the node count (Trefethen, SIAM Rev. 50,
    2008).  Built on first use: numpy.polynomial costs milliseconds to import.
    """
    t, wt = np.polynomial.legendre.leggauss(20)
    return 0.5 * (t + 1.0), 0.5 * wt


def psi_integral(H: HenonMap, region: BoettcherRegion, x: complex, y: complex) -> complex:
    """psi(x, y) = y * int_0^x dlambda/dy(t, y) dt on one Gauss-Legendre panel.

    The direct reference for the series table: one lambda solve on the
    mapped nodes.  [0, x] x {y} must sit in W+_M; SegmentOutsideRegion if
    an endpoint does not or a node solve fails.
    """
    if region.M * abs(x) >= abs(y):
        raise SegmentOutsideRegion("segment endpoint violates |x| < |y|/M")
    s, ws = _psi_panel()
    F, ok, _ = dlambda_dy_vec(H, x * s, np.full(s.shape, y), _INNER_TOL)
    if not ok.all():
        raise SegmentOutsideRegion("integrand node failed region solve")
    return complex(y * x * (F @ ws))


# ---------------------------------------------------------------------------
# series table

# the table samples an N x N torus at _TORUS_FRAC of the radii 1/M and
# 1/(MR) of W+_M in (s, u) = (x/y, 1/y), keeps the K = N/2 lowest orders
# in each variable and is evaluated on the bidisc at _SERIES_FRAC of them
_TORUS_N = 32
_TORUS_FRAC = 0.75
_SERIES_FRAC = 0.6
_SERIES_TAIL_MAX = 1e-12


def _torus_nodes(region: BoettcherRegion):
    """(x, w), each N x N: the table's torus, row i at sigma = e_i."""
    M, R = region.M, region.R.R
    e = np.exp(2j * np.pi * np.arange(_TORUS_N) / _TORUS_N)
    w = 1.0 / np.broadcast_to(_TORUS_FRAC / (M * R) * e[None, :], (_TORUS_N, _TORUS_N))
    return w * (_TORUS_FRAC / M) * e[:, None], w


@functools.lru_cache(maxsize=32)
def _series_table(H: HenonMap, region: BoettcherRegion):
    """(C, tail): Taylor coefficients of the chart on W+_M, from one solve.

    With r_s = 0.75/M, r_u = 0.75/(MR) and scaled variables
    sigma = s/r_s, upsilon = u/r_u (s = x/y, u = 1/y), the functions

        h = dlambda/dy = sum b_jk sigma^j upsilon^k,
        g = log(lambda/y) = sum g_jk sigma^j upsilon^k

    are holomorphic in (sigma, upsilon) on W+_M, whose radii are 4/3 in
    these variables, and extend across u = 0.  One dlambda_dy_vec call on
    the N x N torus |sigma| = |upsilon| = 1 gives h and lambda at every
    node; fft2 / N^2 of h and of log(lambda/y) are b_jk and g_jk up to
    aliasing (Trefethen & Weideman, SIAM Rev. 56, 2014).  With
    sigma(t) = t / (y r_s), int_0^x sigma(t)^j dt = x sigma(x)^j / (j + 1),
    so

        psi = y x sum a_jk sigma^j upsilon^k,   a_jk = b_jk / (j + 1).

    C is the (K, 3K) block [a | b | g] of orders j, k < K = N/2.  tail is
    the largest bin with j >= N/2 or k >= N/2 in either FFT: the dropped
    orders and the aliases of the negative ones, which vanish for a
    holomorphic function.  On the evaluation bidisc |sigma|, |upsilon| <=
    0.8 a dropped bin enters scaled by at most 0.8^(N/2) = 2.8e-2.
    NoConvergence if a node solve fails; DecayFailed if tail > 1e-12.
    """
    N, K = _TORUS_N, _TORUS_N // 2
    x, w = _torus_nodes(region)
    h, ok, lam = dlambda_dy_vec(H, x.ravel(), w.ravel(), _INNER_TOL)
    if not ok.all():
        raise NoConvergence(50)
    b = np.fft.fft2(h.reshape(N, N)) / N**2
    g = np.fft.fft2(np.log(lam.reshape(N, N) / w)) / N**2
    tail = max(float(np.abs(c[K:]).max()) for c in (b, g, b.T, g.T))
    if tail > _SERIES_TAIL_MAX:
        raise DecayFailed(f"series table tail {tail:.3e} > {_SERIES_TAIL_MAX:g}")
    b, g = b[:K, :K], g[:K, :K]
    C = np.concatenate([b / np.arange(1, K + 1)[:, None], b, g], axis=1)
    C.flags.writeable = False
    return C, tail


def _outside_series_bidisc(region: BoettcherRegion, X, W) -> bool:
    """Does some point (X_i, W_i) miss the bidisc M*max(|x|, R) <= 0.6|w|?

    A NaN coordinate counts as outside.
    """
    reach = region.M * np.maximum(np.abs(X), region.R.R)
    return not bool((reach <= _SERIES_FRAC * np.abs(W)).all())


def _series_eval(H: HenonMap, region: BoettcherRegion, X, W):
    """(psi, dlambda/dy, lambda) at the points (X_i, W_i) from the table.

    The points must lie in the series bidisc M*max(|X|, R) <= 0.6|W|;
    SegmentOutsideRegion otherwise.  dpsi/dx is W * dlambda/dy.
    """
    X, W = np.asarray(X, dtype=complex).ravel(), np.asarray(W, dtype=complex).ravel()
    if _outside_series_bidisc(region, X, W):
        raise SegmentOutsideRegion("point outside the series bidisc M*max(|x|, R) <= 0.6|y|")
    C, _ = _series_table(H, region)
    K = C.shape[0]
    # powers 0 .. K-1 of sigma = (X/W)/r_s and upsilon = (1/W)/r_u, one cumprod
    p = np.empty((2, X.size, K), dtype=complex)
    p[:, :, 0] = 1.0
    p[0, :, 1:] = (X / W * (region.M / _TORUS_FRAC))[:, None]
    p[1, :, 1:] = (region.M * region.R.R / _TORUS_FRAC / W)[:, None]
    sp, up = np.cumprod(p, axis=2, out=p)
    a, b, g = ((sp @ C).reshape(-1, 3, K) @ up[:, :, None])[:, :, 0].T
    return W * X * a, b, W * np.exp(g)


# ---------------------------------------------------------------------------
# chart construction

def _qtilde_batch(H: HenonMap, region: BoettcherRegion, zetas):
    """Qtilde(zeta) = psi(P1(lambda(0, zeta)), zeta^d), psi from the table.

    lambda(0, zeta) is solved directly: at |zeta| = 1.25 MR it sits at 0.8
    of the radius of W+_M, outside the series bidisc.
    """
    zetas = np.asarray(zetas, dtype=complex)
    lam0, ok = lambda_vec(H, np.zeros_like(zetas), zetas, _INNER_TOL, 100)
    if not ok.all():
        raise NoConvergence(100)
    x0 = first_component_axis_poly(H)(lam0)
    return _series_eval(H, region, x0, zetas**H.d)[0]


def _extract_positive_part(samples, rho: float, top_degree: int):
    """Fourier split: polynomial coefficients 0..top_degree from circle samples."""
    n = samples.size
    coef = np.fft.fft(samples) / n
    j = np.arange(top_degree + 1)
    return coef[: top_degree + 1] * rho ** (-j.astype(float)), coef


# chart construction: Qtilde samples per degree of Q (the circle size is
# the next power of two, at least 64)
_SAMPLES_PER_DEGREE = 64


def build_chart(H: HenonMap, series_tol: float = 1e-12) -> CoverChart:
    """Sample the conjugated map on circles and assemble the chart.

    Pipeline: prove the Bottcher region (certify_region), build the series
    table of psi (_series_table), sample Qtilde on |zeta| = 2MR, split off
    the monic degree-(d+d') polynomial Q by FFT, re-extract at twice the
    radius as a stability check, store the Laurent tail Q^- as a sampled
    circle evaluator on |zeta| = 1.25*MR, then fix t = 1/(4M) and take
    Mtilde as the first 2MR * 2^k at which the closed form _r_series_bound
    proves |R| < t |zeta|^2.  The bound falls as |zeta| grows while
    t |zeta|^2 rises, so the one check at Mtilde covers every
    |zeta| >= Mtilde.
    """
    region = certify_region(H)
    M = region.M
    R = region.R.R
    deg = H.d + H.d_prime
    rho = 2.0 * M * R
    n = 1 << max(6, int(np.ceil(np.log2(_SAMPLES_PER_DEGREE * deg))))
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = np.exp(1j * theta)

    qt = _qtilde_batch(H, region, rho * circle)
    coeffs, bins = _extract_positive_part(qt, rho, deg)
    monic_defect = abs(coeffs[-1] - 1.0)
    if monic_defect > 1e-6:
        raise MonicityFailed(float(monic_defect))

    # bins strictly between deg and n/2 must be numerically dead
    junk = np.abs(bins[deg + 1 : n // 2])
    junk_max = float(junk.max()) if junk.size else 0.0
    if junk_max > 1e-6 * rho**deg:
        raise DecayFailed(
            f"spurious high-degree content {junk_max:.3e} on |zeta|={rho}"
        )

    qt2 = _qtilde_batch(H, region, 2.0 * rho * circle)
    coeffs2, _ = _extract_positive_part(qt2, 2.0 * rho, deg)
    scale = np.maximum(np.abs(coeffs), 1.0)
    agreement = float(np.max(np.abs(coeffs - coeffs2) / scale))
    if agreement > 1e-7:
        raise DecayFailed(
            f"two-radius coefficient agreement {agreement:.3e} > 1e-7"
        )
    Q = ComplexPolynomial(tuple(coeffs))

    # sampled evaluator for the tail, on a circle close to the inner edge
    q_rho = 1.25 * M * R
    qt_inner = _qtilde_batch(H, region, q_rho * circle)
    g = qt_inner - Q(q_rho * circle)

    chart = CoverChart(
        H=H,
        region=region,
        Q=Q,
        rho=rho,
        qminus_rho=q_rho,
        qminus_samples=g,
        series_tol=series_tol,
        Mtilde=2.0 * M * R,
        t=1.0 / (4.0 * M),
        meta={
            "monic_defect": float(monic_defect),
            "decay_max": junk_max,
            "circle_samples": int(n),
            "two_radius_agreement": agreement,
            "series_tail": _series_table(H, region)[1],
        },
    )
    for _ in range(13):
        if _r_series_bound(chart, chart.Mtilde) < chart.t * chart.Mtilde**2:
            return chart
        chart.Mtilde *= 2.0
    raise DecayFailed("no Mtilde up to 2^13 * 2MR proved |R| < |zeta|^2/(4M)")


# ---------------------------------------------------------------------------
# evaluation on a built chart

def _qminus_eval(chart: CoverChart, w: complex) -> complex:
    """Q^-(w) from the sampled circle; w must satisfy |w| > M*R.

    Exterior Cauchy sum for |w| >= 1.5*MR (spectrally accurate there);
    direct pipeline value Qtilde(w) - Q(w) in the thin band below.
    """
    aw = abs(w)
    inner = chart.inner_radius
    if aw >= 1.5 * inner:
        zk, gzk = chart._qminus_nodes
        return complex(-(gzk / (zk - w)).mean())
    if aw > 1.02 * inner:
        qt = _qtilde_batch(chart.H, chart.region, [w])
        return complex(qt[0] - chart.Q(w))
    raise OutsideChartDomain(
        f"|w| = {aw:.3g} too close to the inner radius {inner:.3g}"
    )


def r_series(chart: CoverChart, zeta: complex, tol: float | None = None) -> complex:
    """R(zeta) = sum_i (d/a)^(i+1) Q^-(zeta^(d^i)) for |zeta| > M*R."""
    if tol is None:
        tol = chart.series_tol
    z = complex(zeta)
    if not abs(z) > chart.inner_radius:
        raise OutsideChartDomain("r_series needs |zeta| > M*R")
    d = chart.H.d
    ratio = d / chart.H.jacobian
    total = 0.0 + 0.0j
    log_az = np.log(abs(z))
    log_ratio = np.log(abs(ratio))
    log_tol = np.log(max(tol, 1e-300))
    c_log = None  # log of the measured tail scale |Q^-(w)| * |w|
    # term i is ratio^(i+1) * O(|z|^(-d^i)); terms may grow at first when
    # |ratio| is large (strongly dissipative maps) but the double
    # exponential always wins.  Truncate on an a-priori bound of the next
    # term, never on the size of the current one.
    for i in range(60):
        exp_i = d**i
        if c_log is not None:
            term_bound = (i + 1) * log_ratio + c_log - exp_i * log_az
            decay = log_ratio - exp_i * (d - 1) * log_az
            if term_bound < log_tol - 0.7 and decay < -0.7:
                return total
        if exp_i * log_az > 300.0 * np.log(10.0):
            raise Divergence(
                "term bound failed to settle before the overflow cutoff"
            )
        w = z**exp_i
        qm = _qminus_eval(chart, w)
        total += ratio ** (i + 1) * qm
        c_log = float(np.log(max(abs(qm) * abs(w), 1e-300)))
    raise Divergence("correction series failed to settle within 60 terms")


def _r_series_bound(chart: CoverChart, s: float) -> float:
    """Closed-form bound on |R(zeta)| over |zeta| = s, for s >= 1.5*MR.

    Every w = zeta^(d^i) then has |w| >= s >= 1.5*MR, where _qminus_eval
    takes the exterior Cauchy sum, a mean of g_k z_k / (z_k - w) over the
    circle |z_k| = rho_q, so |Q^-(w)| <= G rho_q / (|w| - rho_q) with
    G = max|g_k|.  Summing over the terms of r_series,

        |R(zeta)| <= sum_i |d/a|^(i+1) G rho_q / (s^(d^i) - rho_q),

    which falls as s grows.  Once s^(d^i) >= 2 rho_q, each later term is at
    most q_i = 2 |d/a| s^(-(d-1) d^i) times the one before, and q_i falls
    with i, so for q_i <= 1/2 the tail after term i is at most
    term_i q_i / (1 - q_i).  Terms are taken in logs, as in r_series.
    """
    d = chart.H.d
    log_ratio = np.log(abs(d / chart.H.jacobian))
    log_g = np.log(max(float(np.abs(chart.qminus_samples).max()), 1e-300))
    log_rho = np.log(chart.qminus_rho)
    total = 0.0
    for i in range(60):
        # term i is |d/a|^(i+1) G / (e^x - 1) with x = log(s^(d^i) / rho_q)
        x = d**i * np.log(s) - log_rho
        log_term = (i + 1) * log_ratio + log_g - x - np.log1p(-np.exp(-x))
        term = float(np.exp(log_term))
        total += term
        q = 2.0 * float(np.exp(log_ratio - (d - 1) * (x + log_rho)))
        if x >= np.log(2.0) and q <= 0.5:
            tail = term * q / (1.0 - q)
            if tail <= 1e-16 * total:
                return total + tail
    raise Divergence("correction series bound failed to settle within 60 terms")


def psi_tilde(chart: CoverChart, z: Point) -> CoverPoint:
    """The chart map E3(E2(E1(z))).

    z must lie in the series bidisc M*max(|x|, R) <= 0.6|phi(z)|, a part of
    the certified domain W+_M, where psi comes from the series table;
    OutsideChartDomain otherwise.
    """
    phi = bottcher_phi(chart.H, z, chart.series_tol)
    if _outside_series_bidisc(chart.region, z.x, phi):
        raise OutsideChartDomain("M*max(|x|, R) > 0.6|phi|: outside the series bidisc")
    psi_val = complex(_series_eval(chart.H, chart.region, [z.x], [phi])[0][0])
    # the tail correction enters with the sign that makes the series
    # identity (a/d) R - R(.^d) = Q^- cancel the Laurent tail of the lift
    return CoverPoint(psi_val + r_series(chart, phi), phi)


def in_absorbing_region(chart: CoverChart, w: CoverPoint) -> bool:
    return abs(w.zeta) >= chart.Mtilde and abs(w.z) < chart.t * abs(w.zeta) ** 2


# psi_tilde_inverse's Newton: residual relative to max(|z'|, |zeta|), step cap
_INVERSE_TOL = 1e-11
_INVERSE_MAX_ITER = 50


def psi_tilde_inverse(chart: CoverChart, w: CoverPoint) -> Point:
    """Invert the chart on the absorbing region S_{Mtilde, t}.

    Removes the series correction and solves psi(x, zeta) = z' by Newton
    with slope zeta * dlambda/dy and initial guess z'/zeta.  psi, the slope
    and y = lambda(x, zeta) all come from the series table, so no lambda
    solve runs; the round that converges returns its y.
    """
    if not in_absorbing_region(chart, w):
        raise OutsideChartDomain("cover point outside S_{Mtilde, t}")
    zeta = complex(w.zeta)
    z_target = complex(w.z) - r_series(chart, zeta)
    x = z_target / zeta
    scale = max(abs(z_target), abs(zeta))
    for _ in range(_INVERSE_MAX_ITER):
        val, slope, y = _series_eval(chart.H, chart.region, [x], [zeta])
        f = complex(val[0]) - z_target
        if abs(f) <= _INVERSE_TOL * scale:
            return Point(x, complex(y[0]))
        x = x - f / (zeta * complex(slope[0]))
    raise NewtonNoConvergence(_INVERSE_MAX_ITER)


def lift_H(chart: CoverChart, w: CoverPoint) -> CoverPoint:
    """The model map (z, zeta) -> (a/d z + Q(zeta), zeta^d)."""
    H = chart.H
    return CoverPoint(
        H.jacobian / H.d * w.z + chart.Q(w.zeta), w.zeta**H.d
    )


def deck(chart: CoverChart, label: DeckLabel, w: CoverPoint) -> CoverPoint:
    """Deck transformation for the class [k/d^n].

    The z-shift is the finite sum of Q-differences; each monomial is
    evaluated as A_j * zeta^(j*d^l) * (1 - omega^(j*d^l)) with the root of
    unity reduced exactly first, so monomials that cancel identically never
    get exponentiated (they dominate and would overflow first).
    """
    H = chart.H
    d = H.d
    label = DeckLabel.reduced(label.k, label.n, d)
    if label.n == 0:
        return w
    k, n = label.k, label.n
    dn = d**n
    omega = np.exp(2j * np.pi * k / dn)
    zeta = complex(w.zeta)
    log_az = np.log(abs(zeta))
    ratio = d / H.jacobian
    shift = 0.0 + 0.0j
    A = chart.Q.coeffs
    for l in range(n):
        m = d**l
        pref = ratio ** (l + 1)
        for j, Aj in enumerate(A):
            if Aj == 0:
                continue
            e = (k * j * m) % dn
            if e == 0:
                continue  # exact cancellation of this monomial
            if (j * m) * log_az > 345.0:
                raise Overflow("surviving deck monomial exceeds 1e150")
            shift += pref * Aj * zeta ** (j * m) * (1.0 - np.exp(2j * np.pi * e / dn))
    return CoverPoint(w.z + shift, omega * zeta)


def covering_map(chart: CoverChart, w: CoverPoint, budget: int = 20) -> Point:
    """Project a cover point to U+ through the first absorbed lift.

    Applies the model map until the point enters S_{Mtilde, t}, inverts the
    chart there, and pulls back with H^{-n}.
    """
    cur = w
    for n in range(budget + 1):
        if in_absorbing_region(chart, cur):
            pt = psi_tilde_inverse(chart, cur)
            return iterate(chart.H, pt, -n)
        if n == budget:
            break
        if abs(cur.zeta) ** chart.H.d > 1e150 or abs(cur.z) > 1e150:
            raise BudgetExceeded(
                "model orbit overflow before entering the absorbing region"
            )
        cur = lift_H(chart, cur)
    raise BudgetExceeded(f"no absorption within {budget} model steps")


# ---------------------------------------------------------------------------
# persistence

def chart_to_dict(chart: CoverChart) -> dict:
    return {
        "format": "henoncover-chart-v1",
        "map": {"factors": _factors_json(chart.H)},
        "region": {"M": chart.region.M, "R": chart.region.R.R},
        "Q": [_c2l(c) for c in chart.Q.coeffs],
        "rho": chart.rho,
        "qminus_rho": chart.qminus_rho,
        "qminus_samples": np.stack(
            [chart.qminus_samples.real, chart.qminus_samples.imag], axis=1
        ).tolist(),
        "series_tol": chart.series_tol,
        "Mtilde": chart.Mtilde,
        "t": chart.t,
        "meta": chart.meta,
    }


def chart_from_dict(data: dict) -> CoverChart:
    if data.get("format") != "henoncover-chart-v1":
        raise ValueError("not a chart document")
    H = make_henon(
        [
            ([_l2c(c) for c in f["p"]], _l2c(f["a"]))
            for f in data["map"]["factors"]
        ]
    )
    reg = data["region"]
    return CoverChart(
        H=H,
        region=BoettcherRegion(reg["M"], FiltrationRadius(reg["R"])),
        Q=ComplexPolynomial(tuple(_l2c(c) for c in data["Q"])),
        rho=data["rho"],
        qminus_rho=data["qminus_rho"],
        qminus_samples=np.array([_l2c(c) for c in data["qminus_samples"]]),
        series_tol=data["series_tol"],
        Mtilde=data["Mtilde"],
        t=data["t"],
        meta=dict(data.get("meta", {})),
    )


def save_chart(chart: CoverChart, path):
    # no indent: json.dumps takes its C encoder only without one
    Path(path).write_text(json.dumps(chart_to_dict(chart)))


def load_chart(path) -> CoverChart:
    return chart_from_dict(json.loads(Path(path).read_text()))
