"""Covering chart of the escaping set and the model lift of H.

The chart is assembled in three steps on the region W~+_M:

    E1(x, y) = (x, phi(x, y))                 straighten y to the Bottcher value
    E2(x, y) = (psi(x, y), y),  psi = y * int_0^x dlambda/dy(t, y) dt
    E3(x, y) = (x - R(y), y)                  kill the Laurent tail

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
    lambda_inverse,
    lambda_vec,
)
from .filtration import FiltrationRadius
from .henon import (
    ComplexPolynomial,
    HenonError,
    HenonMap,
    Point,
    _c2l,
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


# ---------------------------------------------------------------------------
# psi quadrature

_GL_NODES = 24
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)

# inner solves (lambda Newton, phi series, Cauchy derivative) run far below
# the quadrature target; sample noise otherwise scales with the integrand
# magnitude and poisons the Fourier coefficients of Qtilde.  Kept a factor
# above the double rounding floor so the Newton residual test stays reachable.
_INNER_TOL = 3e-15


def _composite_nodes(panels: int):
    """Gauss-Legendre nodes/weights for [0, 1] split into equal panels."""
    h = 1.0 / panels
    starts = np.arange(panels) * h
    s = (starts[:, None] + (0.5 * h) * (_gl_x[None, :] + 1.0)).ravel()
    w = np.broadcast_to(0.5 * h * _gl_w, (panels, _GL_NODES)).ravel()
    return s, w


def _psi_batch(
    H: HenonMap,
    region: BoettcherRegion,
    X,
    W,
    tol: float = 1e-11,
    max_panels: int = 16,
):
    """psi(X_i, W_i) = W_i * int_0^{X_i} dlambda/dy(t, W_i) dt, batched.

    Straight-segment Gauss-Legendre with panel doubling until the value is
    stable to tol relative.
    """
    X = np.asarray(X, dtype=complex)
    W = np.asarray(W, dtype=complex)
    if np.any(region.M * np.abs(X) >= np.abs(W)):
        raise SegmentOutsideRegion(
            "segment endpoint violates |x| < |y|/M"
        )

    def one_level(panels):
        s, wts = _composite_nodes(panels)
        T = X[:, None] * s[None, :]
        Wb = np.broadcast_to(W[:, None], T.shape)
        F, ok = dlambda_dy_vec(H, T.ravel(), Wb.ravel(), region, _INNER_TOL)
        if not ok.all():
            raise SegmentOutsideRegion("integrand node failed region solve")
        F = F.reshape(T.shape)
        return (F * wts[None, :]).sum(axis=1) * X

    prev = one_level(1)
    panels = 2
    while panels <= max_panels:
        cur = one_level(panels)
        scale = np.maximum(np.abs(cur), np.abs(X) + 1e-30)
        if np.max(np.abs(cur - prev) / scale) <= tol:
            return W * cur
        prev = cur
        panels *= 2
    raise NoConvergence(max_panels)


def psi_integral(
    H: HenonMap,
    region: BoettcherRegion,
    x: complex,
    y: complex,
    tol: float = 1e-11,
) -> complex:
    """psi(x, y) for a single point; the segment [0, x] x {y} must sit in W+_M."""
    vals = _psi_batch(H, region, [x], [y], tol)
    return complex(vals[0])


# ---------------------------------------------------------------------------
# chart construction

def _qtilde_batch(H: HenonMap, region: BoettcherRegion, zetas, tol: float = 1e-11):
    """Qtilde(zeta) = psi(P1(lambda(0, zeta)), zeta^d) on an array of zetas."""
    zetas = np.asarray(zetas, dtype=complex)
    lam0, ok = lambda_vec(H, np.zeros_like(zetas), zetas, region, _INNER_TOL, 100)
    if not ok.all():
        raise NoConvergence(100)
    p1 = first_component_axis_poly(H)
    x0 = p1(lam0)
    w = zetas**H.d
    return _psi_batch(H, region, x0, w, tol)


def _extract_positive_part(samples, rho: float, top_degree: int):
    """Fourier split: polynomial coefficients 0..top_degree from circle samples."""
    n = samples.size
    coef = np.fft.fft(samples) / n
    j = np.arange(top_degree + 1)
    return coef[: top_degree + 1] * rho ** (-j.astype(float)), coef


def build_chart(
    H: HenonMap,
    region: BoettcherRegion | None = None,
    samples_per_degree: int = 64,
    series_tol: float = 1e-12,
    quad_tol: float = 1e-11,
    validate: bool = True,
) -> CoverChart:
    """Sample the conjugated map on circles and assemble the chart.

    Pipeline: certify the Bottcher region, sample Qtilde on |zeta| = 2MR,
    split off the monic degree-(d+d') polynomial Q by FFT, re-extract at
    twice the radius as a stability check, store the Laurent tail Q^- as a
    sampled circle evaluator on |zeta| = 1.25*MR, then fix t = 1/(4M) and
    certify the absorbing radius Mtilde by doubling.
    """
    if region is None:
        region = certify_region(H)
    M = region.M
    R = region.R.R
    deg = H.d + H.d_prime
    rho = 2.0 * M * R
    n = 1 << max(6, int(np.ceil(np.log2(samples_per_degree * deg))))
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = np.exp(1j * theta)

    qt = _qtilde_batch(H, region, rho * circle, quad_tol)
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

    meta = {
        "monic_defect": float(monic_defect),
        "decay_max": junk_max,
        "circle_samples": int(n),
    }

    if validate:
        qt2 = _qtilde_batch(H, region, 2.0 * rho * circle, quad_tol)
        coeffs2, _ = _extract_positive_part(qt2, 2.0 * rho, deg)
        scale = np.maximum(np.abs(coeffs), 1.0)
        agreement = float(np.max(np.abs(coeffs - coeffs2) / scale))
        meta["two_radius_agreement"] = agreement
        if agreement > 1e-7:
            raise DecayFailed(
                f"two-radius coefficient agreement {agreement:.3e} > 1e-7"
            )

    Q = ComplexPolynomial(tuple(coeffs))

    # sampled evaluator for the tail, on a circle close to the inner edge
    q_rho = 1.25 * M * R
    qt_inner = _qtilde_batch(H, region, q_rho * circle, quad_tol)
    g = qt_inner - Q(q_rho * circle)

    chart = CoverChart(
        H=H,
        region=region,
        Q=Q,
        rho=rho,
        qminus_rho=q_rho,
        qminus_samples=g,
        series_tol=series_tol,
        Mtilde=2.0 * M * R,  # provisional; certified below
        t=1.0 / (4.0 * M),
        meta=meta,
    )

    mt = 2.0 * M * R
    cert_angles = np.exp(1j * 2.0 * np.pi * np.arange(64) / 64)
    for _ in range(13):
        bound_ok = True
        count = 0
        for radial in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0):
            zs = mt * radial * cert_angles
            vals = np.array([r_series(chart, z) for z in zs])
            count += zs.size
            if not np.all(np.abs(vals) < (mt * radial) ** 2 / (4.0 * M)):
                bound_ok = False
                break
        if bound_ok:
            chart.Mtilde = mt
            meta["mtilde_certification_samples"] = count
            return chart
        mt *= 2.0
    raise DecayFailed("no Mtilde up to 2^13 * 2MR certified |R| < |zeta|^2/(4M)")


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
        zk = chart.qminus_rho * np.exp(
            1j * 2.0 * np.pi * np.arange(chart.qminus_samples.size)
            / chart.qminus_samples.size
        )
        return complex(
            -(chart.qminus_samples * zk / (zk - w)).mean()
        )
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


def psi_tilde(chart: CoverChart, z: Point, tol: float = 1e-11) -> CoverPoint:
    """The chart map E3(E2(E1(z))); z must lie in the certified domain."""
    M, R = chart.region.M, chart.region.R.R
    phi = bottcher_phi(chart.H, z, chart.series_tol)
    if not abs(phi) > M * max(abs(z.x), R):
        raise OutsideChartDomain("|phi| <= M*max(|x|, R)")
    psi_val = psi_integral(chart.H, chart.region, z.x, phi, tol)
    # the tail correction enters with the sign that makes the series
    # identity (a/d) R - R(.^d) = Q^- cancel the Laurent tail of the lift
    return CoverPoint(psi_val + r_series(chart, phi), phi)


def in_absorbing_region(chart: CoverChart, w: CoverPoint) -> bool:
    return abs(w.zeta) >= chart.Mtilde and abs(w.z) < chart.t * abs(w.zeta) ** 2


def psi_tilde_inverse(
    chart: CoverChart,
    w: CoverPoint,
    tol: float = 1e-11,
    max_iter: int = 50,
) -> Point:
    """Invert the chart on the absorbing region S_{Mtilde, t}.

    Removes the series correction, solves psi(x, zeta) = z' by Newton
    with slope zeta * dlambda/dy and initial guess z'/zeta, then recovers
    y = lambda(x, zeta).
    """
    if not in_absorbing_region(chart, w):
        raise OutsideChartDomain("cover point outside S_{Mtilde, t}")
    zeta = complex(w.zeta)
    z_target = complex(w.z) - r_series(chart, zeta)
    x = z_target / zeta
    scale = max(abs(z_target), abs(zeta))
    for _ in range(max_iter):
        val = psi_integral(chart.H, chart.region, x, zeta, tol)
        f = val - z_target
        if abs(f) <= tol * scale:
            break
        slope, ok = dlambda_dy_vec(chart.H, [x], [zeta], chart.region)
        if not ok[0]:
            raise NewtonNoConvergence(max_iter)
        x = x - f / (zeta * complex(slope[0]))
    else:
        raise NewtonNoConvergence(max_iter)
    y = lambda_inverse(chart.H, x, zeta, chart.region)
    return Point(x, y)


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

def _l2c(v) -> complex:
    return complex(v[0], v[1])


def chart_to_dict(chart: CoverChart) -> dict:
    return {
        "format": "henoncover-chart-v1",
        "map": {
            "factors": [
                {"p": [_c2l(c) for c in f.p.coeffs], "a": _c2l(f.a)}
                for f in chart.H.factors
            ]
        },
        "region": {
            "M": chart.region.M,
            "R": chart.region.R.R,
            "epsilon": chart.region.epsilon,
            "samples": chart.region.certification_samples,
        },
        "Q": [_c2l(c) for c in chart.Q.coeffs],
        "rho": chart.rho,
        "qminus_rho": chart.qminus_rho,
        "qminus_samples": [_c2l(c) for c in chart.qminus_samples],
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
    region = BoettcherRegion(
        reg["M"],
        FiltrationRadius(reg["R"]),
        reg["epsilon"],
        reg["samples"],
    )
    return CoverChart(
        H=H,
        region=region,
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
    Path(path).write_text(json.dumps(chart_to_dict(chart), indent=1))


def load_chart(path) -> CoverChart:
    return chart_from_dict(json.loads(Path(path).read_text()))
