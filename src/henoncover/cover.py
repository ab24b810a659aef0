"""Covering chart of the escaping set and the model lift of H.

The chart is assembled in three steps on the region W~+_M:

    E1(x, y) = (x, phi(x, y))                 straighten y to the Bottcher value
    E2(x, y) = (psi(x, y), y),  psi = y * int_0^x dlambda/dy(t, y) dt
    E3(x, y) = (x - R(y), y)                  kill the Laurent tail

E2 is evaluated from the chart's series table on W+_M = certify_region(H):
the Taylor coefficients in s = x/y and u = 1/y of dlambda/dy and of
log(lambda/y), which are holomorphic on the bidisc of W+_M and extend
across u = 0 (Hubbard & Oberste-Vorth, Publ. Math. IHES 79, 1994).  One
batched lambda solve on a torus and a 2-D FFT give them (the trapezoidal
rule on a torus: Trefethen & Weideman, SIAM Rev. 56, 2014); psi is the
termwise integral in x.  psi_integral keeps the direct quadrature, one
fixed 20-node Gauss-Legendre panel on the segment [0, x], as the
reference.

Conjugating H through E3 . E2 . E1 yields the polynomial model

    (z, zeta) -> (a/d * z + Q(zeta), zeta^d)

with Q monic of degree d + d'.  Qtilde(zeta) = psi(P1(lambda(0, zeta)), zeta^d)
is Q plus a tail Q^- = O(1/zeta), holomorphic in 1/zeta.  One truncated
power-series computation in 1/zeta reads Q and Q^-'s Laurent coefficients
off the table, and R, which solves (a/d) R(zeta) - R(zeta^d) = Q^-(zeta),
is one Horner sum in 1/zeta.  CoverChart(H) derives all of this once, in
its constructor, so a build is one lambda solve, the table's.  Qtilde
sampled on |zeta| = 1.25MR checks Q (CoverChart.meta): a second lambda
solve, run on first read of meta, which verify's cover.q_structure makes.
The torus and the circle are closed under conjugation, so for a map with
real coefficients (H.is_real) each solve runs at one node of each
conjugate pair and conjugates the rest (_series_table).
Deck transformations rotate zeta by d-power roots of unity and shift z by
an exactly cancelling Q-difference.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boettcher import (
    _LAMBDA_MAX_ITER,
    BoettcherRegion,
    NoConvergence,
    bottcher_phi,
    certify_region,
    dlambda_dy_vec,
    lambda_vec,
)
from .filtration import BAIL_OUT
from .henon import (
    ComplexPolynomial,
    HenonError,
    HenonMap,
    Point,
    _c2l,
    _complex_from,
    _factors_json,
    _number_from,
    _read_key,
    first_component_axis_poly,
    iterate,
    map_from_json,
)

__all__ = [
    "MonicityFailed",
    "DecayFailed",
    "OutsideChartDomain",
    "BudgetExceeded",
    "Overflow",
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


class OutsideChartDomain(HenonError):
    pass


class BudgetExceeded(HenonError):
    pass


class Overflow(HenonError):
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


@dataclass(frozen=True)
class CoverChart:
    """The chart of one map H, derived in full when it is constructed.

    CoverChart(H) derives, once: the region W+_M = certify_region(H), the
    series table and its tail (_series_table), the lift polynomial Q with
    Q^-'s Laurent coefficients and their majorant A (_q_from_series), R's
    Laurent coefficients (_r_laurent), the aspect t = 1/(4M) and the
    radius Mtilde of the absorbing region S_{Mtilde, t} = {|zeta| >=
    Mtilde, |z| < t |zeta|^2}.  So every gate fires in the constructor:
    DecayFailed if the table's K = 16 orders cannot hold Q, if the table's
    tail exceeds 1e-12 or if _r_series_bound is not finite at 2MR;
    NoConvergence if a torus node fails; Overflow if a coefficient of Q is
    not a finite double; MonicityFailed if |leading(Q) - 1| > 1e-6.  H is
    the one field, so a second CoverChart(H) is an equal chart with the
    same bits.  meta, the circle check of Q, is the one value left to its
    first read: it solves lambda again, and no chart function reads it.

    Mtilde is the first s = 2MR 2^k with B(s) < t s^2, B = _r_series_bound.
    The search ends once B(2MR) = b is finite: for s >= s0 = 2MR,
    B(s) <= 2 (s0 / s) b, so the check holds by the first s with
    t s^3 > 2 s0 b.  Each term of B falls at least like 1/s: |r_m| s^-m
    with m >= 1, and the tail terms c_i x_i^(k_i + 1) / (1 - x_i), whose
    x_i = rho'/s^(d^i) falls and stays below rho'/s0 = 1/6.  q_i falls
    with s, so B(s) stops at an index I(s) <= I(s0): its terms up to I(s)
    are at most s0/s times b's, and its remainder term_I q_I / (1 - q_I)
    <= term_I (q_I <= 1/2) at most s0/s times one of b's terms.
    """

    H: HenonMap

    def __post_init__(self):
        H = self.H
        deg, K = H.d + H.d_prime, _TORUS_N // 2
        if deg >= K:
            raise DecayFailed(f"Q needs d + d' + 1 = {deg + 1} series orders; the table has {K}")
        region = certify_region(H)
        table, tail = _series_table(H, region)
        coeffs, q, A = _q_from_series(H, region, table)
        if not np.isfinite(coeffs).all():
            raise Overflow("a coefficient of Q exceeds the double range")
        monic_defect = abs(coeffs[-1] - 1.0)
        if monic_defect > 1e-6:
            raise MonicityFailed(float(monic_defect))
        r = _r_laurent(H, q)
        inner = region.M * region.R.R
        # frozen: the derived values go straight into the instance dict
        vars(self).update(
            region=region, inner_radius=inner, t=1.0 / (4.0 * region.M), series_tail=tail,
            Q=ComplexPolynomial(tuple(coeffs)), _table=table, _A=A, _r=r,
            # r_series' domain edge and Horner coefficients (r_N, ..., r_1)
            _r_horner=(1.5 * inner, tuple(complex(c) for c in r[::-1])),
        )
        # the first 2MR * 2^k at which _r_series_bound proves |R| < t |zeta|^2:
        # the bound falls as |zeta| grows while t |zeta|^2 rises, so the one
        # check at Mtilde covers every |zeta| >= Mtilde, and a finite bound
        # at 2MR ends the search (docstring)
        Mtilde = 2.0 * inner
        if not np.isfinite(_r_series_bound(self, Mtilde)):
            raise DecayFailed("_r_series_bound is not finite at 2MR: no Mtilde is proved")
        while _r_series_bound(self, Mtilde) >= self.t * Mtilde**2:
            Mtilde *= 2.0
        vars(self)["Mtilde"] = Mtilde

    @functools.cached_property
    def meta(self) -> dict:
        """The check of Q on one circle, |zeta| = rho_q = 1.25MR.

        Run on first read, not by the constructor: nothing in the chart
        reads it, and verify's cover.q_structure does.  Qtilde there takes
        one lambda_vec Newton for lambda(0, zeta) (1/zeta is outside the
        series bidisc).  The circle's n samples sit at rho_q e_k, _unit_roots(n),
        so they come in exact conjugate pairs, and a real map solves
        lambda(0, .) at n/2 + 1 of them (129 of 256, 257 of 512) and
        conjugates the rest, as the table does (_series_table).
        Q^- = O(1/zeta), so the non-negative Fourier bins of
        Qtilde - Q are rounding; bin n carries the error of Q_n times
        rho_q^n.  decay_max is the largest (DecayFailed above
        1e-6 rho_q^(d+d')); two_radius_agreement is max_n |bin_n| rho_q^-n /
        max(|Q_n|, 1), and tail_purity the same over its floor
        eps max|Qtilde| rho_q^-n / max(|Q_n|, 1).  The samples are not kept.
        """
        Q, deg = self.Q, self.Q.degree
        coeffs = np.array(Q.coeffs)
        n = 1 << max(6, int(np.ceil(np.log2(_SAMPLES_PER_DEGREE * deg))))
        q_rho = 1.25 * self.region.M * self.region.R.R
        zk = q_rho * _unit_roots(n)
        qt = _qtilde_batch(self, zk, (-np.arange(n)) % n)
        bins = np.abs(np.fft.fft(qt - Q(zk))[: n // 2]) / n
        decay_max = float(bins.max())
        if decay_max > 1e-6 * q_rho**deg:
            raise DecayFailed(f"Q^- has Fourier content {decay_max:.3e} in degrees >= 0")
        low = bins[: deg + 1]
        err = low * q_rho ** -np.arange(deg + 1.0) / np.maximum(np.abs(coeffs), 1.0)
        # per degree the floor's rho_q^-n / max(|Q_n|, 1) cancels in the purity
        purity = float(low.max() / (np.finfo(float).eps * np.abs(qt).max()))
        return {
            "monic_defect": float(abs(coeffs[-1] - 1.0)),
            "decay_max": decay_max,
            "circle_samples": int(n),
            "two_radius_agreement": float(err.max()),
            "tail_purity": purity,
            "series_tail": self.series_tail,
        }


# ---------------------------------------------------------------------------
# psi quadrature

# lambda solves (the table's torus, lambda(0, zeta) in _qtilde_batch and
# psi_integral's nodes) run far below the chart's targets, else sample
# noise poisons the table's coefficients; a factor above the rounding
# floor, so the Newton residual test stays reachable.
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


def psi_integral(H: HenonMap, x: complex, y: complex) -> complex:
    """psi(x, y) = y * int_0^x dlambda/dy(t, y) dt on one Gauss-Legendre panel.

    The direct reference for the series table: one lambda solve on the
    mapped nodes.  [0, x] x {y} must sit in W+_M = certify_region(H);
    OutsideChartDomain if an endpoint does not or a node solve fails.
    """
    if certify_region(H).M * abs(x) >= abs(y):
        raise OutsideChartDomain("segment endpoint violates |x| < |y|/M")
    s, ws = _psi_panel()
    F, ok, _ = dlambda_dy_vec(H, x * s, np.full(s.shape, y), _INNER_TOL)
    if not ok.all():
        raise OutsideChartDomain("integrand node failed region solve")
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


def _unit_roots(n: int):
    """The n-th roots of unity e_k = exp(2 pi i k/n), n even, with
    e_(n-k) = conj(e_k) exactly: e_0 = 1, e_(n/2) = -1, and the upper half
    mirrors the lower (np.exp alone misses the pairs in the last bits)."""
    e = np.exp(2j * np.pi * np.arange(n) / n)
    e[0], e[n // 2] = 1.0, -1.0
    e[n // 2 + 1 :] = np.conj(e[n // 2 - 1 : 0 : -1])
    return e


def _torus_nodes(region: BoettcherRegion):
    """(x, w), each N x N: the table's torus on the region W+_M, row i at
    sigma = e_i, column j at upsilon = e_j.

    The e_k are _unit_roots, and x and w are products and quotients of
    them with real scalars, which commute with conj exactly; so node
    (-i, -j) is exactly the conjugate of node (i, j) (indices mod N).
    """
    M, R = region.M, region.R.R
    e = _unit_roots(_TORUS_N)
    w = 1.0 / np.broadcast_to(_TORUS_FRAC / (M * R) * e[None, :], (_TORUS_N, _TORUS_N))
    return w * (_TORUS_FRAC / M) * e[:, None], w


def _conjugate_pairs(H: HenonMap, mirror):
    """(rep, fill) for a lambda solve on nodes closed under conjugation.

    Node mirror[k] is the conjugate of node k.  For a real map (H.is_real)
    rep holds one node of each pair, those with k <= mirror[k], and
    fill(v) spreads v, the solve's values at rep, to every node: a rep
    node keeps its value and its mirror takes the conjugate (_series_table
    proves the symmetry).  A complex map takes the same path with every
    node its own representative: rep is every node and fill returns v.
    """
    pairs = mirror if H.is_real else np.arange(mirror.size)
    rep = np.flatnonzero(np.arange(pairs.size) <= pairs)

    def fill(v):
        out = np.empty(pairs.size, dtype=complex)
        out[pairs[rep]] = np.conj(v)
        out[rep] = v
        return out

    return rep, fill


def _series_table(H: HenonMap, region: BoettcherRegion):
    """(C, tail): Taylor coefficients of the chart on W+_M = region, from one solve.

    With r_s = 0.75/M, r_u = 0.75/(MR) and scaled variables
    sigma = s/r_s, upsilon = u/r_u (s = x/y, u = 1/y), the functions

        h = dlambda/dy = sum b_jk sigma^j upsilon^k,
        g = log(lambda/y) = sum g_jk sigma^j upsilon^k

    are holomorphic in (sigma, upsilon) on W+_M, whose radii are 4/3 in
    these variables, and extend across u = 0.  One dlambda_dy_vec call on
    the N x N torus |sigma| = |upsilon| = 1 gives h and lambda at every
    node (for a real map, at one node of each conjugate pair; see below);
    fft2 / N^2 of h and of log(lambda/y) are b_jk and g_jk up to
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

    The proved bound.  Let B bound |f| on the torus |sigma| = |upsilon| = r
    for some 1 < r < 4/3, f either function.  Cauchy's estimate gives
    |f_jk| <= B r^-(j+k).  FFT bin (j, k) is f_jk plus the aliases
    f_(j+pN, k+qN), p, q >= 0 not both 0 (f has no negative orders), so it
    is off by at most B r^-(j+k) ((1 - r^-N)^-2 - 1).  On the evaluation
    bidisc the truncated table is therefore within

        B ((1 - (1 - q^K)^2) + ((1 - r^-N)^-2 - 1)) / (1 - q)^2,  q = 0.8/r,

    of f.  For g, g(x, y) = -log(phi(x, lambda)/lambda), and log(phi/y) =
    sum_n d^-(n+1) log(1 + w_n) with |w_n| <= 1/2 on W+_M, so
    B = log 2/(d - 1) wherever (x, lambda) lies in W+_M.  As r -> 4/3 the
    bound tends to 4.8e-3 B.  It is far above the error the tail measures,
    which reaches rounding by K = 16, so the build gates on the tail.

    Conjugate pairs.  If H has real coefficients (H.is_real), the solve
    runs at 514 of the 1,024 nodes, one of each of the 510 conjugate pairs
    and the 4 self-conjugate nodes (sigma, upsilon in {1, -1}), and each
    mirror node takes the conjugate values (_conjugate_pairs).  Why that
    is the full solve:
      - The symmetry.  H(conj z) = conj H(z), so each factor 1 + w_n of
        the orbit product is conjugated, and log(1 + w), |w| <= 1/2, is a
        power series with real coefficients; so phi(conj x, conj y) =
        conj phi(x, y) on W+_M, which |x| and |y| define and conj maps
        onto itself.  lambda(x, .) inverts phi(x, .) on its slice of W+_M,
        so lambda(conj x, conj w) = conj lambda(x, w).  Differentiating
        phi(conj x, conj y) = conj phi(x, y) in y gives the same law for
        dphi/dy and so for dlambda/dy = 1/(dphi/dy).  And lambda/w =
        exp(-S(x, lambda)) with |Im S| <= pi/6 on W+_M (alpha_of_loop), off
        the negative axis, where the principal log commutes with conj.  The
        torus is closed under conj (_torus_nodes), so h and lambda at
        node (-i, -j) are the conjugates of those at (i, j).
      - The residual test.  Newton stops at |phi(x, y) - w| <= tol |w|.
        At (conj x, conj w) the point conj y has residual conj(phi(x, y)
        - w), of the same modulus, so a converged node's mirror meets the
        same test with the mirrored value.
      - Floats.  Measured, the float run commutes with conj bit for bit:
        a full-torus solve returns at node (-i, -j) exactly the conjugate
        of node (i, j) on the fixtures, on 40 draws of real maps, and on
        meta's circles (numpy 2.4), and the tests assert it exactly.
        Every Newton round runs phi_series's batch driver, whose value at
        a node does not depend on the other nodes of the round, so a node
        and its mirror take the same arithmetic however many nodes are
        still active.  IEEE +, -, * and / are symmetric in the sign of an
        imaginary part, and numpy's complex exp and log are odd in it.  A
        libm that broke that symmetry would move the table by rounding
        only, since both values pass the residual test.
    A complex map solves every node through the same code.
    """
    N, K = _TORUS_N, _TORUS_N // 2
    x, w = _torus_nodes(region)
    m = (-np.arange(N)) % N
    rep, fill = _conjugate_pairs(H, (m[:, None] * N + m).ravel())
    h, ok, lam = dlambda_dy_vec(H, x.ravel()[rep], w.ravel()[rep], _INNER_TOL)
    if not ok.all():
        raise NoConvergence(_LAMBDA_MAX_ITER)
    b = np.fft.fft2(fill(h).reshape(N, N)) / N**2
    g = np.fft.fft2(np.log(fill(lam).reshape(N, N) / w)) / N**2
    tail = max(float(np.abs(c[K:]).max()) for c in (b, g, b.T, g.T))
    if tail > _SERIES_TAIL_MAX:
        raise DecayFailed(f"series table tail {tail:.3e} > {_SERIES_TAIL_MAX:g}")
    b, g = b[:K, :K], g[:K, :K]
    C = np.concatenate([b / np.arange(1, K + 1)[:, None], b, g], axis=1)
    C.flags.writeable = False
    return C, tail


def _series_eval(chart: CoverChart, X, W):
    """(psi, dlambda/dy, lambda) at the points (X_i, W_i) from the chart's table.

    The points must lie in the series bidisc M*max(|X|, R) <= 0.6|W|;
    OutsideChartDomain otherwise, a NaN coordinate counting as outside (a
    one-point call tests on Python scalars, with the NaN |X| first in max).
    dpsi/dx is W * dlambda/dy.  Each point's powers and products are its
    own (a running product along its row, then two small matrix products
    per point), so its values do not depend on the other points of the call.
    """
    X, W = np.asarray(X, dtype=complex).ravel(), np.asarray(W, dtype=complex).ravel()
    M, R = chart.region.M, chart.region.R.R
    if X.size == 1:
        inside = M * max(abs(X.item()), R) <= _SERIES_FRAC * abs(W.item())
    else:
        inside = (M * np.maximum(np.abs(X), R) <= _SERIES_FRAC * np.abs(W)).all()
    if not inside:
        raise OutsideChartDomain("point outside the series bidisc M*max(|x|, R) <= 0.6|y|")
    C = chart._table
    K = C.shape[0]
    # per point, powers 0 .. K-1 of sigma = (X/W)/r_s and of
    # upsilon = (1/W)/r_u, one row each
    p = np.empty((X.size, 2, K), dtype=complex)
    p[:, :, 0] = 1.0
    p[:, 0, 1:] = (X / W * (M / _TORUS_FRAC))[:, None]
    p[:, 1, 1:] = (M * R / _TORUS_FRAC / W)[:, None]
    np.multiply.accumulate(p, axis=2, out=p)
    a, b, g = ((p[:, :1] @ C).reshape(-1, 3, K) @ p[:, 1, :, None]).reshape(-1, 3).T
    return W * X * a, b, W * np.exp(g)


# ---------------------------------------------------------------------------
# chart construction

def _qtilde_batch(chart: CoverChart, zetas, mirror=None):
    """Qtilde(zeta) = psi(P1(lambda(0, zeta)), zeta^d) on a 1-D array of
    zetas, psi from the table.

    lambda(0, zeta) is solved by lambda_vec: meta's circle at 1.25MR lies
    below the series bidisc, and verify's check of R wants a solve
    that bypasses the table's lambda.  With mirror, zetas[mirror[k]] being
    exactly conj(zetas[k]), a real map solves one zeta of each pair and
    takes the other's lambda by conjugation (_conjugate_pairs); without
    it every zeta is solved.
    """
    H = chart.H
    zetas = np.asarray(zetas, dtype=complex).ravel()
    rep, fill = _conjugate_pairs(H, np.arange(zetas.size) if mirror is None else mirror)
    lam0, ok = lambda_vec(H, np.zeros(rep.size, dtype=complex), zetas[rep], _INNER_TOL)
    if not ok.all():
        raise NoConvergence(_LAMBDA_MAX_ITER)
    x0 = first_component_axis_poly(H)(fill(lam0))
    return _series_eval(chart, x0, zetas**H.d)[0]


# Laurent orders of Q^- and R, and rho'/MR of the majorant past them
_LAURENT_N = _TORUS_N
_MAJORANT_FRAC = 1.0 / 3.0


@np.errstate(over="ignore", invalid="ignore")
def _q_from_series(H: HenonMap, region: BoettcherRegion, C, N: int = _LAURENT_N):
    """(Q, q, A): Q's coefficients, constant first, Q^-'s Laurent
    coefficients q_1 .. q_N, and the constant A of the bound past N, from
    the series table C of _series_table on W+_M = region.

    In t = 1/zeta the table gives lambda(0, zeta) = zeta E(t) with
    E = exp(sum_k g_0k (t/r_u)^k), so x0 = P1(lambda(0, zeta)) = t^(-d') X(t)
    with X = t^d' P1(E/t), and with sigma = X t^(d-d')/r_s, upsilon =
    t^d/r_u in psi(x0, zeta^d),

        Qtilde = t^(-(d+d')) S(t),
        S = X sum_jk a_jk r_s^(-j) r_u^(-k) X^j t^((d-d')j + dk).

    Q_n is the t^(d+d'-n) coefficient of S and q_m its t^(d+d'+m) one.
    Table orders j, k >= K are taken as 0, which makes S the series of an
    entire function S_T (and E's recurrence sums only k < K); products are
    truncated after order d + d' + N, which leaves every lower order
    exact, so Q does not depend on N (Q needs d + d' < K; CoverChart
    checks).  For a real map the table's torus values come in exact
    conjugate pairs (_series_table), so C, Q and the q_m are real up to
    the FFT's rounding: max |Im Q_n| reads 3.3e-15 on htwo, against
    3.0e-12 from a torus whose nodes were np.exp's, a few ulps off the
    pairs.

    Truncation bound: the same composition on the coefficients' moduli at
    t = 1/rho', rho' = MR/3, majorises S_T, so |q_m| <= A rho'^m with
    A = Shat rho'^(d+d'), and on |w| = sigma > rho'

        |Q^-(w) - sum_(m<=n) q_m w^-m| <= A x^(n+1) / (1 - x),  x = rho'/sigma.

    N = 2K = 32: at 1.5MR, R's domain edge, x^(N+1)/(1 - x) = 3.6e-22
    (A reads 20 on href, 7.7 on hcubic, 86 on htwo, 5.2e4 on
    (y^2 - 1, a = 0.5)^3).  A is inf if the majorant overflows, and a
    coefficient is inf or NaN where the composition overflows a double (Q_0
    of y^3 + 1e110 y^2 is of order 1e330); CoverChart refuses such a Q.
    """
    M, R = region.M, region.R.R
    K = C.shape[0]
    d, e, D = H.d, H.d - H.d_prime, H.d + H.d_prime
    n = D + 1 + N
    r_s, r_u = _TORUS_FRAC / M, _TORUS_FRAC / (M * R)
    # E = exp(G) by the recurrence m E_m = sum_k k G_k E_(m-k), from E' = G'E;
    # G_k = 0 for k >= K, so the sum stops at k = K - 1
    G = C[0, 2 * K :] * r_u ** -np.arange(K)
    kG = np.arange(K) * G
    E = np.zeros(n, dtype=complex)
    E[0] = np.exp(G[0])
    for m in range(1, n):
        top = min(m, K - 1)
        E[m] = kG[1 : top + 1] @ E[m - 1 :: -1][:top] / m
    # X = sum_i p_i E^i t^(d'-i) by Horner in E, then S / X by Horner in X
    p = first_component_axis_poly(H).coeffs
    X, S = np.zeros_like(E), np.zeros_like(E)
    for i, c in enumerate(p[::-1]):
        X = np.convolve(X, E)[:n]
        X[i] += c
    for j in range(min((n - 1) // e, K - 1), -1, -1):
        S = np.convolve(S, X)[:n]
        k = np.arange(min((n - 1 - e * j) // d + 1, K))
        S[e * j + d * k] += C[j, k] * r_s**-j * r_u**-k
    S = np.convolve(X, S)[:n]
    # the majorant at tau = 1/rho'
    tau, jk = np.float64(1.0 / (_MAJORANT_FRAC * M * R)), np.arange(K)
    Eh = np.exp(np.abs(G) @ tau**jk)
    Xh = sum(abs(c) * Eh**i * tau ** (len(p) - 1 - i) for i, c in enumerate(p))
    a = np.abs(C[:, :K]) * (r_s ** -jk)[:, None] * r_u ** -jk
    A = float(Xh * ((Xh * tau**e) ** jk @ a @ tau ** (d * jk)) * tau**-D)
    Q, q = S[D::-1], S[D + 1 :]
    Q.flags.writeable = q.flags.writeable = False
    return Q, q, A if np.isfinite(A) else np.inf


def _r_laurent(H: HenonMap, q):
    """R's Laurent coefficients r_1 .. r_N from Q^-'s, q_1 .. q_N.

    R = sum_i (d/a)^(i+1) Q^-(zeta^(d^i)) solves (a/d) R(zeta) - R(zeta^d)
    = Q^-(zeta), so r_m = (d/a)(q_m + r_(m/d)), r_(m/d) only when d | m.
    """
    r, ratio = np.zeros(q.size + 1, dtype=complex), H.d / H.jacobian
    for m in range(1, q.size + 1):
        r[m] = ratio * (q[m - 1] + (r[m // H.d] if m % H.d == 0 else 0.0))
    r.flags.writeable = False
    return r[1:]


# CoverChart.meta's circle: Qtilde samples per degree of Q (the circle
# size is the next power of two, at least 64)
_SAMPLES_PER_DEGREE = 64


def build_chart(H: HenonMap) -> CoverChart:
    """CoverChart(H): the chart with every gate of its build passed.  The
    circle check (meta) is not run: it is a check of Q, not an input of
    the chart, and verify's cover.q_structure runs it."""
    return CoverChart(H)


# ---------------------------------------------------------------------------
# evaluation on a built chart

def r_series(chart: CoverChart, zeta: complex) -> complex:
    """R(zeta) = sum_(m<=N) r_m zeta^-m for |zeta| >= 1.5*M*R: one Horner sum in 1/zeta.

    The r_m are _r_laurent's; _r_series_bound bounds the orders past N.
    OutsideChartDomain below 1.5MR, the domain that bound assumes.  No
    caller in the package goes lower: psi_tilde passes phi only after
    _series_eval has accepted |phi| >= MR/0.6, psi_tilde_inverse passes
    |zeta| >= Mtilde >= 2MR, and verify's check_r_series |zeta| >= 2MR.
    """
    z = complex(zeta)
    edge, coeffs = chart._r_horner
    if not abs(z) >= edge:
        raise OutsideChartDomain("r_series needs |zeta| >= 1.5*M*R")
    u, acc = 1.0 / z, 0j
    for c in coeffs:
        acc = acc * u + c
    return acc * u


def _r_series_bound(chart: CoverChart, s: float) -> float:
    """Bound on |R| over |zeta| = s >= 1.5MR: sum_m |r_m| s^-m plus the orders past N.

    Those are, in term i of R = sum_i (d/a)^(i+1) Q^-(zeta^(d^i)), Q^-'s
    orders past floor(N/d^i), so by _q_from_series's bound they add at most

        sum_i |d/a|^(i+1) A x_i^(floor(N/d^i) + 1) / (1 - x_i),  x_i = rho'/s^(d^i).

    Once d^i > N, term i + 1 is at most q_i = |d/a| s^(-(d-1) d^i) times
    term i and q_i falls, so for q_i <= 1/2 the rest adds at most
    term_i q_i / (1 - q_i).  Terms are taken in logs; inf if q_i stays
    above 1/2 for 64 terms.
    """
    r, A = chart._r, chart._A
    N, d = r.size, chart.H.d
    total = float(np.abs(r) @ float(s) ** -np.arange(1.0, N + 1))
    log_ratio, log_s = np.log(abs(d / chart.H.jacobian)), np.log(s)
    log_a, log_rho = np.log(A), np.log(_MAJORANT_FRAC * chart.inner_radius)
    for i in range(64):
        log_x = log_rho - d**i * log_s
        log_term = (i + 1) * log_ratio + log_a + (N // d**i + 1) * log_x - np.log1p(-np.exp(log_x))
        term = float(np.exp(log_term))
        total += term
        q = float(np.exp(log_ratio - (d - 1) * d**i * log_s))
        if d**i > N and q <= 0.5:
            return total + term * q / (1.0 - q)
    return np.inf


def psi_tilde(chart: CoverChart, z: Point) -> CoverPoint:
    """The chart map E3(E2(E1(z))).

    z must lie in the series bidisc M*max(|x|, R) <= 0.6|phi(z)|, a part of
    the certified domain W+_M, where psi comes from the series table;
    OutsideChartDomain otherwise.
    """
    phi = bottcher_phi(chart.H, z)
    psi_val = complex(_series_eval(chart, [z.x], [phi])[0][0])
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
    solve runs; the round that converges returns its y.  NoConvergence if
    no round of _INVERSE_MAX_ITER does.
    """
    if not in_absorbing_region(chart, w):
        raise OutsideChartDomain("cover point outside S_{Mtilde, t}")
    zeta = complex(w.zeta)
    z_target = complex(w.z) - r_series(chart, zeta)
    x = z_target / zeta
    scale = max(abs(z_target), abs(zeta))
    for _ in range(_INVERSE_MAX_ITER):
        val, slope, y = _series_eval(chart, [x], [zeta])
        f = complex(val[0]) - z_target
        if abs(f) <= _INVERSE_TOL * scale:
            return Point(x, complex(y[0]))
        x = x - f / (zeta * complex(slope[0]))
    raise NoConvergence(_INVERSE_MAX_ITER)


def lift_H(chart: CoverChart, w: CoverPoint) -> CoverPoint:
    """The model map (z, zeta) -> (a/d z + Q(zeta), zeta^d)."""
    H = chart.H
    return CoverPoint(
        H.jacobian / H.d * w.z + chart.Q(w.zeta), w.zeta**H.d
    )


class _RootsOfUnity(dict):
    """exp(2 pi i e / dn) by e, each root computed on its first read."""

    def __init__(self, dn: int):
        super().__init__()
        self.dn = dn

    def __missing__(self, e: int):
        root = self[e] = np.exp(2j * np.pi * e / self.dn)
        return root


@functools.lru_cache(maxsize=16)
def _roots_of_unity(dn: int) -> _RootsOfUnity:
    """The table of dn-th roots of unity that deck reads, one per dn."""
    return _RootsOfUnity(dn)


def deck(chart: CoverChart, label: DeckLabel, w: CoverPoint) -> CoverPoint:
    """Deck transformation for the class [k/d^n].

    The z-shift is the finite sum of Q-differences; each monomial is
    evaluated as A_j * zeta^(j*d^l) * (1 - omega^(j*d^l)) with the root of
    unity reduced exactly first, so monomials that cancel identically never
    get exponentiated (they dominate and would overflow first).  The roots
    exp(2 pi i e / d^n) come from one table per d^n (_roots_of_unity),
    which fills a root on its first read, so a large d^n costs no more
    than the roots its labels read.
    """
    H = chart.H
    d = H.d
    label = DeckLabel.reduced(label.k, label.n, d)
    if label.n == 0:
        return w
    k, n = label.k, label.n
    dn = d**n
    roots = _roots_of_unity(dn)
    omega = roots[k]
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
            shift += pref * Aj * zeta ** (j * m) * (1.0 - roots[e])
    return CoverPoint(w.z + shift, omega * zeta)


def covering_map(chart: CoverChart, w: CoverPoint, budget: int = 20) -> Point:
    """Project a cover point to U+ through the first absorbed lift.

    Applies the model map until the point enters S_{Mtilde, t}, inverts the
    chart there, and pulls back with H^{-n}.  BudgetExceeded if it does not
    enter within budget steps, or if |zeta|^d or |z| passes BAIL_OUT first.
    """
    cur = w
    for n in range(budget + 1):
        if in_absorbing_region(chart, cur):
            pt = psi_tilde_inverse(chart, cur)
            return iterate(chart.H, pt, -n)
        if n == budget:
            break
        # past the double range a numpy power warns and a Python one raises
        try:
            zeta_d = float(abs(cur.zeta)) ** chart.H.d
        except OverflowError:
            zeta_d = np.inf
        if zeta_d > BAIL_OUT or abs(cur.z) > BAIL_OUT:
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
        "Mtilde": chart.Mtilde,
        "t": chart.t,
    }


def chart_from_dict(data: dict) -> CoverChart:
    """CoverChart(H) of a chart_to_dict document, built from H alone.

    Its values are read as a map spec's (henon._read_key), all of them
    before the chart is built, so a missing or malformed key (a map that is
    no Henon map included) raises ValueError naming it, not a build error.
    The document's Q, region (M and R), t and Mtilde are only compared with
    the chart's; ValueError names each that is not the map's.
    Q must be the table's Q' to sum_n |Q_n - Q'_n| rho^n <= 1e-10 sum_n
    |Q'_n| rho^n, rho = 2MR: a bound on |Q - Q'| relative to Q' at the
    absorbing region's inner edge.  Another machine's table differs by
    rounding only: a relative 1e-14 on every torus value moves the
    measure by at most 1e-14 on the fixtures and on (y^2 - 1, a = 0.5)^3,
    whose low coefficients alone move by 1e-3; an edit of the leading
    coefficient by 1e-6 reads 1e-6.  Older documents' keys (meta,
    region.R_samples, region.epsilon, rho, qminus_rho, qminus_samples,
    series_tol) are ignored: chart.meta is measured anew on first read,
    and phi is taken at bottcher_phi's tolerance.
    """
    if not isinstance(data, dict) or data.get("format") != "henoncover-chart-v1":
        raise ValueError("not a chart document")
    read = functools.partial(_read_key, "chart", data)
    H = read("map", lambda m, _: map_from_json(m["factors"]))
    region = read("region", lambda r, key: {k: _number_from(r[k], f"{key}.{k}") for k in ("M", "R")})
    stored = dict(region=region, t=read("t", _number_from), Mtilde=read("Mtilde", _number_from))
    q = np.array(read("Q", lambda v, key: [_complex_from(c, f"{key}[{n}]") for n, c in enumerate(v)]))
    chart = CoverChart(H)
    q_table = np.array(chart.Q.coeffs)
    w = (2.0 * chart.inner_radius) ** np.arange(q_table.size)
    same_q = q.shape == q_table.shape and np.abs(q - q_table) @ w <= 1e-10 * (np.abs(q_table) @ w)
    bad = [] if same_q else ["Q is not the table's to 1e-10 on |zeta| = 2MR"]
    derived = dict(region={"M": chart.region.M, "R": chart.region.R.R}, t=chart.t, Mtilde=chart.Mtilde)
    bad += [f"{k} {stored[k]} is not the map's {v}" for k, v in derived.items() if stored[k] != v]
    if bad:
        raise ValueError("chart " + "; ".join(bad))
    return chart


def save_chart(chart: CoverChart, path):
    # no indent: json.dumps takes its C encoder only without one
    Path(path).write_text(json.dumps(chart_to_dict(chart)))


def load_chart(path) -> CoverChart:
    return chart_from_dict(json.loads(Path(path).read_text()))
