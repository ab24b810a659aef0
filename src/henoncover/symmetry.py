"""Affine symmetries of the escaping sets, in closed form, and the d0 bound.

An affine map L(x, y) = (e x + f, e' y + f') preserving both escaping
sets commutes with some iterate H^k.  find_affine_symmetries reads every
such L off the factors of H; nothing is searched or sampled.  Notation
follows henon.py: H = f_m o ... o f_1 with f_i(x, y) = (y, p_i(y) - a_i x),
d_i = deg p_i, c_(i,j) the coefficients of p_i, factor indices mod m.

Normal form (Friedland & Milnor, Ergodic Theory Dynam. Systems 9, 1989).
Put tau_(i-1) = -c_(i,d_i-1) / d_i.  An orbit obeys y_i = p_i(y_(i-1)) -
a_i y_(i-2), and u_i = y_i - tau_i obeys the same recurrence with

    pt_i(u) = p_i(u + tau_(i-1)) - tau_i - a_i tau_(i-2),

which has no u^(d_i - 1) term.  So H = T Ht T^-1, where T(u, v) =
(u + tau_(m-1), v + tau_0) and Ht has the factors ft_i(x, y) =
(y, pt_i(y) - a_i x).

Factor chain.  Write H^k as the word f_km o ... o f_1 and f_i = s o E_i,
with s(x, y) = (y, x) affine and E_i(x, y) = (p_i(y) - a_i x, y)
elementary.  Aut C^2 is the amalgamated product of the affine and the
elementary groups over their intersection S (Jung, van der Kulk), and L
lies in S.  Uniqueness of reduced words, on which Friedland & Milnor's
normal form rests, turns L^-1 H^k L = H^k into letter-by-letter equality
up to elements of S: there are L_0 = L, L_1, ..., L_km = L with
f_i L_(i-1) = L_i f_i, each in S and in s S s, so each diagonal affine.
Move to the u coordinates, conjugating L_i by the shift (u + tau_(i-1),
v + tau_i), and write L_(i-1) = (alpha x + g, beta y + h) there.
Comparing components of ft_i L_(i-1) and L_i ft_i gives L_i =
(beta x + h, alpha y + g') and pt_i(beta u + h) - a_i g = alpha pt_i(u) + g'.

  - The u^(d_i - 1) coefficients read d_i beta^(d_i - 1) h = 0, so h = 0.
    Every L_i thus has zero y-translation, and its x-translation is the
    y-translation of L_(i-1), also zero.  Hence L = T diag(e, e') T^-1:
    f = tau_(m-1) (1 - e) and f' = tau_0 (1 - e').
  - What is left, pt_i(beta u) = alpha pt_i(u), says beta^j = alpha for
    every j in the support of pt_i.
  - (alpha, beta) is (e, e') at the odd places of the chain and (e', e)
    at the even ones, and L_km = L_0 needs km even or e = e'.  For m even
    a factor always sits at places of one parity.  For m odd the second
    pass (k = 2) puts it at both, and no k adds a constraint k = 2 lacks.
  - The leading term at place 1 gives e = e'^(d_1).  Then each constraint
    reads e'^q = 1: q = |d_1 - j| at odd places and q = |d_1 j - 1| at
    even ones.  Place 2 has q = d_1 d_2 - 1 >= 3 (d_2 = d_1 if m = 1).

The solutions form the cyclic group of order g = gcd of those q, with
generator e' = exp(2 pi i / g).  Conversely each solution satisfies every
f_i L_(i-1) = L_i f_i by construction, so it commutes with H^2, and with
H itself when m is even or e = e'.  The group is therefore exact: nothing
is missed and nothing extra is kept.  In floating point a coefficient of
pt_i counts as zero when it is at most COMM_TOL times the magnitude of
the Taylor-shift sum that formed it.

Commutation implies Green invariance.  Suppose L.H^k = H^k.L.  Then
H^(kn)(Lz) = L(H^(kn) z) for every n >= 0.  An invertible affine map
moves log+|.| by at most a constant C: with A its linear part, |Lz| <=
(|A| + |L(0)|) max(1, |z|), and likewise for L^-1.  G+ is the normalised
escape rate (Bedford & Smillie, Invent. Math. 103, 1991), so

    G+(Lz) = lim d^(-kn) log+|H^(kn)(Lz)|
           = lim d^(-kn) log+|L(H^(kn) z)| = G+(z),

the constant C vanishing under d^(-kn).  L also commutes with H^-k, and
the same limit along backward orbits gives G-.L = G-.  So L maps each
of U+ = {G+ > 0}, K+ = {G+ = 0}, U- and K- onto itself.

One factor chain serves the finder and the check.  _chain builds the
chain of H^2 in the normal form once per map: tau and, at each of the 2m
places, the coefficients of pt_i with their magnitudes.  The finder reads
the group's order off its supports.  factor_chain_witness checks any L
against it at every degree, by L's translations and the gaps beta^j -
alpha, and the finder's max_commutation_defect is the largest witness
defect over its group, so verify checks each element by the residual
that the finder reports.  commutes_with_power compares the expanded
coefficients of L.H^k and H^k.L up to SYMBOLIC_DEGREE_CAP; the tests keep
it as an independent oracle.  Its defect is a difference of coefficients
of the size of those of H^k, so it can exceed its tolerance on a correct
element.

fixed_points returns the d fixed points of H, counted with multiplicity,
as the eigenvectors of one d x d multiplication matrix of the orbit
equations; its docstring proves the count.  Nothing is searched there
either.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .henon import (
    BivariatePoly,
    HenonError,
    HenonMap,
    Point,
    _c2l,
    _complex_from,
    _count_from,
    _jacobian,
    _number_from,
    _object_from,
    _read_key,
    apply_xy,
    component_polynomials,
)

__all__ = [
    "BoundViolated",
    "ChainOverflow",
    "AffineMap",
    "SymmetryReport",
    "compute_d0",
    "symmetry_order_bound",
    "commutes_with_power",
    "factor_chain_witness",
    "find_affine_symmetries",
    "verify_cyclic",
    "fixed_points",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
]

SYMBOLIC_DEGREE_CAP = 64
COMM_TOL = 1e-9  # find_affine_symmetries: relative size of a zero coefficient


class BoundViolated(HenonError):
    pass


class ChainOverflow(HenonError):
    """A coefficient of the normal-form factor chain overflows a double."""


# an AffineMap's fields, (x, y) -> (e x + f, e' y + f'), and its keys in a report
_AFFINE_KEYS = ("e", "f", "e_prime", "f_prime")


@dataclass(frozen=True)
class AffineMap:
    e: complex
    f: complex
    e_prime: complex
    f_prime: complex

    def __post_init__(self):
        for name in _AFFINE_KEYS:
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.e == 0 or self.e_prime == 0:
            raise ValueError("affine map must be invertible")

    def __call__(self, z: Point) -> Point:
        return Point(self.e * z.x + self.f, self.e_prime * z.y + self.f_prime)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(
            self.e * other.e,
            self.e * other.f + self.f,
            self.e_prime * other.e_prime,
            self.e_prime * other.f_prime + self.f_prime,
        )

    def distance(self, other: "AffineMap") -> float:
        return max(
            abs(self.e - other.e),
            abs(self.f - other.f),
            abs(self.e_prime - other.e_prime),
            abs(self.f_prime - other.f_prime),
        )

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.distance(AffineMap(1, 0, 1, 0)) <= tol

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(1, 0, 1, 0)


@dataclass
class SymmetryReport:
    generators: list
    order: int
    max_commutation_defect: float = 0.0
    details: dict = field(default_factory=dict)


def compute_d0(d: int, d_prime: int) -> int:
    """The largest divisor of d + d' prime to d.

    The loop divides s = d + d' only by divisors of d, so every prime not
    dividing d keeps its full power, and it ends, s falling at each step,
    exactly when s is prime to d.
    """
    s = d + d_prime
    while (g := math.gcd(s, d)) > 1:
        s //= g
    return s


def symmetry_order_bound(d: int, d_prime: int) -> int:
    """(d + d')(d - 1), which the order of the affine symmetry group divides."""
    return (d + d_prime) * (d - 1)


# ---------------------------------------------------------------------------
# commutation

def _affine_matrix(n: int, t: complex, s: complex = 1.0):
    """B[j, k] = C(k, j) s^j t^(k - j): coefficients of q(u) -> q(s u + t).

    Acts on constant-first coefficient vectors of degree < n.
    """
    return np.array([
        [math.comb(k, j) * s**j * t ** (k - j) if k >= j else 0 for k in range(n)]
        for j in range(n)
    ], dtype=complex)


def _coeff_defect(P: BivariatePoly, Q: BivariatePoly) -> float:
    a, b = P._padded_pair(Q)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def commutes_with_power(H: HenonMap, L: AffineMap, k: int, tol: float = 1e-9):
    """Does L commute with H^k?  Returns (flag, relative defect).

    Exact coefficient comparison of L . H^k and H^k . L.  Raises
    ValueError when the total degree d^k exceeds SYMBOLIC_DEGREE_CAP.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if H.d**k > SYMBOLIC_DEGREE_CAP:
        raise ValueError(
            f"d^k = {H.d**k} exceeds the symbolic cap {SYMBOLIC_DEGREE_CAP}"
        )
    p1, p2 = component_polynomials(H, k)
    lhs1 = (p1 * L.e + BivariatePoly.const(L.f)).trim()
    lhs2 = (p2 * L.e_prime + BivariatePoly.const(L.f_prime)).trim()
    rhs1, rhs2 = (
        BivariatePoly(
            _affine_matrix(P.c.shape[0], L.f, L.e)
            @ P.c
            @ _affine_matrix(P.c.shape[1], L.f_prime, L.e_prime).T
        ).trim()
        for P in (p1, p2)
    )
    defect = max(_coeff_defect(lhs1, rhs1), _coeff_defect(lhs2, rhs2))
    return defect <= tol, defect


@functools.lru_cache(maxsize=64)
def _chain(H: HenonMap):
    """(tau, ((coefficients of pt_i, their magnitudes) at places 1 .. 2m)).

    The factor chain of H^2 = f_2m o ... o f_1 in the normal form of the
    module docstring: place n carries pt_i with i = n mod m, where
    pt_i(u) = p_i(u + tau_(i-1)) - tau_i - a_i tau_(i-2), constant-first;
    magnitude j sums the moduli of the terms that formed coefficient j.
    ChainOverflow if a coefficient or magnitude is not a finite double (on
    y^3 + 1e110 y^2, tau^3 alone is 3.7e328).
    """
    fs = H.factors
    m = len(fs)
    # complex even for a real map: _affine_matrix's powers of tau are then
    # complex products, and ChainOverflow prints tau as a complex
    tau = tuple(-complex(f.p.coeffs[-2]) / f.p.degree for f in fs)
    places = []
    for i, f in enumerate(fs):
        try:
            shift = _affine_matrix(f.p.degree + 1, tau[i])
        except OverflowError:
            raise ChainOverflow(f"factor {i}: a power of tau = {tau[i]:.3g} overflows") from None
        c = np.array(f.p.coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs, scale = shift @ c, np.abs(shift) @ np.abs(c)
        below = (tau[(i + 1) % m], f.a * tau[i - 1])
        coeffs[0] -= sum(below)
        scale[0] += sum(map(abs, below))
        if not (np.isfinite(coeffs).all() and np.isfinite(scale).all()):
            raise ChainOverflow(f"factor {i}: a normal-form coefficient overflows")
        coeffs.flags.writeable = scale.flags.writeable = False
        places.append((coeffs, scale))
    return tau, tuple(places) * 2


def factor_chain_witness(H: HenonMap, L: AffineMap, tol: float = 1e-9):
    """Does L commute with H^2 by the factor relations?  (flag, defect).

    The module docstring's proof forces L = T diag(e, e') T^-1, and then
    f_i L_(i-1) = L_i f_i at place i of the chain of H^2 reads beta^j =
    alpha for every j in the support of pt_i, with (alpha, beta) = (e, e')
    at odd places and (e', e) at even ones.  The defect is the larger of
    the translations' residuals |f - tau_(m-1) (1 - e)| and |f' - tau_0
    (1 - e')|, each over max(1, the moduli of its two terms), and the
    largest gap |c_j| |beta^j - alpha| over magnitude j of coefficient c_j
    of pt_i (_chain).  Composed, the relations give L H^2 = H^2 L.  Unlike
    commutes_with_power, which expands H^2 (total degree d^2), it costs
    O(m d_i) at any degree once the chain is built.
    """
    tau, chain = _chain(H)
    worst = max(
        abs(have - want) / max(1.0, abs(have), abs(want))
        for have, want in ((L.f, tau[-1] * (1 - L.e)), (L.f_prime, tau[0] * (1 - L.e_prime)))
    )
    tiny = np.finfo(float).tiny
    for n, (coeffs, scale) in enumerate(chain):
        alpha, beta = (L.e, L.e_prime) if n % 2 == 0 else (L.e_prime, L.e)
        gap = np.abs(coeffs) * np.abs(beta ** np.arange(coeffs.size) - alpha)
        worst = max(worst, float(np.max(gap / np.maximum(scale, tiny))))
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# fixed points

POLISH_STEPS = 3  # fixed_points: Newton steps on H(z) - z after the eigensolve


def fixed_points(H: HenonMap):
    """The d fixed points of H, with multiplicity, from one eigenproblem.

    A fixed point starts a period-m orbit of the factor recurrence.  With
    unknowns y_0 ... y_(m-1), indices mod m, factor i = 1 .. m reads

        y_(i-1)^(d_i) = y_i + a_i y_(i-2) - sum_(k < d_i) c_(i,k) y_(i-1)^k,

    and the point is (x, y) = (y_(m-1), y_0).  For m = 1 and m = 2 the
    indices collide and the same rule adds up the colliding terms.  Under
    any degree order the leading monomials y_(i-1)^(d_i) are pairwise
    coprime, since each variable leads exactly one relation, so the
    relations form a Groebner basis (Buchberger's first criterion).  The
    quotient ring therefore has the monomial basis {prod_v y_v^(e_v) :
    e_v < d_(v+1)}, of size prod d_i = d: H has exactly d fixed points,
    counted with multiplicity.

    By Stickelberger's theorem (Cox, Little & O'Shea, Using Algebraic
    Geometry, GTM 185, ch. 2 sec. 4) the matrix of multiplication by a
    linear form l = sum_v w_v y_v in this basis has the eigenvalues l(p)
    over the fixed points p, and the left eigenvector of a simple l(p) is
    the vector of basis monomials at p.  Its entries at y_(m-1) and y_0,
    each over its entry at 1, are x and y.  POLISH_STEPS Newton steps on
    H(z) - z follow.  A singular DH - I or a step that is not finite ends
    the polish of its point, which keeps its last finite iterate: near
    y = -1e110 on p(y) = y^3 + 1e110 y^2, H(z) overflows, and a non-finite
    H(z) - z gives a non-finite step.
    green.attracting_traps certifies its K+ traps around these points.
    """
    fs = H.factors
    m = len(fs)
    degs = [f.p.degree for f in fs]
    # exponent vectors e with e_v < d_(v+1), the monomial 1 first
    basis = list(itertools.product(*map(range, degs)))
    index = {e: n for n, e in enumerate(basis)}
    forms = {}

    def normal_form(e):
        """Basis coefficients of the monomial prod_v y_v^(e_v)."""
        if e not in forms:
            v = next((v for v in range(m) if e[v] >= degs[v]), None)
            if v is None:
                out = np.zeros(H.d, dtype=complex)
                out[index[e]] = 1.0
            else:
                # y_v^(d_(v+1)) = y_(v+1) + a y_(v-1) - sum_k c_k y_v^k: every
                # term has lower total degree, so the recursion ends
                def times(u, k):
                    t = list(e)
                    t[v] -= degs[v]
                    t[u] += k
                    return normal_form(tuple(t))

                f = fs[v]
                out = times((v + 1) % m, 1) + f.a * times((v - 1) % m, 1)
                for k, c in enumerate(f.p.coeffs[:-1]):
                    if c:
                        out = out - c * times(v, k)
            forms[e] = out
        return forms[e]

    # y_0 alone does not separate the points: with a_1 = -1 the first
    # relation reads p_1(y_0) = 0, so each y_0 is shared by d / d_1 points.
    # Distinct non-real weights separate the points of a generic map, and
    # for m = 2 their non-real ratio separates any two real points.
    w = np.exp(1j * np.arange(1, m + 1))
    # row j is the normal form of l b_j, so the right eigenvectors of this
    # transpose of the multiplication matrix are the left ones above
    A = np.array([
        sum(w[v] * normal_form(e[:v] + (e[v] + 1,) + e[v + 1:]) for v in range(m))
        for e in basis
    ])
    V = np.linalg.eig(A)[1]
    xs = V[index[(0,) * (m - 1) + (1,)]] / V[0]
    ys = V[index[(1,) + (0,) * (m - 1)]] / V[0]
    pts = []
    with np.errstate(all="ignore"):  # an overflowing step ends its polish
        for x, y in zip(xs, ys):
            for _ in range(POLISH_STEPS):
                hx, hy = apply_xy(H, x, y)
                try:
                    step = np.linalg.solve(_jacobian(H, x, y) - np.eye(2), [hx - x, hy - y])
                except np.linalg.LinAlgError:
                    break
                if not np.isfinite(step).all():
                    break
                x, y = x - step[0], y - step[1]
            pts.append(Point(complex(x), complex(y)))
    pts.sort(key=lambda p: (round(p.x.real, 9), round(p.x.imag, 9),
                            round(p.y.real, 9), round(p.y.imag, 9)))
    return pts


# ---------------------------------------------------------------------------
# the finder

def find_affine_symmetries(H: HenonMap) -> SymmetryReport:
    """Every L(x,y) = (e x + f, e' y + f') preserving both escaping sets.

    The closed form of the module docstring, read off the factor chain of
    H^2 (_chain): the group is cyclic of order g, the gcd of the exponents
    q that the chain imposes on e', and its elements are T diag(e'^(n
    d_1), e'^n) T^-1 for e' = exp(2 pi i n / g), listed by n, identity
    first.  max_commutation_defect is the largest factor_chain_witness
    defect over the group.
    """
    N = symmetry_order_bound(H.d, H.d_prime)
    tau, chain = _chain(H)
    d1 = H.factors[0].p.degree
    # alpha = e'^pa and beta = e'^pb with (pa, pb) = (d_1, 1) at odd places
    # and (1, d_1) at even ones: beta^j = alpha reads e'^(pb j - pa) = 1
    g = 0
    for n, (coeffs, scale) in enumerate(chain):
        pa, pb = (d1, 1) if n % 2 == 0 else (1, d1)
        for j in np.flatnonzero(np.abs(coeffs) > COMM_TOL * scale):
            g = math.gcd(g, abs(pb * int(j) - pa))
    if N % g != 0:
        raise BoundViolated(f"group order {g} does not divide (d+d')(d-1) = {N}")
    group = []
    for n in range(g):
        e, e_prime = (complex(np.exp(2j * np.pi * (k % g) / g)) for k in (n * d1, n))
        group.append(AffineMap(e, tau[-1] * (1 - e), e_prime, tau[0] * (1 - e_prime)))
    return SymmetryReport(
        generators=group,
        order=g,
        max_commutation_defect=max(factor_chain_witness(H, L)[1] for L in group),
        details={"order_bound": N},
    )


def verify_cyclic(report: SymmetryReport):
    """(is_cyclic, order): the listed elements are the powers of one of them.

    order is n, the number of listed elements.  The set is cyclic when for
    some listed g the powers g^0 .. g^(n-1) match the n listed elements one
    to one, each within 1e-9 of exactly one of them, and g^n is the
    identity.  A duplicated element or one outside the powers fails.
    """
    group = report.generators
    n = len(group)
    for g in group:
        power, used = AffineMap.identity(), set()
        for _ in range(n):
            hits = [i for i, h in enumerate(group) if power.distance(h) <= 1e-9]
            if len(hits) != 1 or hits[0] in used:
                break
            used.add(hits[0])
            power = power.compose(g)
        else:
            if power.is_identity():
                return True, n
    return False, n


# ---------------------------------------------------------------------------
# persistence

def report_to_dict(report: SymmetryReport) -> dict:
    return {
        "format": "henoncover-symmetries-v1",
        "generators": [{k: _c2l(getattr(L, k)) for k in _AFFINE_KEYS} for L in report.generators],
        "order": report.order,
        "max_commutation_defect": report.max_commutation_defect,
        "details": report.details,
    }


def report_from_dict(data: dict) -> SymmetryReport:
    """SymmetryReport of a report_to_dict document.

    Its values are read as a map spec's: complexes and a finite defect,
    an integer order, an object of details.  ValueError names a key that
    is missing or malformed, and refuses an order that is not the number
    of listed generators.
    """
    if not isinstance(data, dict) or data.get("format") != "henoncover-symmetries-v1":
        raise ValueError("not a symmetry report document")
    read = functools.partial(_read_key, "symmetry report", data)
    gens = read("generators", lambda gs, key: [
        AffineMap(*(_complex_from(g[k], f"{key}[{i}].{k}") for k in _AFFINE_KEYS))
        for i, g in enumerate(gs)
    ])
    order = read("order", _count_from)
    if order != len(gens):
        raise ValueError(f"symmetry report order {order!r} is not the {len(gens)} generators listed")
    return SymmetryReport(
        generators=gens,
        order=len(gens),
        max_commutation_defect=read("max_commutation_defect", _number_from, 0.0),
        details=read("details", _object_from, {}),
    )


def save_report(report: SymmetryReport, path):
    Path(path).write_text(json.dumps(report_to_dict(report), indent=1))


def load_report(path) -> SymmetryReport:
    return report_from_dict(json.loads(Path(path).read_text()))
