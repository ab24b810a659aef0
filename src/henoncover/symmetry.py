"""Affine symmetries of the escaping sets and the d0 order bound.

An affine map L(x, y) = (e*x + f, e'*y + f') preserving both non-escaping
sets must commute with some iterate of H, which pins e' to a root of unity
of order dividing (d + d')(d - 1) and e to a power of e'.  The finder
sweeps those roots, derives translations by matching fixed points of H,
and keeps candidates that verify commutation (symbolically when the
degree allows) together with Green-function invariance on sampled
escaping points.  The verified set is closed under composition; passing
groups are cyclic of order dividing (d + d')(d - 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .filtration import filtration_radius
from .green import escaping_samples, green_minus, green_plus
from .henon import (
    BivariatePoly,
    HenonError,
    HenonMap,
    Point,
    _c2l,
    apply_xy,
    component_polynomials,
)

__all__ = [
    "ClosureFailed",
    "BoundViolated",
    "AffineMap",
    "SymmetryReport",
    "compute_d0",
    "commutes_with_power",
    "find_affine_symmetries",
    "verify_cyclic",
    "fixed_points",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
]

SYMBOLIC_DEGREE_CAP = 64


class ClosureFailed(HenonError):
    pass


class BoundViolated(HenonError):
    pass


@dataclass(frozen=True)
class AffineMap:
    e: complex
    f: complex
    e_prime: complex
    f_prime: complex

    def __post_init__(self):
        for name in ("e", "f", "e_prime", "f_prime"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.e == 0 or self.e_prime == 0:
            raise ValueError("affine map must be invertible")

    def __call__(self, z: Point) -> Point:
        return Point(self.e * z.x + self.f, self.e_prime * z.y + self.f_prime)

    def apply_xy(self, x, y):
        return self.e * x + self.f, self.e_prime * y + self.f_prime

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
    verified_points: int
    max_green_defect: float
    max_commutation_defect: float = 0.0
    details: dict = field(default_factory=dict)


def _prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def compute_d0(d: int, d_prime: int) -> int:
    """Divide every prime factor of d out of d + d' as far as it goes."""
    s = d + d_prime
    for p in _prime_factors(d):
        while s % p == 0:
            s //= p
    return s


# ---------------------------------------------------------------------------
# symbolic composition helpers

def _compose_bivariate(P: BivariatePoly, A: BivariatePoly, B: BivariatePoly):
    acc = None
    for i in range(P.c.shape[0] - 1, -1, -1):
        row = BivariatePoly.const(P.c[i, -1])
        for j in range(P.c.shape[1] - 2, -1, -1):
            row = row * B + BivariatePoly.const(P.c[i, j])
        acc = row if acc is None else (acc * A + row)
    return acc.trim()


def _coeff_defect(P: BivariatePoly, Q: BivariatePoly) -> float:
    a, b = P._padded_pair(Q)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def commutes_with_power(H: HenonMap, L: AffineMap, k: int, tol: float = 1e-9):
    """Does L commute with H^k?  Returns (flag, relative defect).

    Exact coefficient comparison of L . H^k and H^k . L when the total
    degree d^k stays within the symbolic cap, else sampled evaluation on
    random points whose k-step orbits stay in double range.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if H.d**k <= SYMBOLIC_DEGREE_CAP:
        p1, p2 = component_polynomials(H, k)
        lhs1 = (p1 * L.e + BivariatePoly.const(L.f)).trim()
        lhs2 = (p2 * L.e_prime + BivariatePoly.const(L.f_prime)).trim()
        ax = (BivariatePoly.var_x() * L.e + BivariatePoly.const(L.f)).trim()
        by = (BivariatePoly.var_y() * L.e_prime + BivariatePoly.const(L.f_prime)).trim()
        rhs1 = _compose_bivariate(p1, ax, by)
        rhs2 = _compose_bivariate(p2, ax, by)
        defect = max(_coeff_defect(lhs1, rhs1), _coeff_defect(lhs2, rhs2))
        return defect <= tol, defect

    rng = np.random.default_rng(185828164)
    worst = 0.0
    valid = 0
    attempts = 0
    while valid < 100 and attempts < 1000:
        attempts += 1
        z = rng.normal(scale=1.5, size=4)
        x, y = complex(z[0], z[1]), complex(z[2], z[3])
        lx, ly = L.apply_xy(x, y)
        good = True
        for _ in range(k):
            x, y = apply_xy(H, x, y)
            lx, ly = apply_xy(H, lx, ly)
            if max(abs(x), abs(y), abs(lx), abs(ly)) > 1e80:
                good = False
                break
        if not good:
            continue
        valid += 1
        ax, ay = L.apply_xy(x, y)
        scale = max(1.0, abs(ax), abs(ay))
        worst = max(worst, max(abs(ax - lx), abs(ay - ly)) / scale)
    if valid == 0:
        raise HenonError(
            "no sample orbit of H^k stayed finite; commutation undecidable"
        )
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# fixed points

def fixed_points(
    H: HenonMap,
    n_starts: int = 400,
    tol: float = 1e-10,
    dedup: float = 1e-8,
):
    """Fixed points of H by multistart Newton on the expanded components."""
    P1, P2 = component_polynomials(H)
    F1 = (P1 - BivariatePoly.var_x()).trim()
    F2 = (P2 - BivariatePoly.var_y()).trim()

    def partial(P, axis):
        c = P.c
        if c.shape[axis] == 1:
            return BivariatePoly([[0.0]])
        if axis == 0:
            out = c[1:, :] * np.arange(1, c.shape[0])[:, None]
        else:
            out = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
        return BivariatePoly(out)

    J11, J12 = partial(F1, 0), partial(F1, 1)
    J21, J22 = partial(F2, 0), partial(F2, 1)

    R = filtration_radius(H).R
    rng = np.random.default_rng(905418)
    box = 1.2 * R
    x = box * (rng.uniform(-1, 1, n_starts) + 1j * rng.uniform(-1, 1, n_starts))
    y = box * (rng.uniform(-1, 1, n_starts) + 1j * rng.uniform(-1, 1, n_starts))

    for _ in range(80):
        f1, f2 = F1(x, y), F2(x, y)
        j11, j12, j21, j22 = J11(x, y), J12(x, y), J21(x, y), J22(x, y)
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        step = np.sqrt(np.abs(dx) ** 2 + np.abs(dy) ** 2)
        damp = np.minimum(1.0, 2.0 * box / np.maximum(step, 1e-300))
        x = x - damp * dx
        y = y - damp * dy
        x = np.where(np.isfinite(x), x, 0.0)
        y = np.where(np.isfinite(y), y, 0.0)

    res = np.abs(F1(x, y)) + np.abs(F2(x, y))
    good = res <= tol * (1.0 + np.abs(x) + np.abs(y))
    pts = []
    for xv, yv in zip(x[good], y[good]):
        if not any(abs(xv - p.x) + abs(yv - p.y) <= dedup for p in pts):
            pts.append(Point(complex(xv), complex(yv)))
    pts.sort(key=lambda p: (round(p.x.real, 9), round(p.x.imag, 9),
                            round(p.y.real, 9), round(p.y.imag, 9)))
    return pts[: H.d * H.d]


# ---------------------------------------------------------------------------
# the finder

def _permutes(L: AffineMap, pts, tol: float) -> bool:
    if not pts:
        return True
    for p in pts:
        q = L(p)
        if not any(
            abs(q.x - r.x) + abs(q.y - r.y) <= tol * (1.0 + abs(r.x) + abs(r.y))
            for r in pts
        ):
            return False
    return True


def find_affine_symmetries(
    H: HenonMap,
    budget: int = 200,
    green_tol: float = 1e-6,
    comm_tol: float = 1e-9,
) -> SymmetryReport:
    """Search L(x,y) = (e x + f, e' y + f') preserving both escaping sets.

    e' sweeps the roots of unity of order dividing (d + d')(d - 1); e and
    the translation part follow from commutation degree-matching and from
    requiring L to permute the fixed points of H.  Survivors are verified
    by commutation with some H^k and by sampled invariance of both Green's
    functions, then closed under composition.
    """
    N = (H.d + H.d_prime) * (H.d - 1)
    fixed = fixed_points(H)
    fix_tol = 1e-6

    candidates = [AffineMap.identity()]

    def add(L):
        if all(L.distance(c) > 1e-9 for c in candidates):
            candidates.append(L)

    for j in range(N):
        o = N // math.gcd(j, N) if j else 1
        e_prime = np.exp(2j * np.pi * j / N)
        for k in range(1, N + 1):
            if (H.d**k - 1) % o != 0:
                continue
            exp_e = (H.d_prime * H.d ** (k - 1)) % o if o > 1 else 0
            e = np.exp(2j * np.pi * j * exp_e / N) if o > 1 else 1.0 + 0.0j
            # translations must map fixed points onto fixed points
            for P in fixed:
                for Pp in fixed:
                    f = Pp.x - e * P.x
                    fp = Pp.y - e_prime * P.y
                    L = AffineMap(e, f, e_prime, fp)
                    if _permutes(L, fixed, fix_tol):
                        add(L)
            break  # e is determined by the smallest consistent k

    fw = escaping_samples(H, budget, 52815621, N_max=64)
    bw = escaping_samples(H, budget, 96025233, N_max=64, forward=False)

    verified = []
    max_green = 0.0
    max_comm = 0.0
    for L in candidates:
        ok_k = None
        defect_k = np.inf
        for k in range(1, N + 1):
            flag, defect = commutes_with_power(H, L, k, comm_tol)
            if flag:
                ok_k, defect_k = k, defect
                break
        if ok_k is None:
            continue
        g_defect = 0.0
        good = True
        for z, g in fw:
            g2 = green_plus(H, L(z), N_max=64)
            g_defect = max(g_defect, abs(g2.value - g) / max(1.0, g))
            if g_defect > green_tol:
                good = False
                break
        if good:
            for z, g in bw:
                g2 = green_minus(H, L(z), N_max=64)
                g_defect = max(g_defect, abs(g2.value - g) / max(1.0, g))
                if g_defect > green_tol:
                    good = False
                    break
        if good:
            verified.append(L)
            max_green = max(max_green, g_defect)
            max_comm = max(max_comm, defect_k)

    # close under composition and check the group axioms numerically
    def find_in(L, group):
        for g in group:
            if L.distance(g) <= 1e-9:
                return True
        return False

    for a in list(verified):
        for b in list(verified):
            c = a.compose(b)
            if not find_in(c, verified):
                raise ClosureFailed(
                    f"product of verified maps missing from the verified set "
                    f"({c})"
                )

    order = len(verified)
    if N % order != 0:
        raise BoundViolated(
            f"group order {order} does not divide (d+d')(d-1) = {N}"
        )

    verified.sort(key=lambda L: (np.angle(L.e_prime) % (2 * np.pi), np.angle(L.e) % (2 * np.pi)))
    return SymmetryReport(
        generators=verified,
        order=order,
        verified_points=len(fw) + len(bw),
        max_green_defect=max_green,
        max_commutation_defect=max_comm,
        details={"order_bound": N, "fixed_points": len(fixed)},
    )


def verify_cyclic(report: SymmetryReport):
    """(is_cyclic, order): some element generates the whole verified set."""
    group = report.generators
    order = len(group)
    if order == 0:
        return False, 0
    for g in group:
        seen = [g]
        cur = g
        for _ in range(order + 1):
            cur = cur.compose(g)
            if any(cur.distance(s) <= 1e-9 for s in seen):
                break
            seen.append(cur)
        if len(seen) == order:
            return True, order
    return order == 1, order


# ---------------------------------------------------------------------------
# persistence

def report_to_dict(report: SymmetryReport) -> dict:
    return {
        "format": "henoncover-symmetries-v1",
        "generators": [
            {
                "e": _c2l(L.e),
                "f": _c2l(L.f),
                "e_prime": _c2l(L.e_prime),
                "f_prime": _c2l(L.f_prime),
            }
            for L in report.generators
        ],
        "order": report.order,
        "verified_points": report.verified_points,
        "max_green_defect": report.max_green_defect,
        "max_commutation_defect": report.max_commutation_defect,
        "details": report.details,
    }


def report_from_dict(data: dict) -> SymmetryReport:
    if data.get("format") != "henoncover-symmetries-v1":
        raise ValueError("not a symmetry report document")
    gens = [
        AffineMap(
            complex(*g["e"]),
            complex(*g["f"]),
            complex(*g["e_prime"]),
            complex(*g["f_prime"]),
        )
        for g in data["generators"]
    ]
    return SymmetryReport(
        generators=gens,
        order=data["order"],
        verified_points=data["verified_points"],
        max_green_defect=data["max_green_defect"],
        max_commutation_defect=data.get("max_commutation_defect", 0.0),
        details=dict(data.get("details", {})),
    )


def save_report(report: SymmetryReport, path):
    Path(path).write_text(json.dumps(report_to_dict(report), indent=1))


def load_report(path) -> SymmetryReport:
    return report_from_dict(json.loads(Path(path).read_text()))
