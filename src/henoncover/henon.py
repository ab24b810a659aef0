"""Generalized Henon maps of C^2 and their exact evaluation.

A generalized Henon map is a finite composition of simple factors

    (x, y) -> (y, p(y) - a*x)

with p monic of degree >= 2 and a != 0.  The composite has total degree
d = prod d_i, sub-degree d' = d / d_m and constant Jacobian prod a_i.
Everything here is plain complex arithmetic; all types are immutable and
all operations pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HenonError",
    "DegreeTooLow",
    "NotMonic",
    "ZeroJacobianFactor",
    "NonFinite",
    "ComplexPolynomial",
    "SimpleFactor",
    "HenonMap",
    "Point",
    "make_henon",
    "apply",
    "apply_inverse",
    "apply_xy",
    "apply_inverse_xy",
    "iterate",
    "component_polynomials",
    "first_component_axis_poly",
    "second_component_correction",
    "inverse_leading_constant",
    "backward_conjugate",
]


class HenonError(Exception):
    """Base class for errors raised by this package."""


class DegreeTooLow(HenonError):
    def __init__(self, factor_index: int, degree: int):
        self.factor_index = factor_index
        self.degree = degree
        super().__init__(
            f"factor {factor_index}: polynomial degree {degree} < 2"
        )


class NotMonic(HenonError):
    def __init__(self, factor_index: int, leading: complex):
        self.factor_index = factor_index
        self.leading = leading
        super().__init__(
            f"factor {factor_index}: leading coefficient {leading} != 1"
        )


class ZeroJacobianFactor(HenonError):
    def __init__(self, factor_index: int):
        self.factor_index = factor_index
        super().__init__(f"factor {factor_index}: a = 0")


class NonFinite(HenonError):
    """An orbit left the range of double precision."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite value at iteration step {step}")


@dataclass(frozen=True)
class ComplexPolynomial:
    """Univariate polynomial, coefficients constant-first, leading != 0."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("empty coefficient list")
        if cs[-1] == 0 and len(cs) > 1:
            raise ValueError("zero leading coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, y):
        # Horner, started from y itself under a leading 1 and skipping the
        # additions of zero coefficients: for finite y the value of the
        # textbook loop up to the sign of a zero (1*y == y, v + 0 == v),
        # in two array operations for y^2 + c instead of four
        cs = self.coeffs
        if len(cs) == 1:
            return cs[0]
        acc = y if cs[-1] == 1 else cs[-1] * y
        for c in cs[-2:0:-1]:
            if c:
                acc = acc + c
            acc = acc * y
        return acc + cs[0] if cs[0] else acc

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial((0.0,))
        return ComplexPolynomial(
            tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
        )


@dataclass(frozen=True)
class SimpleFactor:
    p: ComplexPolynomial
    a: complex


@dataclass(frozen=True)
class HenonMap:
    factors: tuple
    d: int
    d_prime: int
    jacobian: complex

    def __post_init__(self):
        # every lru_cache keyed on the map hashes it: hash the factors once
        object.__setattr__(self, "_hash", hash(self.factors))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Point:
    x: complex
    y: complex


def make_henon(factors) -> HenonMap:
    """Validate factor data ``[(coeff_list, a), ...]`` and build the map.

    Coefficient lists are constant-first; each polynomial must be monic of
    degree >= 2 and each a nonzero.  Raises DegreeTooLow / NotMonic /
    ZeroJacobianFactor naming the offending factor index.
    """
    if not factors:
        raise ValueError("at least one factor required")
    built = []
    d = 1
    jac = complex(1.0)
    for i, (coeffs, a) in enumerate(factors):
        p = ComplexPolynomial(tuple(complex(c) for c in coeffs))
        if p.degree < 2:
            raise DegreeTooLow(i, p.degree)
        if p.coeffs[-1] != 1:
            raise NotMonic(i, p.coeffs[-1])
        a = complex(a)
        if a == 0:
            raise ZeroJacobianFactor(i)
        built.append(SimpleFactor(p, a))
        d *= p.degree
        jac *= a
    d_prime = d // built[-1].p.degree
    return HenonMap(tuple(built), d, d_prime, jac)


def apply_xy(H: HenonMap, x, y):
    """One forward application on raw coordinates (scalars or arrays)."""
    for f in H.factors:
        x, y = y, f.p(y) - f.a * x
    return x, y


def apply_inverse_xy(H: HenonMap, x, y):
    """One backward application; factor inverse is (u,v) -> ((p(u)-v)/a, u)."""
    for f in reversed(H.factors):
        x, y = (f.p(x) - y) / f.a, x
    return x, y


def apply(H: HenonMap, z: Point) -> Point:
    return Point(*apply_xy(H, z.x, z.y))


def apply_inverse(H: HenonMap, z: Point) -> Point:
    return Point(*apply_inverse_xy(H, z.x, z.y))


def _c2l(c: complex):
    """A complex number as the [re, im] pair of the JSON formats."""
    return [float(np.real(c)), float(np.imag(c))]


def _l2c(v) -> complex:
    """The inverse of _c2l."""
    return complex(v[0], v[1])


def _factors_json(H: HenonMap) -> list:
    """The map's factors as [{"p": [[re, im], ...], "a": [re, im]}, ...]."""
    return [{"p": [_c2l(c) for c in f.p.coeffs], "a": _c2l(f.a)} for f in H.factors]


def _finite(x: complex, y: complex) -> bool:
    return (
        np.isfinite(x.real) and np.isfinite(x.imag)
        and np.isfinite(y.real) and np.isfinite(y.imag)
    )


def iterate(H: HenonMap, z: Point, s: int) -> Point:
    """H^s(z) for signed s.  Raises NonFinite(step) on overflow."""
    x, y = complex(z.x), complex(z.y)
    step = apply_xy if s >= 0 else apply_inverse_xy
    for k in range(abs(s)):
        x, y = step(H, x, y)
        if not _finite(x, y):
            raise NonFinite(k + 1)
    return Point(x, y)


# ---------------------------------------------------------------------------
# Symbolic bivariate expansion of the composed map.  Used as the independent
# oracle for factor-by-factor evaluation, for the monic axis polynomial
# pi_1(H(0, .)), and for exact commutation checks in the symmetry search.

class BivariatePoly:
    """Dense bivariate polynomial: coeffs[i, j] multiplies x^i y^j."""

    def __init__(self, coeffs):
        self.c = np.atleast_2d(np.asarray(coeffs, dtype=complex))

    @staticmethod
    def const(v) -> "BivariatePoly":
        return BivariatePoly([[complex(v)]])

    @staticmethod
    def var_x() -> "BivariatePoly":
        return BivariatePoly([[0.0], [1.0]])

    @staticmethod
    def var_y() -> "BivariatePoly":
        return BivariatePoly([[0.0, 1.0]])

    def _padded_pair(self, other):
        n0 = max(self.c.shape[0], other.c.shape[0])
        n1 = max(self.c.shape[1], other.c.shape[1])
        a = np.zeros((n0, n1), dtype=complex)
        b = np.zeros((n0, n1), dtype=complex)
        a[: self.c.shape[0], : self.c.shape[1]] = self.c
        b[: other.c.shape[0], : other.c.shape[1]] = other.c
        return a, b

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        a, b = self._padded_pair(other)
        return BivariatePoly(a + b)

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        a, b = self._padded_pair(other)
        return BivariatePoly(a - b)

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            out = self.c * complex(other)
            return BivariatePoly(out)
        a, b = self.c, other.c
        out = np.zeros(
            (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
            dtype=complex,
        )
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return BivariatePoly(out)

    __rmul__ = __mul__

    def trim(self) -> "BivariatePoly":
        c = self.c
        rows = np.nonzero(np.any(c != 0, axis=1))[0]
        cols = np.nonzero(np.any(c != 0, axis=0))[0]
        if rows.size == 0:
            return BivariatePoly([[0.0]])
        return BivariatePoly(c[: rows[-1] + 1, : cols[-1] + 1])

    def __call__(self, x, y):
        # Horner in y per x-row, then Horner in x.
        c = self.c
        acc = None
        for i in range(c.shape[0] - 1, -1, -1):
            row = c[i, -1]
            if isinstance(y, np.ndarray):
                row = np.full_like(y, row, dtype=complex)
            for j in range(c.shape[1] - 2, -1, -1):
                row = row * y + c[i, j]
            acc = row if acc is None else acc * x + row
        return acc

    def total_degree(self) -> int:
        c = self.trim().c
        deg = 0
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                if c[i, j] != 0:
                    deg = max(deg, i + j)
        return deg

    def compose_univariate(self, p: ComplexPolynomial) -> "BivariatePoly":
        """p(self) by Horner in the bivariate ring."""
        acc = BivariatePoly.const(p.coeffs[-1])
        for ck in p.coeffs[-2::-1]:
            acc = acc * self + BivariatePoly.const(ck)
        return acc


@functools.lru_cache(maxsize=64)
def component_polynomials(H: HenonMap, power: int = 1):
    """(pi_1 H^power, pi_2 H^power) as expanded bivariate polynomials."""
    cur_x = BivariatePoly.var_x()
    cur_y = BivariatePoly.var_y()
    for _ in range(power):
        for f in H.factors:
            cur_x, cur_y = cur_y, (
                cur_y.compose_univariate(f.p) - cur_x * f.a
            ).trim()
    return cur_x.trim(), cur_y.trim()


@functools.lru_cache(maxsize=64)
def first_component_axis_poly(H: HenonMap) -> ComplexPolynomial:
    """pi_1(H(0, y)) as a univariate polynomial: monic of degree d'."""
    p1, _ = component_polynomials(H)
    return ComplexPolynomial(tuple(p1.c[0, :]))


@functools.lru_cache(maxsize=64)
def second_component_correction(H: HenonMap) -> BivariatePoly:
    """pi_2 H - y^d expanded (the oracle form of the product correction)."""
    _, p2 = component_polynomials(H)
    c = p2.c.copy()
    n0, n1 = c.shape
    pad = np.zeros((n0, max(n1, H.d + 1)), dtype=complex)
    pad[:, :n1] = c
    pad[0, H.d] -= 1.0
    return BivariatePoly(pad).trim()


@functools.lru_cache(maxsize=64)
def inverse_leading_constant(H: HenonMap) -> complex:
    """kappa with pi_1(H^{-1}(x,y)) ~ x^d / kappa as |x| -> infinity.

    kappa = prod_i a_i^(d_1 ... d_{i-1}); the empty exponent product is 1.
    """
    kappa = complex(1.0)
    exp = 1
    for f in H.factors:
        kappa *= f.a**exp
        exp *= f.p.degree
    return kappa


@functools.lru_cache(maxsize=64)
def backward_conjugate(H: HenonMap):
    """(K, alpha, beta) with K = D^-1 s H^-1 s D a monic Henon map.

    s(x, y) = (y, x) and D = diag(alpha, beta).  For H = f_m o ... o f_1,
    s H^-1 s = g_1 o ... o g_m with g_i(x, y) = (y, (p_i(y) - x) / a_i).
    With D_i = diag(beta_{i+1}, beta_i), indices mod m and D_0 = D_m = D,
    h_i = D_{i-1}^-1 g_i D_i is the simple factor (x, y) -> (y, q_i(y) - A_i x)
    with q_i(y) = p_i(beta_i y) / (a_i beta_{i-1}) and A_i = beta_{i+1} /
    (a_i beta_{i-1}); it is monic iff beta_{i-1} = beta_i^{d_i} / a_i.  Once
    round the cycle this forces beta_0^(d-1) = kappa = inverse_leading_constant(H),
    so beta_0 = beta_m is the principal root and beta_{m-1}, ..., beta_1
    follow (h_1's leading coefficient, 1 up to rounding, is set to 1).  K
    applies h_m first and h_1 last; alpha = beta_1, beta = beta_0.

    K^n = D^-1 s H^-n s D, and the affine map D^-1 s moves log+ ||.|| by a
    bounded amount, so d^-n log+ ||H^-n(z)|| and d^-n log+ ||K^n(D^-1 s z)||
    have the same limit (the argument of the symmetry module's docstring):

        G-_H(x, y) = G+_K(y / alpha, x / beta).

    In V+ of K, G+_K(x', y') = log|y'| + o(1): this is the normalization
    G-_H(x, y) = log|x| - log|kappa| / (d - 1) + o(1) in V- of H.
    """
    fs = H.factors
    m = len(fs)
    beta = [0j] * (m + 2)
    beta[0] = beta[m] = complex(inverse_leading_constant(H)) ** (1.0 / (H.d - 1))
    for i in range(m, 1, -1):
        beta[i - 1] = beta[i] ** fs[i - 1].p.degree / fs[i - 1].a
    beta[m + 1] = beta[1]
    factors = []
    for i in range(m, 0, -1):
        f = fs[i - 1]
        s = f.a * beta[i - 1]
        coeffs = [c * beta[i] ** k / s for k, c in enumerate(f.p.coeffs[:-1])]
        factors.append((coeffs + [1.0], beta[i + 1] / s))
    return make_henon(factors), beta[1], beta[0]
