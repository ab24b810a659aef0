"""Generalized Henon maps of C^2 and their exact evaluation.

A generalized Henon map is a finite composition of simple factors

    (x, y) -> (y, p(y) - a*x)

with p monic of degree >= 2 and a != 0.  HenonMap(factors) checks the
factors and derives d = prod d_i, d' = d / d_m and the Jacobian prod a_i.
A real coefficient is stored as a float, so a real map steps float64
arrays in float64 and complex ones as with c + 0j.  All types are
immutable and all operations pure.  So is the one JSON reader and writer
of maps and numbers, for specs, chart documents and symmetry reports
alike: a complex is a finite number or an [re, im] pair of them, and a
bad value is a SpecError naming its field (a ValueError naming a
document's key).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HenonError",
    "SpecError",
    "DegreeTooLow",
    "NotMonic",
    "ZeroJacobianFactor",
    "NonFinite",
    "ComplexPolynomial",
    "SimpleFactor",
    "HenonMap",
    "Point",
    "make_henon",
    "map_from_json",
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


class SpecError(HenonError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


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


def _stored(c):
    """c as a complex, or as a float where its imaginary part is 0 (of either sign).

    numpy and CPython promote a float operand of a complex operation to c + 0j.
    """
    c = complex(c)
    return c.real if c.imag == 0 else c


@dataclass(frozen=True)
class ComplexPolynomial:
    """Univariate polynomial, coefficients constant-first, leading != 0.

    Each coefficient is stored as _stored gives it, a float where it is
    real.  __call__ runs a Horner plan derived once from coeffs: whether
    p is a constant, whether it is monic, its leading coefficient, the
    middle coefficients c_(n-1) ... c_1 in Horner order, and the
    constant term.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_stored(c) for c in self.coeffs)
        if not cs:
            raise ValueError("empty coefficient list")
        if cs[-1] == 0 and len(cs) > 1:
            raise ValueError("zero leading coefficient")
        vars(self).update(coeffs=cs, _plan=(len(cs) == 1, cs[-1] == 1, cs[-1], cs[-2:0:-1], cs[0]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, y):
        # Horner, started from y itself under a leading 1 and skipping the
        # additions of zero coefficients: for finite y the value of the
        # textbook loop up to the sign of a zero (1*y == y, v + 0 == v),
        # in two array operations for y^2 + c instead of four
        constant, monic, lead, middle, c0 = self._plan
        if constant:
            return c0
        acc = y if monic else lead * y
        for c in middle:
            if c:
                acc = acc + c
            acc = acc * y
        return acc + c0 if c0 else acc

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial((0.0,))
        return ComplexPolynomial(
            tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)
        )


@dataclass(frozen=True)
class SimpleFactor:
    """The factor (x, y) -> (y, p(y) - a*x); a is stored as _stored gives it."""

    p: ComplexPolynomial
    a: complex

    def __post_init__(self):
        vars(self)["a"] = _stored(self.a)


@dataclass(frozen=True)
class HenonMap:
    """H = f_m o ... o f_1 for factors = (f_1, ..., f_m), its one field.

    Each factor is checked in turn: p of degree >= 2, monic, a != 0
    (DegreeTooLow, NotMonic, ZeroJacobianFactor name its index).  Derived:
    d, d_prime, the complex jacobian, is_real (every coefficient and a is
    a float) and the hash, taken once for the lru_caches keyed on H.
    """

    factors: tuple

    def __post_init__(self):
        fs = tuple(self.factors)
        if not fs:
            raise ValueError("at least one factor required")
        d, jac = 1, complex(1.0)
        for i, f in enumerate(fs):
            if f.p.degree < 2:
                raise DegreeTooLow(i, f.p.degree)
            if f.p.coeffs[-1] != 1:
                raise NotMonic(i, complex(f.p.coeffs[-1]))
            if f.a == 0:
                raise ZeroJacobianFactor(i)
            d *= f.p.degree
            jac *= f.a
        vars(self).update(
            factors=fs, d=d, d_prime=d // fs[-1].p.degree, jacobian=jac, _hash=hash(fs),
            is_real=all(isinstance(c, float) for f in fs for c in (*f.p.coeffs, f.a)),
        )

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Point:
    x: complex
    y: complex


def make_henon(factors) -> HenonMap:
    """The map of factor data ``[(coeff_list, a), ...]``, checked by HenonMap.

    Coefficient lists are constant-first; each polynomial must be monic of
    degree >= 2 and each a nonzero.  Raises DegreeTooLow / NotMonic /
    ZeroJacobianFactor naming the offending factor index.
    """
    return HenonMap(tuple(SimpleFactor(ComplexPolynomial(tuple(cs)), a) for cs, a in factors))


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


def _jacobian(H: HenonMap, x: complex, y: complex) -> np.ndarray:
    """DH at (x, y): the product of the factor Jacobians [[0, 1], [-a, p'(y)]]."""
    J = np.eye(2, dtype=complex)
    for f in H.factors:
        J = np.array([[0.0, 1.0], [-f.a, f.p.derivative()(y)]]) @ J
        x, y = y, f.p(y) - f.a * x
    return J


def apply(H: HenonMap, z: Point) -> Point:
    return Point(*apply_xy(H, z.x, z.y))


def apply_inverse(H: HenonMap, z: Point) -> Point:
    return Point(*apply_inverse_xy(H, z.x, z.y))


def _c2l(c: complex):
    """A complex number as the [re, im] pair of the JSON formats."""
    return [float(np.real(c)), float(np.imag(c))]


def _factors_json(H: HenonMap) -> list:
    """The map's factors as [{"p": [[re, im], ...], "a": [re, im]}, ...]."""
    return [{"p": [_c2l(c) for c in f.p.coeffs], "a": _c2l(f.a)} for f in H.factors]


def _is_number(v) -> bool:
    """A JSON number: bool is an int subclass but true and false are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number_from(v, field: str) -> float:
    """A finite JSON number (no string, no boolean) as a float, or a SpecError naming the field."""
    if not _is_number(v):
        raise SpecError(field, "expected a number")
    try:
        x = float(v)
    except OverflowError:  # a JSON integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise SpecError(field, "must be finite")
    return x


def _complex_from(v, field: str) -> complex:
    """A finite number or [re, im] pair as a complex, or a SpecError naming the field."""
    pair = [v, 0] if _is_number(v) else v
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))):
        raise SpecError(field, "expected a number or an [re, im] pair")
    return complex(*(_number_from(x, field) for x in pair))


def _count_from(v, field: str) -> int:
    """A JSON integer, or a SpecError naming the field: no rounding, no strings."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise SpecError(field, "expected an integer")


def map_from_json(factors) -> HenonMap:
    """The map of a _factors_json list (a is required), or a SpecError naming the field."""
    if not isinstance(factors, list) or not factors:
        raise SpecError("factors", "need a nonempty list of factors")
    built = []
    for i, fac in enumerate(factors):
        if not isinstance(fac, dict):
            raise SpecError(f"factors[{i}]", "factor must be an object")
        p = fac.get("p")
        if not isinstance(p, list) or len(p) < 3:
            raise SpecError(f"factors[{i}].p", "need coefficients, constant first, degree >= 2")
        coeffs = [_complex_from(c, f"factors[{i}].p[{j}]") for j, c in enumerate(p)]
        built.append((coeffs, _complex_from(fac.get("a"), f"factors[{i}].a")))
    try:
        return make_henon(built)
    except (HenonError, ValueError) as exc:  # ValueError: a zero leading coefficient
        raise SpecError("factors", str(exc)) from exc


def _read_key(document: str, data: dict, key: str, parse, default=None):
    """parse(data[key], key), or a ValueError naming the key; one with a default may be missing."""
    try:
        return parse(data[key] if default is None else data.get(key, default), key)
    except (KeyError, IndexError, TypeError, ValueError, HenonError) as exc:
        raise ValueError(f"{document} key {key!r} is missing or malformed ({exc!r})") from None


def _finite(x: complex, y: complex) -> bool:
    return cmath.isfinite(x) and cmath.isfinite(y)


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
# Symbolic bivariate expansion of the composed map: apply_xy run on
# polynomials.  Used for the monic axis polynomial pi_1(H(0, .)), the
# bound on the product correction q, the expansion of H about a fixed
# point for its trap, and exact commutation checks in the symmetry search.

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


@functools.lru_cache(maxsize=64)
def component_polynomials(H: HenonMap, power: int = 1):
    """(pi_1 H^power, pi_2 H^power) as expanded bivariate polynomials.

    apply_xy on the coordinate polynomials x and y: each factor's
    ComplexPolynomial runs its Horner loop in the bivariate ring.
    """
    cur_x, cur_y = BivariatePoly.var_x(), BivariatePoly.var_y()
    for _ in range(power):
        cur_x, cur_y = (c.trim() for c in apply_xy(H, cur_x, cur_y))
    return cur_x, cur_y


@functools.lru_cache(maxsize=64)
def first_component_axis_poly(H: HenonMap) -> ComplexPolynomial:
    """pi_1(H(0, y)) as a univariate polynomial: monic of degree d'."""
    p1, _ = component_polynomials(H)
    return ComplexPolynomial(tuple(p1.c[0, :]))


def second_component_correction(H: HenonMap) -> BivariatePoly:
    """pi_2 H - y^d expanded (the oracle form of the product correction)."""
    _, p2 = component_polynomials(H)
    c = p2.c.copy()
    n0, n1 = c.shape
    pad = np.zeros((n0, max(n1, H.d + 1)), dtype=complex)
    pad[:, :n1] = c
    pad[0, H.d] -= 1.0
    return BivariatePoly(pad).trim()


def inverse_leading_constant(H: HenonMap) -> complex:
    """kappa with pi_1(H^{-1}(x,y)) ~ x^d / kappa as |x| -> infinity.

    kappa = prod_i a_i^(d_1 ... d_{i-1}); the empty exponent product is 1.
    """
    kappa = complex(1.0)
    exp = 1
    for f in H.factors:
        kappa *= complex(f.a) ** exp  # repeated products, not the libm pow of a float
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
