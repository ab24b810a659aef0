"""Filtration of C^2 into V, V+ and V-, its proved radius, escape classes.

V_R = {|x|,|y| <= R},  V+_R = {|y| >= max(|x|, R)},  V-_R = {|x| >= max(|y|, R)}.

The radius is R = max over the factors of 2 + |a| + S, where S is the
sum of |c_k| over the non-leading coefficients of the factor's p (Hubbard &
Oberste-Vorth, Henon mappings in the complex domain I, 1994; Bedford &
Smillie, 1991).  It makes V+ forward- and V- backward-invariant under every
factor (x, y) -> (y, p(y) - a x), hence under H: if |y| >= max(|x|, R) then
|y| >= 2, |c_k y^k| <= |c_k| |y|^(d-1) for k < d and |a x| <= |a| |y|^(d-1),
so

    |p(y) - a x| >= |y|^(d-1) (|y| - S - |a|) >= 2 |y|,

and the image (y, p(y) - a x) lies in V+.  For the inverse factor
(x, y) -> ((p(x) - y)/a, x) on V-, the same estimate with |y| <= |x| gives

    |(p(x) - y)/a| >= |x|^(d-1) (|x| - S - 1) / |a| >= |x|^(d-1) (1 + |a|)/|a| > |x|,

so the image ((p(x) - y)/a, x) lies in V-.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .henon import HenonMap, Point, apply_inverse_xy, apply_xy

__all__ = [
    "Region",
    "FiltrationRadius",
    "OrbitTag",
    "OrbitClass",
    "region_of",
    "filtration_radius",
    "escape_orbit",
    "classify_point",
]

# escape requires V+ membership *and* this multiple of R as a margin
ESCAPE_MARGIN = 2.0
# an orbit with a coordinate past this bound is given up on, unclassified
BAIL_OUT = 1e150


class Region(Enum):
    V = "V"
    Vplus = "Vplus"
    Vminus = "Vminus"


class OrbitTag(Enum):
    ESCAPED_FORWARD = "EscapedForward"
    ESCAPED_BACKWARD = "EscapedBackward"
    BOUNDED_UP_TO = "BoundedUpTo"


@dataclass(frozen=True)
class FiltrationRadius:
    R: float

    def __post_init__(self):
        if not self.R > 1.0:
            raise ValueError("filtration radius must exceed 1")


@dataclass(frozen=True)
class OrbitClass:
    tag: OrbitTag
    n: int

    @property
    def escaped(self) -> bool:
        return self.tag is not OrbitTag.BOUNDED_UP_TO


def region_of(z: Point, R: float) -> Region:
    """Ties resolved in the order Vplus, Vminus, V (deterministic)."""
    ax, ay = abs(z.x), abs(z.y)
    if ay >= max(ax, R):
        return Region.Vplus
    if ax >= max(ay, R):
        return Region.Vminus
    return Region.V


def _coefficient_floor(H: HenonMap) -> float:
    worst = 2.0
    for f in H.factors:
        # the sum over all of p counts the monic leading 1: this is 2 + |a| + S
        worst = max(worst, 1.0 + abs(f.a) + sum(abs(c) for c in f.p.coeffs))
    return worst


@functools.lru_cache(maxsize=64)
def filtration_radius(H: HenonMap) -> FiltrationRadius:
    """The coefficient bound of the module docstring, a proved radius."""
    return FiltrationRadius(_coefficient_floor(H))


def escape_orbit(H: HenonMap, x, y, r: float, N_max: int, forward: bool = True):
    """First n <= N_max whose iterate lies in the escape region, with the iterate.

    Forward escape is V+ membership with |y| > 2r along the orbit of H;
    backward escape is V- membership with |x| > 2r along the orbit of
    H^{-1}.  Returns (n, x_n, y_n), or None when the orbit misses the region
    for N_max steps or a coordinate passes BAIL_OUT first.
    """
    step = apply_xy if forward else apply_inverse_xy
    cutoff = ESCAPE_MARGIN * r
    for n in range(N_max + 1):
        ax, ay = abs(x), abs(y)
        far, near = (ay, ax) if forward else (ax, ay)
        if far >= max(near, r) and far > cutoff:
            return n, x, y
        if max(ax, ay) > BAIL_OUT:
            return None
        if n < N_max:
            x, y = step(H, x, y)
    return None


def classify_point(
    H: HenonMap,
    z: Point,
    R: FiltrationRadius,
    N_max: int,
    forward: bool = True,
) -> OrbitClass:
    """First n <= N_max with H^n(z) in the escape region, else bounded.

    The backward variant iterates H^{-1} and tests V-.  An orbit that passes
    BAIL_OUT without escaping in the requested direction is reported as
    bounded up to the budget.
    """
    hit = escape_orbit(H, complex(z.x), complex(z.y), R.R, N_max, forward)
    if hit is None:
        return OrbitClass(OrbitTag.BOUNDED_UP_TO, N_max)
    tag = OrbitTag.ESCAPED_FORWARD if forward else OrbitTag.ESCAPED_BACKWARD
    return OrbitClass(tag, hit[0])
