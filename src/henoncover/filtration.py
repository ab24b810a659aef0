"""Filtration of C^2 into V, V+ and V-, its proved radius, forward escape.

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

from .henon import HenonMap, apply_xy

__all__ = ["FiltrationRadius", "filtration_radius", "escape_orbit"]

# escape requires V+ membership *and* this multiple of R as a margin
ESCAPE_MARGIN = 2.0
# an orbit with a coordinate past this bound is given up on, unclassified
BAIL_OUT = 1e150


@dataclass(frozen=True)
class FiltrationRadius:
    R: float

    def __post_init__(self):
        if not self.R > 1.0:
            raise ValueError("filtration radius must exceed 1")


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


def escape_orbit(H: HenonMap, x, y, N_max: int):
    """First n <= N_max with H^n(x, y) in the escape region, with the iterate.

    Escape is V+ membership with |y| > 2R, where R = filtration_radius(H).R.
    Returns (n, x_n, y_n); None when the orbit misses the region for N_max
    steps; False when a coordinate passes BAIL_OUT or is NaN first, where
    the grid kernels give the point up too (a NaN orbit never escapes, and
    one past BAIL_OUT may escape later).  Backward escape is this test on
    henon.backward_conjugate(H), the monic conjugate of H^{-1} that
    green.green_minus iterates.
    """
    R = filtration_radius(H).R
    cutoff = ESCAPE_MARGIN * R
    for n in range(N_max + 1):
        ax, ay = abs(x), abs(y)
        if ay >= max(ax, R) and ay > cutoff:
            return n, x, y
        if not (ax <= BAIL_OUT and ay <= BAIL_OUT):  # a NaN stops here too
            return False
        if n < N_max:
            x, y = apply_xy(H, x, y)
    return None
