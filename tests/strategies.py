"""Hypothesis strategies shared by the property tests."""

import cmath

import numpy as np
from hypothesis import strategies as st

from henoncover import make_henon

# a coefficient or Jacobian factor with modulus in [1e-2, 1e2] and any phase
_coefficient = st.builds(
    lambda e, t: cmath.rect(10.0**e, t), st.floats(-2, 2), st.floats(0, 2 * np.pi)
)
_factor = st.integers(2, 3).flatmap(
    lambda deg: st.tuples(st.lists(_coefficient, min_size=deg, max_size=deg), _coefficient)
)

# valid maps of one or two monic factors of degree 2 or 3
henon_maps = st.lists(_factor, min_size=1, max_size=2).map(
    lambda factors: make_henon([(cs + [1.0], a) for cs, a in factors])
)



def attracting_map(rng):
    """A one-factor map of degree 2 or 3 with an attracting fixed point.

    The multipliers lam1, lam2, the fixed point (s, s) and the coefficients
    c2 .. c_(deg-1) are drawn with modulus in [0.05, 0.95].  DH(s, s) =
    [[0, 1], [-a, p'(s)]] has trace p'(s) and determinant a, so a = lam1
    lam2, c1 gives p'(s) = lam1 + lam2, and c0 makes p(s) - a s = s.
    """
    deg = int(rng.integers(2, 4))
    lam1, lam2, s, *upper = rng.uniform(0.05, 0.95, deg + 1) * np.exp(
        2j * np.pi * rng.uniform(size=deg + 1)
    )
    cs = [0j, 0j] + upper + [1.0]
    cs[1] = lam1 + lam2 - sum(k * c * s ** (k - 1) for k, c in enumerate(cs) if k >= 2)
    a = lam1 * lam2
    cs[0] = s + a * s - sum(c * s**k for k, c in enumerate(cs) if k >= 1)
    return make_henon([(cs, a)])
