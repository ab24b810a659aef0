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
