"""Hypothesis strategies, seeded map draws and the spec corpus shared by the tests."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from henoncover import AffineMap, make_henon
from henoncover.cli import parse_spec

# the spec corpus: each map spec and grid job that a test or the CI
# console-script step runs, one JSON file each, as the CLI reads them
SPECS = Path(__file__).resolve().parent / "specs"


def spec_file(name):
    """Path of the corpus file tests/specs/<name>.json."""
    return SPECS / f"{name}.json"


def spec_doc(name):
    """The JSON document of a corpus map spec or grid job."""
    return json.loads(spec_file(name).read_text())


def spec_map(name):
    """The HenonMap of a corpus map spec."""
    return parse_spec(spec_doc(name)).henon

# a coefficient or Jacobian factor with modulus in [1e-2, 1e2] and any phase
_coefficient = st.builds(
    lambda e, t: cmath.rect(10.0**e, t), st.floats(-2, 2), st.floats(0, 2 * np.pi)
)
# the same moduli, real with either sign
_real_coefficient = st.builds(
    lambda e, s: s * 10.0**e, st.floats(-2, 2), st.sampled_from([-1.0, 1.0])
)


def _maps(coefficient):
    """Valid maps of one or two monic factors of degree 2 or 3."""
    factor = st.integers(2, 3).flatmap(
        lambda deg: st.tuples(st.lists(coefficient, min_size=deg, max_size=deg), coefficient)
    )
    return st.lists(factor, min_size=1, max_size=2).map(
        lambda factors: make_henon([(cs + [1.0], a) for cs, a in factors])
    )


henon_maps = _maps(_coefficient)
# maps with real coefficients, whose real slice the grid kernels run in float64
real_henon_maps = _maps(_real_coefficient)


PLANTED_FAMILIES = ("monomial", "two_monomials", "odd_cubic", "two_odd_cubics")


def _shifted(cs, t):
    """Constant-first coefficients of q(y - t), q having coefficients cs."""
    return [
        sum(c * math.comb(k, j) * (-t) ** (k - j) for k, c in enumerate(cs) if k >= j)
        for j in range(len(cs))
    ]


@st.composite
def planted_symmetric_maps(draw, family):
    """(H, order, L): a map whose symmetry group is planted with generator L.

    The normal-form factors pt_i of each family and the planted order:
      - "monomial": u^d with d in {2, 3}, order d^2 - 1;
      - "two_monomials": u^d1 then u^d2, order d1 d2 - 1;
      - "odd_cubic": u^3 + c u, order 2;
      - "two_odd_cubics": two of those (d = 9), order 2.
    Sequence translations t_0 .. t_(m-1) of modulus in [1e-2, 1e2] conjugate
    them: p_i(y) = pt_i(y - t_(i-1)) + t_i + a_i t_(i-2), indices mod m, so
    H = T Ht T^-1 with T(u, v) = (u + t_(m-1), v + t_0).  The generator is
    L = T diag(e, e') T^-1 with e' = exp(2 pi i / order) and e = e'^d_1.
    """
    m = 2 if family.startswith("two_") else 1
    if "monomial" in family:
        degrees = draw(st.lists(st.integers(2, 3), min_size=m, max_size=m))
        normal = [[0] * deg + [1] for deg in degrees]
        order = math.prod(degrees) - 1 if m == 2 else degrees[0] ** 2 - 1
    else:
        normal = [[0, c, 0, 1] for c in draw(st.lists(_coefficient, min_size=m, max_size=m))]
        order = 2
    a = draw(st.lists(_coefficient, min_size=m, max_size=m))
    t = draw(st.lists(_coefficient, min_size=m, max_size=m))
    factors = []
    for i, (cs, ai) in enumerate(zip(normal, a)):
        # the (i + 1)-th factor reads t_i, t_(i+1) and t_(i-1)
        p = _shifted(cs, t[i])
        p[0] += t[(i + 1) % m] + ai * t[i - 1]
        factors.append((p, ai))
    d1 = len(normal[0]) - 1
    e_prime = cmath.exp(2j * cmath.pi / order)
    e = e_prime**d1
    L = AffineMap(e, t[-1] * (1 - e), e_prime, t[0] * (1 - e_prime))
    return make_henon(factors), order, L


def attracting_map(rng):
    """A one-factor map of degree 2 or 3 with an attracting fixed point."""
    return planted_attracting_map(rng)[0]


def planted_attracting_map(rng):
    """(H, s): a one-factor map of degree 2 or 3 and its attracting fixed point (s, s).

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
    return make_henon([(cs, a)]), s


def unit_box_maps(seed=12345):
    """Ten seeded maps, the first five of one factor and the last five of two.

    Each factor has degree 2 or 3; its non-leading coefficients, then a, are
    uniform in the complex unit box.
    """
    rng = np.random.default_rng(seed)
    maps = []
    for m in [1] * 5 + [2] * 5:
        factors = []
        for _ in range(m):
            deg = int(rng.integers(2, 4))
            cs = list(rng.uniform(-1, 1, (deg, 2)) @ [1, 1j]) + [1.0]
            factors.append((cs, rng.uniform(-1, 1, 2) @ [1, 1j]))
        maps.append(make_henon(factors))
    return maps
