"""Sub-level sets of the forward Green's function and the annulus coordinate.

Omega_c = {G+ < c} is a Short C^2; its puncture Omega_c' = Omega_c \\ K+
is covered by C x A_c with the annulus A_c = {1 < |zeta| < e^c}.  The
annulus coordinate of an escaping point is the d^n-th root of its Bottcher
value after n forward pushes, so |zeta| = exp(G+) exactly and H multiplies
the modulus exponent by d.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .boettcher import bottcher_phi
from .cover import CoverChart
from .green import GreenValue, green_plus
from .henon import HenonError, HenonMap, Point, apply_xy

__all__ = [
    "NotEscaping",
    "SublevelTag",
    "SublevelClass",
    "classify_sublevel",
    "annulus_coordinate",
]


# annulus_coordinate gives an orbit up once a coordinate passes this modulus
ESCAPE_GUARD = 1e140


class NotEscaping(HenonError):
    pass


class SublevelTag(Enum):
    IN_K_PLUS_UP_TO_BUDGET = "InKPlusUpToBudget"
    IN_OMEGA_PRIME = "InOmegaPrime"
    OUTSIDE_OMEGA = "OutsideOmega"


@dataclass(frozen=True)
class SublevelClass:
    tag: SublevelTag
    green_value: GreenValue
    ambiguous: bool = False

    def __post_init__(self):
        if self.tag is SublevelTag.IN_OMEGA_PRIME and self.green_value.value <= 0:
            raise ValueError("Omega' points need positive Green value")


def classify_sublevel(
    H: HenonMap, c: float, z: Point, budget: int = 256
) -> SublevelClass:
    """Place z relative to {G+ < c} using green_plus and its error bound.

    Points whose Green value sits within error_bound of the threshold are
    flagged OutsideOmega with the ambiguity marker set rather than being
    silently resolved; so is an orbit given up on at the bail-out or as
    NaN, whose 0 carries an infinite bound.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    g = green_plus(H, z, N_max=budget)
    if g.value == 0.0 and g.depth == budget and g.error_bound < np.inf:
        return SublevelClass(SublevelTag.IN_K_PLUS_UP_TO_BUDGET, g)
    if abs(g.value - c) <= g.error_bound:
        return SublevelClass(SublevelTag.OUTSIDE_OMEGA, g, ambiguous=True)
    if g.value < c:
        return SublevelClass(SublevelTag.IN_OMEGA_PRIME, g)
    return SublevelClass(SublevelTag.OUTSIDE_OMEGA, g)


def annulus_coordinate(chart: CoverChart, z: Point, budget: int = 64) -> complex:
    """The covering coordinate zeta with |zeta| = exp(G+(z)).

    Pushes z forward until the chart's region W+_M absorbs it, takes the
    principal d^n-th root of phi there, at bottcher_phi's tolerance as
    psi_tilde does (one deck-equivalent branch).  NotEscaping when the
    push budget runs out, when a coordinate of the orbit passes
    ESCAPE_GUARD, or when one is not finite (a push that overflows to inf,
    or a NaN); the message names the stop that fired.  The finiteness test
    comes first: one push can take y from below ESCAPE_GUARD to inf, which
    the region test would take in.
    """
    H = chart.H
    M, R = chart.region.M, chart.region.R.R
    x, y = complex(z.x), complex(z.y)
    for n in range(budget + 1):
        if not (cmath.isfinite(x) and cmath.isfinite(y)):
            raise NotEscaping(f"orbit coordinate not finite at ({x}, {y}) after {n} pushes")
        if abs(y) > M * max(abs(x), R):
            phi = bottcher_phi(H, Point(x, y))
            log_phi = np.log(abs(phi)) + 1j * np.angle(phi)
            return complex(np.exp(log_phi / H.d**n))
        top = max(abs(x), abs(y))
        if top > ESCAPE_GUARD:
            raise NotEscaping(
                f"orbit passed |.| = {top:.3e} > {ESCAPE_GUARD:g} after {n} pushes"
                " without reaching the chart region"
            )
        if n == budget:
            break
        x, y = apply_xy(H, x, y)
    raise NotEscaping(
        f"orbit did not reach the chart region within {budget} pushes"
    )
