"""Reference functions that only the tests call."""

import numpy as np

from henoncover.boettcher import phi_series


def phi_vec(H, x, y, tol=1e-12):
    """phi = y exp(S) on arrays from phi_series; returns (phi, err, ok, bad_step)."""
    y = np.asarray(y, dtype=complex)
    S, err, ok, bad, _ = phi_series(H, x, y, tol)
    return y * np.exp(S), err, ok, bad
