"""Escaping-set machinery for generalized complex Henon maps.

Maps are finite compositions of factors (x, y) -> (y, p(y) - a*x) with p
monic of degree >= 2.  The package computes filtration radii, forward and
backward Green's functions, the Bottcher coordinate near the y-axis at
infinity, an explicit covering chart of the escaping set with its lift
polynomial and deck transformations, affine symmetry groups, and
sub-level ("Short C^2") classifications, each paired with runnable
verification of its defining identities.

Importing the package loads no submodule.  Each public name in
``__all__`` is imported from its defining submodule on first access
(PEP 562) and then bound here, so ``henoncover.build_chart`` loads
``cover`` and ``boettcher`` only when a caller first asks for it, and
the command line loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the public names imported from it on first access
_EXPORTS = {
    "henon": (
        "ComplexPolynomial", "SimpleFactor", "HenonMap", "Point",
        "HenonError", "DegreeTooLow", "NotMonic", "ZeroJacobianFactor", "NonFinite",
        "make_henon", "apply", "apply_inverse", "iterate",
    ),
    "filtration": ("FiltrationRadius", "filtration_radius"),
    "green": ("GreenValue", "green_plus", "green_minus"),
    "boettcher": ("BoettcherRegion", "certify_region", "bottcher_phi", "alpha_of_loop"),
    "cover": (
        "CoverChart", "CoverPoint", "DeckLabel", "build_chart", "psi_integral",
        "r_series", "psi_tilde", "psi_tilde_inverse", "lift_H", "deck",
        "covering_map", "save_chart", "load_chart",
    ),
    "symmetry": (
        "AffineMap", "SymmetryReport", "compute_d0", "commutes_with_power",
        "find_affine_symmetries", "verify_cyclic",
    ),
    "shortc2": ("SublevelClass", "SublevelTag", "classify_sublevel", "annulus_coordinate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """Import a public name or submodule on first access and bind it here."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
