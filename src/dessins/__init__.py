"""Clean Belyi maps on a family of elliptic curves and their dessins.

The degree-12 polynomial f(x) = x^12 - (12/11) x^11 + 1 has twelve simple
complex roots and no real ones.  Choosing three of them cuts out a curve
y^2 = (x - ri)(x - rj)(x - rk), and the chain

    b(1,1) . b(10,1) . f . pi(i,j,k)

is a clean Belyi map of degree 528 on that curve.  This package finds the
roots, parses such chains, extracts monodromy permutation
pairs by numerical continuation around 0 and 1, reduces them to dessin
invariants (passport, genus, bouquet profile, canonical form), moves the
triples under an A5 action and compares the dessins along each orbit, and
draws the graphs as SVG.

The exact layers (perms, dessin, galois, maps, the GF(p) half of
polynomials) import no numpy, and neither does ``import dessins``: the
numeric names, which continue fibers on numpy arrays, are imported from
monodromy and render on first use (PEP 562).  ``dessins.monodromy`` stays
the function of that name in every import order, also once the submodule
of that name is imported (see _Package).
"""

import importlib
import sys
import types


class _Package(types.ModuleType):
    """The package module.  Importing a submodule binds it on the package
    by setattr; for ``monodromy``, which names both a submodule and its
    function, the function is bound instead."""

    def __setattr__(self, name, value):
        if name == "monodromy" and isinstance(value, types.ModuleType):
            value = value.monodromy
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

from .dessin import (
    Constellation,
    DessinInvariants,
    Passport,
    canonical_hash,
    canonical_key,
    dessin_json,
    genus,
    genus_and_passport,
    invariants,
    isomorphic,
    passport,
)
from .galois import (
    SubgroupSpec,
    Triple,
    a5_orbit_partition,
    act,
    full_chain,
    generators_a5,
    j_invariant,
    orbit_dessins,
    orbit_triples,
    verify_a5,
    word_permutation,
)
from .maps import MapExpr, branch_values, format_map_expr, is_belyi, parse_map_expr
from .perms import (
    CycleType,
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    identity,
    inverse,
    parse_cycles,
    power,
)
from .polynomials import LabeledRoots, f_polynomial, roots_of_f, s12_evidence
from .tracking import TrackingConfig

__version__ = "0.1.0"

_NUMERIC = {
    "fiber": "monodromy",
    "monodromy": "monodromy",
    "verify_stability": "monodromy",
    "RenderResult": "render",
    "render_graph": "render",
}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CycleType",
    "Constellation",
    "DessinInvariants",
    "LabeledRoots",
    "MapExpr",
    "Passport",
    "Permutation",
    "RenderResult",
    "SubgroupSpec",
    "TrackingConfig",
    "Triple",
    "a5_orbit_partition",
    "act",
    "branch_values",
    "canonical_hash",
    "canonical_key",
    "compose",
    "cycle_decomposition",
    "cycle_type",
    "dessin_json",
    "f_polynomial",
    "fiber",
    "format_cycles",
    "format_map_expr",
    "full_chain",
    "generators_a5",
    "genus",
    "genus_and_passport",
    "identity",
    "invariants",
    "inverse",
    "is_belyi",
    "isomorphic",
    "j_invariant",
    "monodromy",
    "orbit_dessins",
    "orbit_triples",
    "parse_cycles",
    "parse_map_expr",
    "passport",
    "power",
    "render_graph",
    "roots_of_f",
    "s12_evidence",
    "verify_a5",
    "verify_stability",
    "word_permutation",
]
