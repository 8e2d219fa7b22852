"""Exact-arithmetic tools for chain blowdowns of smooth 4-manifolds.

The package tracks three layers of structure and keeps every number a
Fraction or an int:

  * plumbing / moduli: the linear plumbing of a blowdown chain, its relative
    homology with boundary residues, and the closed-form dimensions of the
    reducible loci that obstruct gluing arguments, all in integers.
  * lattice / exppoly / transform / placement / chain_surgery / nodal:
    intersection lattices, finite exponential sums over them, the series
    calculus they support, and the surgery moves (blowup, log transform,
    chain blowdown, nodal models) acting on them; linalg serves the chain
    blowdown's matrices.
  * swinv / catalog / closed / audit / suites / cli*: basic-class maps with
    the same surgery moves, a catalog of named families walked into surgery
    plans and built along two independent routes, the verification suites,
    and a command-line shell whose verbs' handlers each load on their own.

`import blowdown` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module

# module -> the names this package re-exports from it
_EXPORTS = {
    "audit": ("adjunction_audit",),
    "catalog": (
        "BlowupSpec", "EllipticSpec", "HpSumSpec", "HSpec", "LogSpec", "WSpec", "YSpec",
        "donaldson_closed_form", "donaldson_pipeline", "parse_spec", "render", "surgery_plan",
        "sw_closed_form",
    ),
    "exppoly": ("ExpKernel", "cosh_c", "exact_div", "sinh_c"),
    "lattice": ("HClass", "IntersectionLattice", "QClass", "is_characteristic", "pairing"),
    "plumbing": ("RelClass", "Residue", "boundary", "rel_pairing"),
    "moduli": (
        "CanonicalClass", "DimReport", "canonical_tb", "corr", "dim_moduli", "dim_report",
        "e_square", "rho_half_closed_form", "verify_boundary_value_lemmas",
    ),
    "reporting": ("CheckReport", "SpecParseError"),
    "swinv": (
        "SWMap", "sw_blowup", "sw_dim", "sw_en", "sw_log_transform", "sw_taut_blowdown",
        "witten_check", "witten_exponent",
    ),
    "transform": ("ManifoldSeries", "blowup", "log_transform"),
    "chain_surgery": (
        "BlowdownResult", "ChainConfig", "ClassRecord", "RestrictedClass", "restrict_class",
        "taut_blowdown",
    ),
    "nodal": (
        "connected_sum_hp", "formal_log_coefficients", "nodal_log_pipeline", "p2_blowdown",
        "twist", "verify_nodal_matrix_identity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
