"""Canonical JSON-friendly encodings of the core values, as `--format
structured` prints them.

Rationals encode as plain ints when integral and as "num/den" strings
otherwise.  Term lists are sorted by exponent tuple so equal values always
encode to identical objects.  No verb reads these objects back; the decoders
that check the round trips live with the tests (tests/decode.py).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

from .exppoly import ExpKernel
from .lattice import IntersectionLattice
from .swinv import SWMap
from .transform import BlowdownResult, ManifoldSeries


def fraction_str(x: Union[Fraction, int]) -> str:
    if type(x) is int:
        return str(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _num_obj(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else fraction_str(x)


def lattice_to_obj(lat: IntersectionLattice) -> dict:
    return {
        "basis": list(lat.basis_names),
        "gram": [[_num_obj(v) for v in row] for row in lat.gram],
    }


def kernel_to_obj(k: ExpKernel) -> dict:
    return {
        "lattice": lattice_to_obj(k.lattice),
        "terms": [
            {"class": list(key), "coeff": fraction_str(c)} for key, c in k.sorted_terms()
        ],
    }


def series_to_obj(m: ManifoldSeries) -> dict:
    return {
        "kernel": kernel_to_obj(m.kernel),
        "euler": m.euler,
        "signature": m.signature,
        "b_plus": m.b_plus,
        "simple_type": True,
    }


def swmap_to_obj(m: SWMap) -> dict:
    return {
        "lattice": lattice_to_obj(m.lattice),
        "classes": [
            {"class": list(key), "sw": m.values[key]} for key in sorted(m.values)
        ],
        "euler": m.euler,
        "signature": m.signature,
        "b_plus": m.b_plus,
        "simple_type": m.simple_type,
    }


def blowdown_to_obj(result: BlowdownResult) -> dict:
    return {
        "series": series_to_obj(result.result),
        "class_map": [rec.to_obj() for rec in result.class_map],
    }
