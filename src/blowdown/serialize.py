"""Canonical JSON-friendly encodings of the core values, with round trips.

Rationals encode as plain ints when integral and as "num/den" strings
otherwise.  Term lists are sorted by exponent tuple so equal values always
encode to identical objects.
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


def fraction_parse(s: Union[str, int]) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _num_obj(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else fraction_str(x)


def lattice_to_obj(lat: IntersectionLattice) -> dict:
    return {
        "basis": list(lat.basis_names),
        "gram": [[_num_obj(v) for v in row] for row in lat.gram],
    }


def lattice_from_obj(obj: dict) -> IntersectionLattice:
    gram = [[fraction_parse(v) for v in row] for row in obj["gram"]]
    return IntersectionLattice(obj["basis"], gram)


def kernel_to_obj(k: ExpKernel) -> dict:
    return {
        "lattice": lattice_to_obj(k.lattice),
        "terms": [
            {"class": list(key), "coeff": fraction_str(c)} for key, c in k.sorted_terms()
        ],
    }


def kernel_from_obj(obj: dict) -> ExpKernel:
    lat = lattice_from_obj(obj["lattice"])
    return ExpKernel(
        lat, {tuple(t["class"]): fraction_parse(t["coeff"]) for t in obj["terms"]}
    )


def series_to_obj(m: ManifoldSeries) -> dict:
    return {
        "kernel": kernel_to_obj(m.kernel),
        "euler": m.euler,
        "signature": m.signature,
        "b_plus": m.b_plus,
        "simple_type": True,
    }


def series_from_obj(obj: dict) -> ManifoldSeries:
    if obj.get("simple_type", True) is not True:
        raise ValueError("only simple-type series are supported")
    return ManifoldSeries(kernel_from_obj(obj["kernel"]), obj["euler"], obj["signature"])


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


def swmap_from_obj(obj: dict) -> SWMap:
    lat = lattice_from_obj(obj["lattice"])
    values = {tuple(c["class"]): c["sw"] for c in obj["classes"]}
    return SWMap(lat, values, obj["euler"], obj["signature"], obj.get("simple_type", True))


def blowdown_to_obj(result: BlowdownResult) -> dict:
    return {
        "series": series_to_obj(result.result),
        "class_map": [rec.to_obj() for rec in result.class_map],
    }
