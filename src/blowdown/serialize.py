"""Canonical JSON encodings of the core values, as `--format structured`
prints them.

Rationals encode as plain ints when integral and as "num/den" strings
otherwise.  Term lists are sorted by exponent tuple so equal values always
encode to identical text.  `dumps` is the one encoder: its text equals
json.dumps(obj, indent=2, sort_keys=True), and it writes term lists straight
from the kernel's integer numerators, with no object per term.  No verb reads
these encodings back; the decoders that check the round trips live with the
tests (tests/decode.py).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from typing import TYPE_CHECKING, Any, Union

if TYPE_CHECKING:  # annotations only, so that dim formats numbers without the calculus
    from .exppoly import ExpKernel
    from .lattice import IntersectionLattice
    from .swinv import SWMap
    from .transform import BlowdownResult, ManifoldSeries


@lru_cache(maxsize=4096)
def ratio_str(n: int, den: int) -> str:
    """n/den (den > 0) in lowest terms, as "n" or "n/den"; a kernel's terms
    share den, so each numerator is reduced once."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def fraction_str(x: Union[Fraction, int]) -> str:
    return ratio_str(*Fraction(x).as_integer_ratio())


def dumps(obj: Any, pad: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, for dicts
    with str keys, lists, tuples and scalars; a callable stands for the JSON
    text it returns for the newline-and-indent pad of its line."""
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(inner + dumps(v, inner) for v in obj) + pad + "]" if obj else "[]"
    return obj(pad) if callable(obj) else json.dumps(obj)


def _terms_json(k: ExpKernel, field: str, quote: str, pad: str) -> str:
    """dumps of [{"class": key, field: value}, ...] over k's terms in key
    order: value is the coefficient, as a string when quote is '"'.  Keys
    are never empty, as a lattice has rank >= 1."""
    if not k.num:
        return "[]"
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    head, sep, mid = f'{p1}{{{p2}"class": [{p3}', "," + p3, f'{p2}],{p2}"{field}": {quote}'
    tail, num, den = quote + p1 + "}", k.num, k.den
    body = ",".join(
        f"{head}{sep.join(map(str, key))}{mid}{ratio_str(num[key], den)}{tail}"
        for key in sorted(num)
    )
    return "[" + body + pad + "]"


def _num_obj(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else fraction_str(x)


def lattice_to_obj(lat: IntersectionLattice) -> dict:
    return {
        "basis": list(lat.basis_names),
        "gram": [[_num_obj(v) for v in row] for row in lat.gram],
    }


def kernel_to_obj(k: ExpKernel) -> dict:
    return {"lattice": lattice_to_obj(k.lattice), "terms": partial(_terms_json, k, "coeff", '"')}


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
        "classes": partial(_terms_json, m.kernel, "sw", ""),
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
