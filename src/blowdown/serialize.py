"""Canonical JSON encodings of the core values, as `--format structured`
prints them.

Rationals encode as plain ints when integral and as "num/den" strings
otherwise.  Term lists are sorted by exponent tuple so equal values always
encode to identical text.  `iterencode` is the one encoder: the pieces it
yields join to json.dumps(obj, indent=2, sort_keys=True), and it writes term
lists straight from the kernel's integer numerators, one piece per term and
with no object per term, so that the CLI can print them in bounded chunks
(`"".join(iterencode(obj))` is the whole text).  No verb reads
these encodings back; the decoders that check the round trips live with the
tests (tests/decode.py).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from typing import TYPE_CHECKING, Any, Iterator, Union

if TYPE_CHECKING:  # annotations only, so that dim formats numbers without the calculus
    from .exppoly import ExpKernel
    from .lattice import IntersectionLattice
    from .swinv import SWMap
    from .transform import BlowdownResult, ClassRecord, ManifoldSeries


@lru_cache(maxsize=4096)
def ratio_str(n: int, den: int) -> str:
    """n/den (den > 0) in lowest terms, as "n" or "n/den"; a kernel's terms
    share den, so each numerator is reduced once."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def fraction_str(x: Union[Fraction, int]) -> str:
    return ratio_str(*Fraction(x).as_integer_ratio())


def iterencode(obj: Any, pad: str = "\n") -> Iterator[str]:
    """The text json.dumps(obj, indent=2, sort_keys=True) writes, in pieces,
    for dicts with str keys, lists, tuples and scalars; a callable stands for
    the pieces it yields for the newline-and-indent pad of its line."""
    inner, sep = pad + "  ", ""
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            yield f"{sep or '{'}{inner}{json.dumps(k)}: "
            yield from iterencode(v, inner)
            sep = ","
        yield pad + "}" if sep else "{}"
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield f"{sep or '['}{inner}"
            yield from iterencode(v, inner)
            sep = ","
        yield pad + "]" if sep else "[]"
    elif callable(obj):
        yield from obj(pad)
    else:
        yield json.dumps(obj)


def _terms_json(k: ExpKernel, field: str, quote: str, pad: str) -> Iterator[str]:
    """iterencode of [{"class": key, field: value}, ...] over k's terms in key
    order, one term a piece: value is the coefficient, as a string when quote
    is '"'.  Keys are never empty, as a lattice has rank >= 1."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    head, sep, mid = f'{p1}{{{p2}"class": [{p3}', "," + p3, f'{p2}],{p2}"{field}": {quote}'
    tail, num, den, comma = quote + p1 + "}", k.num, k.den, "["
    for key in sorted(num):
        yield f"{comma}{head}{sep.join(map(str, key))}{mid}{ratio_str(num[key], den)}{tail}"
        comma = ","
    yield pad + "]" if num else "[]"


def lattice_to_obj(lat: IntersectionLattice) -> dict:
    """Gram entries as ints when integral, else as "num/den" strings."""
    den = lat.den
    return {
        "basis": list(lat.basis_names),
        "gram": [[x // den if x % den == 0 else ratio_str(x, den) for x in row] for row in lat.num],
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
        "simple_type": True,
    }


def _record_to_obj(rec: ClassRecord) -> dict:
    obj = {"source": list(rec.source), "status": rec.status, "residue": rec.residue}
    if rec.extension is not None:
        obj["extension"] = [fraction_str(x) for x in rec.extension]
    if rec.image is not None:
        obj["image"] = list(rec.image)
    return obj


def blowdown_to_obj(result: BlowdownResult) -> dict:
    return {
        "series": series_to_obj(result.result),
        "class_map": [_record_to_obj(rec) for rec in result.class_map],
    }
