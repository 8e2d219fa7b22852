"""Canonical JSON encodings of the core values, as `--format structured`
prints them.

Rationals encode as plain ints when integral and as "num/den" strings
otherwise.  Term lists are sorted by exponent tuple so equal values always
encode to identical text.  `iterencode` is the one encoder: the pieces it
yields join to json.dumps(obj, indent=2, sort_keys=True), and it writes term
lists straight from the kernel's integer numerators, one piece per term and
with no object per term, so that the CLI can print them in bounded chunks
(`"".join(iterencode(obj))` is the whole text); only it imports json.  Text
output loads neither json nor this module: the number, tail and lattice texts
both formats share live in .reporting.  Given a blowup count k, the encoders
write the 2^k-fold expansion of k blowups from the value before them.  No verb
reads these encodings back; the decoders live with the tests (tests/decode.py).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterator, Union

from .reporting import lattice_to_obj, ratio_str, tail_texts

if TYPE_CHECKING:  # annotations only, so that dim encodes numbers without the calculus
    from .chain_surgery import BlowdownResult, ClassRecord
    from .exppoly import ExpKernel
    from .swinv import SWMap
    from .transform import ManifoldSeries


def iterencode(obj: Any, pad: str = "\n") -> Iterator[str]:
    """The text json.dumps(obj, indent=2, sort_keys=True) writes, in pieces,
    for dicts with str keys, lists, tuples and scalars; a callable stands for
    the pieces it yields for the newline-and-indent pad of its line."""
    import json

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


def _terms_json(num, den: int, k: int, field: str, quote: str, pad: str) -> Iterator[str]:
    """iterencode of [{"class": L + tail, field: num[L]/den}, ...], L over num's
    sorted keys (never empty, as a lattice has rank >= 1) and tail over
    tail_texts, one term a piece, value a string when quote is '"'."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    head, sep, mid = f'{p1}{{{p2}"class": [{p3}', "," + p3, f'{p2}],{p2}"{field}": {quote}'
    tail, comma, tails = quote + p1 + "}", "[", tail_texts([(sep + "-1", sep + "1")] * k)
    for key in sorted(num):
        start, end = head + sep.join(map(str, key)), f"{mid}{ratio_str(num[key], den)}{tail}"
        for t in tails():
            yield f"{comma}{start}{t}{end}"
            comma = ","
    yield pad + "]" if num else "[]"


def kernel_to_obj(kern: ExpKernel, k: int = 0) -> dict:
    terms = partial(_terms_json, kern.num, kern.den << k, k, "coeff", '"')
    return {"lattice": lattice_to_obj(kern.lattice, k), "terms": terms}


def _numbers(m: Union[ManifoldSeries, SWMap], k: int) -> dict:
    euler, signature = m.euler + k, m.signature - k  # blowups leave b_plus as it is
    return {"euler": euler, "signature": signature, "b_plus": m.b_plus, "simple_type": True}


def series_to_obj(m: ManifoldSeries, k: int = 0) -> dict:
    return {"kernel": kernel_to_obj(m.kernel, k), **_numbers(m, k)}


def swmap_to_obj(m: SWMap, k: int = 0) -> dict:
    return {
        "lattice": lattice_to_obj(m.lattice, k),
        "classes": partial(_terms_json, m.values, 1, k, "sw", ""),
        **_numbers(m, k),
    }


def _record_to_obj(rec: ClassRecord, det: int) -> dict:
    obj = {"source": list(rec.source), "status": rec.status, "residue": rec.residue}
    if rec.extension is not None:
        obj["extension"] = [ratio_str(a, det) for a in rec.extension]
    if rec.image is not None:
        obj["image"] = list(rec.image)
    return obj


def blowdown_to_obj(result: BlowdownResult, det: int) -> dict:
    return {
        "series": series_to_obj(result.result),
        "class_map": [_record_to_obj(rec, det) for rec in result.class_map],
    }
