"""Leaf types every layer shares: the record base, pass/fail check reports,
the spec parse error and the integral-coordinate check; and the output path
every verb writes through (emit), with the number, class-tail and lattice
texts that text and structured output share.  This module imports no other
part of the package when it loads, so the CLI can load it before it knows
which verb runs.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, product
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

    from .lattice import IntersectionLattice


set_field = object.__setattr__


class Frozen:
    """A record whose fields are its __slots__, in order, and that refuses
    assignment and deletion once built.  == compares the exact type and the
    field values (a record always equals itself), hash the same, and repr is
    Name(field=value, ...); a record with an unhashable field is unhashable.
    Frozen(*fields) sets the fields in __slots__ order, so a subclass names its
    fields once, in __slots__, and defines __init__ only to check, coerce,
    default or derive them before calling super().__init__."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *fields) -> None:
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(names)} fields, got {len(fields)}"
            )
        for name, value in zip(names, fields):
            set_field(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.__class__, self._key(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setstate__(self, state) -> None:  # copy and pickle restore the slots here
        for name, value in state[1].items():
            set_field(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


class SpecParseError(ValueError):
    """Malformed spec text; .pos is the character offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class CheckReport(Frozen):
    __slots__ = ("name", "passed", "p", "parameters", "counterexamples")

    def __init__(
        self,
        name: str,
        passed: bool,
        p: Optional[int] = None,
        parameters: Optional[dict[str, Any]] = None,
        counterexamples: Optional[list[Any]] = None,
    ):
        super().__init__(
            name,
            passed,
            p,
            {} if parameters is None else parameters,
            [] if counterexamples is None else counterexamples,
        )

    def to_obj(self) -> dict[str, Any]:
        return {
            "check": self.name,
            "p": self.p,
            "parameters": dict(self.parameters),
            "pass": self.passed,
            "counterexamples": list(self.counterexamples),
        }

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        ptxt = f" p={self.p}" if self.p is not None else ""
        extra = ""
        if self.parameters:
            extra = " " + " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        ce = ""
        if not self.passed and self.counterexamples:
            ce = f"  counterexample: {self.counterexamples[0]}"
        return f"{tag} {self.name}{ptxt}{extra}{ce}"


def integral_coords(coords) -> tuple[int, ...]:
    """coords as a tuple of ints; raises ValueError naming them when a
    coordinate x has int(x) != x, instead of truncating it."""
    coords = tuple(coords)
    out = tuple(map(int, coords))
    if out != coords:
        raise ValueError(f"class {coords} has a non-integral coordinate")
    return out


# ---------------------------------------------------------------------------
# Output

CHUNK = 1 << 13  # bytes encoded before each write to stdout, io.DEFAULT_BUFFER_SIZE


@lru_cache(maxsize=4096)
def ratio_str(n: int, den: int) -> str:
    """n/den (den > 0) in lowest terms, as "n" or "n/den"; a kernel's terms
    share den, so each numerator is reduced once."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def fraction_str(x: Union[Fraction, int]) -> str:
    return ratio_str(*x.as_integer_ratio())


def tail_texts(pieces: Sequence[tuple[str, str]]) -> Callable[[], Iterator[str]]:
    """A function giving, per call, the texts of product((-1, 1), repeat=k) in
    order, entry i written pieces[i][0] for -1 and pieces[i][1] for +1; the
    last 8 entries' 256 texts are joined once, the others' once per 256."""
    low = ["".join(p) for p in product(*pieces[-8:])]
    if len(pieces) <= 8:
        return low.__iter__
    return lambda: (h + t for h in map("".join, product(*pieces[:-8])) for t in low)


def lattice_to_obj(lat: IntersectionLattice, k: int = 0) -> dict:
    """Gram entries as ints when integral, else as "num/den" strings, of lat blown up k times."""
    if k:
        from .transform import blown_up_lattice

        lat = blown_up_lattice(lat, k)
    den = lat.den
    return {
        "basis": list(lat.basis_names),
        "gram": [[x // den if x % den == 0 else ratio_str(x, den) for x in row] for row in lat.num],
    }


def emit(args, obj, text) -> None:
    """Write the pieces of iterencode(obj()) under --format structured, else
    the lines text() yields, to stdout in chunks of about CHUNK bytes, so that
    no verb holds its whole output at once.  The structured object is only
    built when it is written; obj and text only format values the verb has
    already computed, so a verb that exits 2 or 3 raises before any write."""
    if args.format == "structured":
        from .serialize import iterencode

        pieces, end = chain(iterencode(obj()), ("\n",)), ""
    else:
        pieces, end = text(), "\n"  # each piece is a line
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        sys.stdout.writelines(piece + end for piece in pieces)
        return
    sys.stdout.flush()
    encoding, chunk = sys.stdout.encoding, bytearray()
    tail = end.encode(encoding)
    for piece in pieces:
        chunk += piece.encode(encoding)
        chunk += tail
        if len(chunk) >= CHUNK:
            _write(raw, chunk)
            chunk = bytearray()
    _write(raw, chunk)


def _write(raw, data: bytearray) -> None:
    # unbuffered (python -u), the binary layer may take only part of a write,
    # which the text layer would drop; the loop reaches a closed reader's EPIPE
    view = memoryview(data)
    while view:
        view = view[raw.write(view):]
