"""Leaf types every layer shares: the record base, pass/fail check reports,
the spec parse error and the integral-coordinate check.  This module imports
no other part of the package, so the CLI can load it before it knows which
verb runs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Optional


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
