"""Leaf types every layer shares: the slot-record bases, pass/fail check
reports and the spec parse error.  This module imports no other part of the
package, so the CLI can load it before it knows which verb runs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Optional


class Record:
    """A record whose fields are its __slots__, in order: == compares the
    exact type and the field values, and repr is Name(field=value, ...).  A
    mutable Record is unhashable, as its fields may change."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


set_field = object.__setattr__


class Frozen(Record):
    """A Record that refuses assignment and deletion once built; its __init__
    sets each field with set_field.  Hashes by exact type and field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash((self.__class__, self._key(self)))

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


class CheckReport(Record):
    __slots__ = ("name", "passed", "p", "parameters", "counterexamples")

    def __init__(
        self,
        name: str,
        passed: bool,
        p: Optional[int] = None,
        parameters: Optional[dict[str, Any]] = None,
        counterexamples: Optional[list[Any]] = None,
    ):
        self.name = name
        self.passed = passed
        self.p = p
        self.parameters = {} if parameters is None else parameters
        self.counterexamples = [] if counterexamples is None else counterexamples

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
