"""JSON decoders for the encodings in blowdown.serialize.

No verb reads these objects back, so the decoders live with the tests that
check the round trips and the rejections.  Imported by the test modules as
`from decode import ...`; pytest puts this directory on sys.path because the
tests are not a package.
"""

from fractions import Fraction
from typing import Union

from blowdown.exppoly import ExpKernel
from blowdown.lattice import IntersectionLattice
from blowdown.swinv import SWMap
from blowdown.transform import ManifoldSeries


def fraction_parse(s: Union[str, int]) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def lattice_from_obj(obj: dict) -> IntersectionLattice:
    gram = [[fraction_parse(v) for v in row] for row in obj["gram"]]
    return IntersectionLattice(obj["basis"], gram)


def kernel_from_obj(obj: dict) -> ExpKernel:
    lat = lattice_from_obj(obj["lattice"])
    return ExpKernel(
        lat, {tuple(t["class"]): fraction_parse(t["coeff"]) for t in obj["terms"]}
    )


def series_from_obj(obj: dict) -> ManifoldSeries:
    if obj.get("simple_type", True) is not True:
        raise ValueError("only simple-type series are supported")
    return ManifoldSeries(kernel_from_obj(obj["kernel"]), obj["euler"], obj["signature"])


def swmap_from_obj(obj: dict) -> SWMap:
    if obj.get("simple_type", True) is not True:
        raise ValueError("only simple-type basic-class maps are supported")
    lat = lattice_from_obj(obj["lattice"])
    values = {tuple(c["class"]): c["sw"] for c in obj["classes"]}
    return SWMap(ExpKernel(lat, values), obj["euler"], obj["signature"])
