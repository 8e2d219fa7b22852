import json
from fractions import Fraction

import pytest

from blowdown.catalog import donaldson_closed_form, sw_closed_form
from blowdown.exppoly import ExpKernel
from blowdown.lattice import IntersectionLattice
from blowdown.serialize import (
    blowdown_to_obj,
    fraction_str,
    iterencode,
    kernel_to_obj,
    lattice_to_obj,
    series_to_obj,
    swmap_to_obj,
)
from blowdown.swinv import SWMap
from blowdown.transform import ManifoldSeries
from decode import (
    fraction_parse,
    kernel_from_obj,
    lattice_from_obj,
    series_from_obj,
    swmap_from_obj,
)


def encoded(obj):
    """obj as the CLI writes it, read back: term lists are written straight
    from their kernels, so only the text is plain JSON."""
    return json.loads("".join(iterencode(obj)))


def test_fraction_strings():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-7, 2)) == "-7/2"
    assert fraction_str(5) == "5"
    for x in [0, 1, -12, 10**30, Fraction(6, 3), Fraction(-10**20, 3), True]:
        assert fraction_str(x) == str(Fraction(x))
    assert fraction_parse("3") == 3
    assert fraction_parse("-7/2") == Fraction(-7, 2)
    assert fraction_parse(4) == 4
    with pytest.raises(ValueError):
        fraction_parse("a/b")


def test_lattice_roundtrip():
    lat = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])
    obj = lattice_to_obj(lat)
    assert obj["basis"] == ["f", "s"]
    assert lattice_from_obj(obj) == lat
    # rational gram entries serialize as strings
    half = IntersectionLattice(["x"], [[Fraction(1, 2)]])
    assert lattice_from_obj(lattice_to_obj(half)) == half


def test_kernel_and_series_roundtrip():
    for s in ("E(2;2,3)", "W(3)", "Y(5)"):
        m = donaldson_closed_form(s)
        assert kernel_from_obj(encoded(kernel_to_obj(m.kernel))) == m.kernel
        assert series_from_obj(encoded(series_to_obj(m))) == m


def test_swmap_roundtrip():
    for s in ("E(2;3)", "W(2)", "H(5)"):
        m = sw_closed_form(s)
        back = swmap_from_obj(encoded(swmap_to_obj(m)))
        assert back == m


def test_swmap_from_obj_rejects_non_integral_values():
    obj = encoded(swmap_to_obj(sw_closed_form("E(4)")))
    assert swmap_from_obj(obj) == sw_closed_form("E(4)")
    obj["classes"][0]["sw"] = 1.5  # used to truncate to 1
    with pytest.raises(ValueError, match=r"must be an integer, got 3/2$"):
        swmap_from_obj(obj)


def test_series_from_obj_rejects_non_simple_type():
    obj = encoded(series_to_obj(donaldson_closed_form("E(4)")))
    assert obj["simple_type"] is True
    assert series_from_obj(obj) == donaldson_closed_form("E(4)")
    obj["simple_type"] = False
    with pytest.raises(ValueError, match=r"simple-type"):
        series_from_obj(obj)


def test_swmap_from_obj_rejects_non_simple_type():
    obj = encoded(swmap_to_obj(sw_closed_form("E(4)")))
    assert obj["simple_type"] is True
    assert swmap_from_obj(obj) == sw_closed_form("E(4)")
    obj["simple_type"] = False
    with pytest.raises(ValueError, match=r"simple-type"):
        swmap_from_obj(obj)


def test_non_integral_characteristic_numbers_are_rejected():
    # e + sigma = 16 is even and gives b_plus 7, so only the integrality check
    # stops these; SWMap used to truncate them to 48 and -32, the series kept them
    series, swmap = donaldson_closed_form("E(4)"), sw_closed_form("E(4)")
    objs = [encoded(series_to_obj(series)), encoded(swmap_to_obj(swmap))]
    for obj in objs:
        obj["euler"], obj["signature"] = 48.5, -32.5
    for build in (
        lambda: ManifoldSeries(series.kernel, 48.5, -32.5),
        lambda: SWMap(ExpKernel(swmap.lattice, swmap.values), 48.5, -32.5),
        lambda: series_from_obj(objs[0]),
        lambda: swmap_from_obj(objs[1]),
    ):
        with pytest.raises(ValueError, match="euler and signature must be integers"):
            build()


def test_blowdown_obj_shape():
    from blowdown.catalog import run, surgery_plan

    plan = surgery_plan("W(1)")
    [(_, _, res)] = run(plan, "pipeline")[1]
    obj = encoded(blowdown_to_obj(res))
    assert set(obj) == {"series", "class_map"}
    statuses = {rec["status"] for rec in obj["class_map"]}
    assert statuses == {"kept", "dropped"}
    kept = next(r for r in obj["class_map"] if r["status"] == "kept")
    assert set(kept) == {"source", "status", "residue", "extension", "image"}
