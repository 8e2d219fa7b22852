"""One-pass blowups against k iterated single blowups, in both calculi.

`transform.blowup(m, k)` writes the product of k cosh factors out in one
pass and `swinv.sw_blowup(m, count=k)` applies the level rule to k
exceptional directions in one pass.  Each must equal k single blowups, names
included; the series side is also checked against the explicit kernel
product.
"""

from fractions import Fraction

import pytest

from blowdown.catalog import donaldson_closed_form, sw_closed_form
from blowdown.exppoly import ExpKernel, cosh_c
from blowdown.lattice import IntersectionLattice
from blowdown.swinv import SWMap, sw_blowup, sw_dim
from blowdown.transform import ManifoldSeries, blowup, blown_up_lattice
from lattices import diagonal_lattice

SPECS = ["E(2)", "E(5)", "E(4;2,3)", "E(3;2,5)"]
NAMES = ["z", "b2", "e", "x9"]


def _cosh_product(m, k, names):
    lat = blown_up_lattice(m.lattice, k, names)
    pad = (0,) * k
    kernel = ExpKernel(lat, {key + pad: c for key, c in m.kernel.terms.items()})
    for name in lat.basis_names[m.lattice.rank :]:
        kernel = kernel * cosh_c(lat.basis_class(name))
    return ManifoldSeries(kernel, m.euler + k, m.signature - k)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_series_blowup_in_one_pass(spec, k):
    m = donaldson_closed_form(spec)
    for names in (None, NAMES[:k]):
        once = blowup(m, k, names)
        step = m
        for i in range(k):
            step = blowup(step, 1, None if names is None else [names[i]])
        assert once == step == _cosh_product(m, k, names)
        assert len(once.kernel) == (2**k) * len(m.kernel)
    assert once.lattice.basis_names[m.lattice.rank :] == tuple(NAMES[:k])


def _iterated_sw(m, levels, k, names):
    for i in range(k):
        m = sw_blowup(m, levels, None if names is None else names[i])
    return m


def _non_simple_maps():
    # every class of ["k"], [[2]] is characteristic; dimensions 4, 3/2, 0, 12
    lat = diagonal_lattice(["k"], [2])
    yield SWMap(lat, {(3,): 1, (2,): 5, (1,): -2, (5,): 3}, 46, -30, simple_type=False)
    # den 3: characteristic classes are (6u, 6v); (0, 6) has negative dimension
    lat = IntersectionLattice(["a", "b"], [[2, Fraction(1, 3)], [Fraction(1, 3), -2]])
    assert lat.den == 3
    yield SWMap(lat, {(6, 0): 1, (6, 6): -1, (0, 6): 2}, 46, -30, simple_type=False)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sw_blowup_in_one_pass(k):
    cases = [(sw_closed_form(spec), (0,)) for spec in SPECS]
    cases += [(m, levels) for m in _non_simple_maps() for levels in ((0,), (0, 1), (0, 1, 2))]
    for m, levels in cases:
        for names in (None, NAMES[:k]):
            once = sw_blowup(m, levels, names, count=k)
            assert once == _iterated_sw(m, levels, k, names)
            assert (once.euler, once.signature) == (m.euler + k, m.signature - k)
        assert once.lattice.basis_names[m.lattice.rank :] == tuple(NAMES[:k])
        if m.simple_type:
            assert len(once) == (2**k) * len(m)


def test_sw_blowup_level_rule_drops_and_keeps():
    m = next(_non_simple_maps())
    up = sw_blowup(m, (0, 1), count=2)
    # dimensions 0 and 3/2 are below the level-1 cost 2; dimension 4 pays it twice
    signs = {(a, b) for a in (1, -1) for b in (1, -1)}
    assert {key[1:] for key in up.values if key[0] == 1} == signs
    assert {key[1:] for key in up.values if key[0] == 2} == signs
    odd = (1, -1, 3, -3)
    assert {key[1:] for key in up.values if key[0] == 3} == {(a, b) for a in odd for b in odd}
    assert all(sw_dim(up, key) >= 0 for key in up.values)
    with pytest.raises(ValueError):
        sw_blowup(m, count=0)
    with pytest.raises(ValueError):
        sw_blowup(m, name="k")  # already a basis name
    with pytest.raises(ValueError):
        sw_blowup(m, name=["a1"], count=2)
