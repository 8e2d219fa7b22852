"""One-pass blowups against k iterated single blowups, in both calculi.

`transform.blowup(m, k)` writes the product of k cosh factors out in one
pass and `swinv.sw_blowup(m, count=k)` copies each value to the 2^k sign
patterns in one pass; both append the tails of `transform.sign_vectors`.
Each must equal k single blowups, exceptional names included: from the
second single blowup on, the default names e1, e2, ... must skip the names
the earlier ones took.  The series side is also checked against the explicit
kernel product, and the SW side also runs on a lattice with Gram
denominator 3.
"""

from fractions import Fraction

import pytest

from blowdown.catalog import donaldson_closed_form, sw_closed_form
from blowdown.exppoly import ExpKernel, cosh_c
from blowdown.lattice import IntersectionLattice
from blowdown.swinv import SWMap, sw_blowup, sw_dim
from blowdown.transform import ManifoldSeries, blowup, blown_up_lattice

SPECS = ["E(2)", "E(5)", "E(4;2,3)", "E(3;2,5)"]


def _exceptional_names(k):
    return tuple(f"e{i}" for i in range(1, k + 1))


def _cosh_product(m, k):
    lat = blown_up_lattice(m.lattice, k)
    pad = (0,) * k
    kernel = ExpKernel(lat, {key + pad: c for key, c in m.kernel.terms.items()})
    for name in lat.basis_names[m.lattice.rank :]:
        kernel = kernel * cosh_c(lat.basis_class(name))
    return ManifoldSeries(kernel, m.euler + k, m.signature - k)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_series_blowup_in_one_pass(spec, k):
    m = donaldson_closed_form(spec)
    once = blowup(m, k)
    step = m
    for _ in range(k):
        step = blowup(step, 1)
    assert once == step == _cosh_product(m, k)
    assert len(once.kernel) == (2**k) * len(m.kernel)
    assert once.lattice.basis_names[m.lattice.rank :] == _exceptional_names(k)


def _gram_den_map():
    # Gram [[2, 1/3], [1/3, -2]] has den 3; its characteristic classes are
    # (6u, 6v), and (6, 6) squares to 24 = 3 sigma + 2 e at (e, sigma) = (0, 8)
    lat = IntersectionLattice(["a", "b"], [[2, Fraction(1, 3)], [Fraction(1, 3), -2]])
    assert lat.den == 3
    return SWMap(ExpKernel(lat, {(6, 6): 1, (-6, -6): -2}), 0, 8)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sw_blowup_in_one_pass(k):
    for m in [sw_closed_form(spec) for spec in SPECS] + [_gram_den_map()]:
        once = sw_blowup(m, count=k)
        step = m
        for _ in range(k):
            step = sw_blowup(step)
        assert once == step
        assert (once.euler, once.signature) == (m.euler + k, m.signature - k)
        assert len(once.values) == (2**k) * len(m.values)
        assert all(sw_dim(once, key) == 0 for key in once.values)
        assert once.lattice.basis_names[m.lattice.rank :] == _exceptional_names(k)
