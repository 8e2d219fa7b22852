from fractions import Fraction
from math import comb

import pytest

from blowdown.catalog import surgery_plan, sw_closed_form
from blowdown.exppoly import ExpKernel, sinh_c
from blowdown.lattice import ChainConfig, IntersectionLattice, diagonal_lattice
from blowdown.swinv import (
    SWMap,
    sw_blowup,
    sw_dim,
    sw_dim_shift,
    sw_en,
    sw_log_transform,
    sw_simple_type,
    sw_taut_blowdown,
    witten_check,
    witten_exponent,
    witten_kernel,
)
from blowdown.transform import ManifoldSeries

F = diagonal_lattice(["f"], [0])
FS = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])


def test_swmap_validation():
    with pytest.raises(ValueError):
        SWMap(F, {(0,): 1}, 23, -16)  # odd e + sigma
    with pytest.raises(ValueError):
        SWMap(F, {(0,): 1}, 6, -4)  # b_plus = 0
    with pytest.raises(ValueError):
        SWMap(F, {(0,): Fraction(1, 2)}, 24, -16)
    with pytest.raises(ValueError):
        SWMap(FS, {(1, 0): 1}, 48, -32)  # not characteristic
    lat = diagonal_lattice(["k"], [2])
    with pytest.raises(ValueError):
        SWMap(lat, {(2,): 1}, 46, -30)  # dimension 3/2
    with pytest.raises(ValueError):
        SWMap(lat, {(3,): 1}, 46, -30)  # dimension 4 under simple type
    m = SWMap(lat, {(3,): 1}, 46, -30, simple_type=False)
    assert sw_dim(m, (3,)) == 4
    assert not sw_simple_type(m)


def test_swmap_checks_each_class_once(monkeypatch):
    import blowdown.swinv as swinv

    calls = []
    real = swinv.characteristic_square
    monkeypatch.setattr(
        swinv, "characteristic_square", lambda lat, key: calls.append(key) or real(lat, key)
    )
    m = sw_en(6)
    assert len(calls) == len(m) == 5
    calls.clear()
    up = sw_blowup(m, (0, 1))
    # only the output map's constructor checks, once per output class
    assert len(calls) == len(up) == 10
    calls.clear()
    assert sw_dim(up, (4, 1)) == 0 and len(calls) == 1
    calls.clear()
    up3 = sw_blowup(m, count=3)
    assert len(calls) == len(up3) == 40
    lat = diagonal_lattice(["k"], [2])
    with pytest.raises(ValueError, match=r"^simple type requires a zero-dimensional moduli space, "
                       r"but class \(2,\) has dimension 3/2$"):
        SWMap(lat, {(2,): 1}, 46, -30)
    # the catalog's blowup step builds one map for all of its blowups
    built = []
    real_init = SWMap.__init__
    monkeypatch.setattr(
        SWMap, "__init__", lambda self, *a, **kw: built.append(a[0]) or real_init(self, *a, **kw)
    )
    assert [step.op for step in surgery_plan("blowup(E(6),8)").steps] == ["blowup"]
    assert len(sw_closed_form("blowup(E(6),8)")) == 5 * 2**8
    # sw_en(6) and the seed map on the ambient lattice, then one for the blowup step
    assert [lat.rank for lat in built] == [1, 1, 9]


def test_swmap_dimensions_over_a_gram_denominator():
    # Gram [[2, 1/3], [1/3, -2]] has den 3; its characteristic classes are
    # (6u, 6v), and (6, 6) squares to 24 = 3 sigma + 2 e at (e, sigma) = (0, 8)
    lat = IntersectionLattice(["a", "b"], [[2, Fraction(1, 3)], [Fraction(1, 3), -2]])
    assert lat.den == 3
    m = SWMap(lat, {(6, 6): 1, (-6, -6): 1}, 0, 8)
    assert sw_dim(m, (6, 6)) == 0 and sw_dim(m, (6, 0)) == 12 and sw_dim(m, (0, 6)) == -24
    with pytest.raises(ValueError, match=r"^class \(3, 0\) is not characteristic$"):
        sw_dim(m, (3, 0))
    with pytest.raises(ValueError, match=r"but class \(6, 0\) has dimension 12$"):
        SWMap(lat, {(6, 6): 1, (6, 0): 1}, 0, 8)
    with pytest.raises(ValueError, match=r"^basic class \(2, 0\) is not characteristic$"):
        SWMap(lat, {(2, 0): 1}, 0, 8, simple_type=False)
    up = sw_blowup(m, count=2)
    assert len(up) == 8 and all(sw_dim(up, key) == 0 for key in up.values)


def test_swmap_rejects_non_integral_keys():
    # (5/2,) used to truncate to the valid E(4) class (2,)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        SWMap(IntersectionLattice(["f"], [[0]]), {(Fraction(5, 2),): 1}, 48, -32)
    m = SWMap(F, {(Fraction(2),): 1}, 48, -32)
    assert m.values == {(2,): 1}
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        sw_dim(m, (Fraction(5, 2),))
    assert sw_dim(m, (Fraction(2),)) == 0


def test_swmap_merges_and_drops():
    m = SWMap(F, [((0,), 2), ((0,), -2), ((2,), 1)], 24, -16)
    assert m.values == {(2,): 1}
    assert m.value((0,)) == 0
    assert len(m) == 1


def test_swmap_values_are_a_read_only_integer_kernel():
    m = sw_en(4)
    assert m.values is m.kernel.num and m.kernel.den == 1
    with pytest.raises(TypeError):
        m.values[(1,)] = 7  # (1,) is not characteristic for E(4)
    with pytest.raises(AttributeError):
        m.euler = 0
    assert m.values == {(2,): 1, (0,): -2, (-2,): 1}
    assert m.lattice is m.kernel.lattice


def test_swmap_equality_and_hash():
    m = sw_en(4)
    again = SWMap(IntersectionLattice(["f"], [[0]]), [((-2,), 1), ((0,), -2), ((2,), 1)], 48, -32)
    assert again == m and hash(again) == hash(m)
    assert len({m, again}) == 1
    loose = SWMap(m.lattice, m.values, m.euler, m.signature, simple_type=False)
    assert loose != m and loose.kernel == m.kernel
    assert SWMap(m.lattice, m.values, 60, -40) != sw_en(5)


def test_swmap_sums_values_before_the_integrality_check():
    # pairs whose non-integral parts sum to an integer give an integer value
    m = SWMap(F, [((2,), Fraction(1, 2)), ((2,), Fraction(1, 2)), ((0,), 3)], 24, -16)
    assert m.values == {(2,): 1, (0,): 3}
    with pytest.raises(ValueError, match=r"^value for class \(2,\) must be an integer, got 3/2$"):
        SWMap(F, [((2,), Fraction(1, 2)), ((2,), 1), ((0,), 3)], 24, -16)
    with pytest.raises(ValueError, match=r"^value for class \(0,\) must be an integer, got 1/2$"):
        SWMap(F, {(0,): 0.5}, 24, -16)


def test_sw_en_binomials():
    for n in range(2, 7):
        m = sw_en(n)
        assert (m.euler, m.signature) == (12 * n, -8 * n)
        want = {}
        for r in range(n - 1):
            want[(n - 2 - 2 * r,)] = (-1) ** r * comb(n - 2, r)
        want = {k: v for k, v in want.items() if v}
        assert m.values == want
        assert sw_simple_type(m)
        assert all(sw_dim(m, c) == 0 for c in m.basic_classes())
    with pytest.raises(ValueError):
        sw_en(1)


def test_sw_blowup_levels():
    m = sw_blowup(sw_en(2))
    assert tuple(m.lattice.basis_names) == ("f", "e1")
    assert m.values == {(0, 1): 1, (0, -1): 1}
    assert (m.euler, m.signature) == (25, -17)
    # level 1 needs dimension at least k(k+1) = 2, so it contributes nothing
    m = sw_blowup(sw_en(3), k_levels=(0, 1))
    assert m.values == {(1, 1): 1, (1, -1): 1, (-1, 1): -1, (-1, -1): -1}
    with pytest.raises(ValueError):
        sw_blowup(sw_en(2), k_levels=(-1,))


def test_sw_log_transform_examples():
    out = sw_log_transform(sw_en(2), F.basis_class("f"), 3)
    assert tuple(out.lattice.basis_names) == ("f_3",)
    assert out.values == {(2,): 1, (0,): 1, (-2,): 1}
    assert (out.euler, out.signature) == (24, -16)
    m3 = sw_en(3)
    out = sw_log_transform(m3, m3.lattice.basis_class("f"), 2)
    assert out.values == {(3,): 1, (1,): 1, (-1,): -1, (-3,): -1}


def test_sw_log_transform_collision():
    m = SWMap(F, {(1,): 1, (2,): 1}, 24, -16)
    with pytest.raises(ValueError):
        sw_log_transform(m, F.basis_class("f"), 2)


def test_sw_taut_blowdown_w_route():
    vals = {(2, 0): 1, (0, 0): -2, (-2, 0): 1}
    m = SWMap(FS, vals, 48, -32)
    out = sw_taut_blowdown(m, ChainConfig(2, FS, [FS.basis_class("s")]), image_names=["k"]).result
    assert tuple(out.lattice.basis_names) == ("k",)
    assert out.lattice.gram[0][0] == 1
    assert out.values == {(1,): 1, (-1,): 1}  # values carried unchanged
    assert (out.euler, out.signature) == (47, -31)


def test_sw_taut_blowdown_partial_pairing_records_drops():
    # order-3 chain: one -2 sphere then the -5 end sphere meeting the fiber
    lat = IntersectionLattice(
        ["f", "a", "s"], [[0, 0, 1], [0, -2, 1], [1, 1, -5]]
    )
    vals = {(3, 0, 0): 1, (1, 0, 0): -3, (-1, 0, 0): 3, (-3, 0, 0): -1}
    m = SWMap(lat, vals, 60, -40)
    cfg = ChainConfig(3, lat, [lat.basis_class("a"), lat.basis_class("s")])
    res = sw_taut_blowdown(m, cfg, image_names=["lam"])
    # the two middle classes admit no extension; the outer two meet the end sphere in +-3
    why = "with the end sphere admits no extension across the blowdown"
    assert [(r.source, r.status, r.reason) for r in res.class_map] == [
        ((-3, 0, 0), "kept", "meets the end sphere in -3"),
        ((-1, 0, 0), "dropped", f"pairing -1 {why}"),
        ((1, 0, 0), "dropped", f"pairing 1 {why}"),
        ((3, 0, 0), "kept", "meets the end sphere in 3"),
    ]
    out = res.result
    assert set(out.values.values()) == {1, -1}
    assert len(out) == 2
    assert (out.euler, out.signature) == (58, -38)


def test_sw_taut_blowdown_rejects_untaut():
    vals = {(6, 0): 1, (-6, 0): 1}
    m = SWMap(FS, vals, 48, -32)
    with pytest.raises(ValueError):
        sw_taut_blowdown(m, ChainConfig(2, FS, [FS.basis_class("s")]))


def test_sw_dim_shift():
    assert sw_dim_shift(2, 1) == 0
    assert sw_dim_shift(5, 1) == 0
    assert sw_dim_shift(2, 3) == 2
    assert sw_dim_shift(3, 5) == 12
    with pytest.raises(ValueError):
        sw_dim_shift(3, 2)


def test_witten_exponent():
    assert witten_exponent(24, -16) == 0
    assert witten_exponent(36, -24) == -1
    assert witten_exponent(48, -32) == -2
    with pytest.raises(ValueError):
        witten_exponent(25, -16)


def test_witten_kernel_and_check():
    m3 = sw_en(3)
    f = m3.lattice.basis_class("f")
    assert witten_kernel(m3) == sinh_c(f)
    series = ManifoldSeries(sinh_c(f), 36, -24)
    assert witten_check(series, m3)
    # corrupt one value: same support, wrong kernel
    bad = SWMap(m3.lattice, {(1,): 2, (-1,): -1}, 36, -24)
    assert not witten_check(series, bad)
    with pytest.raises(ValueError):
        witten_check(ManifoldSeries(sinh_c(f), 36, -24), sw_en(4))  # charnum mismatch
    for spec in ("E(4)", "E(2;2,3)", "W(2)", "blowup(E(3),2)"):
        m = sw_closed_form(spec)
        c = witten_exponent(m.euler, m.signature)
        assert witten_kernel(m) == m.kernel.scale(Fraction(2) ** c)
    g_lat = diagonal_lattice(["g"], [0])
    other = ManifoldSeries(sinh_c(g_lat.basis_class("g")), 36, -24)
    with pytest.raises(ValueError):
        witten_check(other, m3)  # lattice mismatch
