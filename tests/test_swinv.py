import gc
from fractions import Fraction
from math import comb

import pytest

from blowdown.catalog import surgery_plan, sw_closed_form
from blowdown.exppoly import ExpKernel, sinh_c
from blowdown.lattice import ChainConfig, IntersectionLattice
from blowdown.swinv import (
    SWMap,
    sw_blowup,
    sw_dim,
    sw_en,
    sw_log_transform,
    sw_taut_blowdown,
    witten_check,
    witten_diff,
    witten_exponent,
)
from blowdown.transform import ManifoldSeries
from lattices import diagonal_lattice

F = diagonal_lattice(["f"], [0])
FS = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])


def test_swmap_validation():
    with pytest.raises(ValueError):
        SWMap(ExpKernel(F, {(0,): 1}), 23, -16)  # odd e + sigma
    with pytest.raises(ValueError):
        SWMap(ExpKernel(F, {(0,): 1}), 6, -4)  # b_plus = 0
    with pytest.raises(ValueError):
        SWMap(ExpKernel(F, {(0,): Fraction(1, 2)}), 24, -16)
    with pytest.raises(ValueError):
        SWMap(ExpKernel(FS, {(1, 0): 1}), 48, -32)  # not characteristic
    lat = diagonal_lattice(["k"], [2])
    with pytest.raises(ValueError):
        SWMap(ExpKernel(lat, {(2,): 1}), 46, -30)  # dimension 3/2
    with pytest.raises(ValueError):
        SWMap(ExpKernel(lat, {(3,): 1}), 46, -30)  # dimension 4
    # the map is of simple type; sw_dim still measures any characteristic class
    m = SWMap(ExpKernel(lat, {(1,): 1, (-1,): -1}), 46, -30)
    assert sw_dim(m, (1,)) == 0 and sw_dim(m, (3,)) == 4 and sw_dim(m, (2,)) == Fraction(3, 2)


def test_swmap_checks_each_class_once(monkeypatch):
    import blowdown.swinv as swinv

    # one entry per class handed to the characteristic test, sw_dim's included
    calls = []
    real = swinv.characteristic_squares
    monkeypatch.setattr(
        swinv, "characteristic_squares", lambda lat, keys: calls.extend(keys) or real(lat, keys)
    )
    m = sw_en(6)
    assert len(calls) == len(m.values) == 5
    calls.clear()
    up = sw_blowup(m)
    # only the output map's constructor checks, once per output class
    assert len(calls) == len(up.values) == 10
    calls.clear()
    assert sw_dim(up, (4, 1)) == 0 and len(calls) == 1
    calls.clear()
    up3 = sw_blowup(m, count=3)
    assert len(calls) == len(up3.values) == 40
    lat = diagonal_lattice(["k"], [2])
    with pytest.raises(ValueError, match=r"^simple type requires a zero-dimensional moduli space, "
                       r"but class \(2,\) has dimension 3/2$"):
        SWMap(ExpKernel(lat, {(2,): 1}), 46, -30)
    # the sw route blows up once for all of a plan's blowups; every map, the
    # rules' included, is validated by its one constructor
    built = []
    real_init = SWMap.__init__
    monkeypatch.setattr(
        SWMap, "__init__", lambda self, k, *a: built.append(k.lattice) or real_init(self, k, *a)
    )
    plan = surgery_plan("blowup(E(6),8)")
    assert (plan.steps, plan.blowups) == ((), 8)
    assert len(sw_closed_form("blowup(E(6),8)").values) == 5 * 2**8
    # sw_en(6) and the seed map on the ambient lattice, then one for the blowups
    assert [lat.rank for lat in built] == [1, 1, 9]


def test_witten_builds_every_map_through_the_constructor(capsys, monkeypatch):
    from blowdown.cli import main

    # wrapped on the class, as the benchmark's tracer wraps a constructor
    ranks = []
    real = vars(SWMap)["__init__"]

    def wrapper(self, kernel, *args):
        ranks.append(kernel.lattice.rank)
        return real(self, kernel, *args)

    monkeypatch.setattr(SWMap, "__init__", wrapper)
    assert main(["witten", "H(8)"]) == 0
    assert capsys.readouterr().out == "PASS witten H(8) (exponent 4)\n"
    # sw_en(8), the seed map on the ambient lattice (f and two chains of five
    # spheres), then the map after each of the two chain steps
    assert ranks == [1, 11, 6, 1]


def test_swmap_dimensions_over_a_gram_denominator():
    # Gram [[2, 1/3], [1/3, -2]] has den 3; its characteristic classes are
    # (6u, 6v), and (6, 6) squares to 24 = 3 sigma + 2 e at (e, sigma) = (0, 8)
    lat = IntersectionLattice(["a", "b"], [[2, Fraction(1, 3)], [Fraction(1, 3), -2]])
    assert lat.den == 3
    m = SWMap(ExpKernel(lat, {(6, 6): 1, (-6, -6): 1}), 0, 8)
    assert sw_dim(m, (6, 6)) == 0 and sw_dim(m, (6, 0)) == 12 and sw_dim(m, (0, 6)) == -24
    with pytest.raises(ValueError, match=r"^class \(3, 0\) is not characteristic$"):
        sw_dim(m, (3, 0))
    with pytest.raises(ValueError, match=r"but class \(6, 0\) has dimension 12$"):
        SWMap(ExpKernel(lat, {(6, 6): 1, (6, 0): 1}), 0, 8)
    with pytest.raises(ValueError, match=r"^basic class \(2, 0\) is not characteristic$"):
        SWMap(ExpKernel(lat, {(2, 0): 1}), 0, 8)
    up = sw_blowup(m, count=2)
    assert len(up.values) == 8 and all(sw_dim(up, key) == 0 for key in up.values)


def test_swmap_names_the_first_bad_class_in_insertion_order():
    # on f^2 = 0, e1^2 = -1 at (e, sigma) = (49, -33) the basic classes are (a, +-1);
    # (5, 3) is characteristic of dimension -2, (-7, 2) is not characteristic
    lat = diagonal_lattice(["f", "e1"], [0, -1])
    good = [((a, s), 1) for a in range(-2000, 2000) for s in (-1, 1)]
    assert len(SWMap(ExpKernel(lat, good), 49, -33).values) == 8000
    wrong_dim = (r"^simple type requires a zero-dimensional moduli space, "
                 r"but class \(5, 3\) has dimension -2$")
    not_char = r"^basic class \(-7, 2\) is not characteristic$"
    for first, second, message in [((5, 3), (-7, 2), wrong_dim), ((-7, 2), (5, 3), not_char)]:
        values = dict(good[:4000] + [(first, 1), (second, -1)] + good[4000:])
        with pytest.raises(ValueError, match=message):
            SWMap(ExpKernel(lat, values), 49, -33)
    # the fiber check names the smallest class that meets f
    m = SWMap(ExpKernel(FS, {(4, 2): 1, (0, 0): 1, (-4, -2): 1, (2, 0): 1}), 48, -32)
    with pytest.raises(ValueError, match=r"^class \(-4, -2\) is not orthogonal to the fiber$"):
        sw_log_transform(m, FS.basis_class("f"), 3)


def test_swmap_rejects_non_integral_keys():
    # (5/2,) used to truncate to the valid E(4) class (2,)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        SWMap(ExpKernel(IntersectionLattice(["f"], [[0]]), {(Fraction(5, 2),): 1}), 48, -32)
    m = SWMap(ExpKernel(F, {(Fraction(2),): 1}), 48, -32)
    assert m.values == {(2,): 1}
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        sw_dim(m, (Fraction(5, 2),))
    assert sw_dim(m, (Fraction(2),)) == 0


def test_swmap_merges_and_drops():
    m = SWMap(ExpKernel(F, [((0,), 2), ((0,), -2), ((2,), 1)]), 24, -16)
    assert m.values == {(2,): 1}


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
    again = SWMap(
        ExpKernel(IntersectionLattice(["f"], [[0]]), [((-2,), 1), ((0,), -2), ((2,), 1)]), 48, -32
    )
    assert again == m and hash(again) == hash(m)
    assert len({m, again}) == 1
    assert SWMap(ExpKernel(m.lattice, m.values), 60, -40) != sw_en(5)


def test_swmap_sums_values_before_the_integrality_check():
    # pairs whose non-integral parts sum to an integer give an integer value
    m = SWMap(ExpKernel(F, [((2,), Fraction(1, 2)), ((2,), Fraction(1, 2)), ((0,), 3)]), 24, -16)
    assert m.values == {(2,): 1, (0,): 3}
    with pytest.raises(ValueError, match=r"^value for class \(2,\) must be an integer, got 3/2$"):
        SWMap(ExpKernel(F, [((2,), Fraction(1, 2)), ((2,), 1), ((0,), 3)]), 24, -16)
    with pytest.raises(ValueError, match=r"^value for class \(0,\) must be an integer, got 1/2$"):
        SWMap(ExpKernel(F, {(0,): 0.5}), 24, -16)


def test_sw_en_binomials():
    for n in range(2, 7):
        m = sw_en(n)
        assert (m.euler, m.signature) == (12 * n, -8 * n)
        want = {}
        for r in range(n - 1):
            want[(n - 2 - 2 * r,)] = (-1) ** r * comb(n - 2, r)
        want = {k: v for k, v in want.items() if v}
        assert m.values == want
        assert all(sw_dim(m, c) == 0 for c in m.basic_classes())
    with pytest.raises(ValueError):
        sw_en(1)


def test_sw_blowup_examples():
    m = sw_blowup(sw_en(2))
    assert tuple(m.lattice.basis_names) == ("f", "e1")
    assert m.values == {(0, 1): 1, (0, -1): 1}
    assert (m.euler, m.signature) == (25, -17)
    m = sw_blowup(sw_en(3))
    assert m.values == {(1, 1): 1, (1, -1): 1, (-1, 1): -1, (-1, -1): -1}
    # the classes L + (+-3) have dimension -2, so a simple-type map refuses them
    with pytest.raises(ValueError, match=r"has dimension -2$"):
        SWMap(ExpKernel(m.lattice, {(1, 3): 1}), m.euler, m.signature)
    with pytest.raises(ValueError, match=r"^blowup count must be >= 1$"):
        sw_blowup(sw_en(2), count=0)


def test_sw_log_transform_examples():
    out = sw_log_transform(sw_en(2), F.basis_class("f"), 3)
    assert tuple(out.lattice.basis_names) == ("f_3",)
    assert out.values == {(2,): 1, (0,): 1, (-2,): 1}
    assert (out.euler, out.signature) == (24, -16)
    m3 = sw_en(3)
    out = sw_log_transform(m3, m3.lattice.basis_class("f"), 2)
    assert out.values == {(3,): 1, (1,): 1, (-1,): -1, (-3,): -1}


def test_sw_log_transform_collision():
    m = SWMap(ExpKernel(F, {(1,): 1, (2,): 1}), 24, -16)
    with pytest.raises(ValueError):
        sw_log_transform(m, F.basis_class("f"), 2)


def test_sw_taut_blowdown_w_route():
    vals = {(2, 0): 1, (0, 0): -2, (-2, 0): 1}
    m = SWMap(ExpKernel(FS, vals), 48, -32)
    out = sw_taut_blowdown(m, ChainConfig(2, FS, [FS.basis_class("s")]), image_names=["k"]).result
    assert tuple(out.lattice.basis_names) == ("k",)
    assert (out.lattice.num, out.lattice.den) == (((1,),), 1)
    assert out.values == {(1,): 1, (-1,): 1}  # values carried unchanged
    assert (out.euler, out.signature) == (47, -31)


def test_sw_taut_blowdown_partial_pairing_records_drops():
    # order-3 chain: one -2 sphere then the -5 end sphere meeting the fiber
    lat = IntersectionLattice(
        ["f", "a", "s"], [[0, 0, 1], [0, -2, 1], [1, 1, -5]]
    )
    vals = {(3, 0, 0): 1, (1, 0, 0): -3, (-1, 0, 0): 3, (-3, 0, 0): -1}
    m = SWMap(ExpKernel(lat, vals), 60, -40)
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
    assert len(out.values) == 2
    assert (out.euler, out.signature) == (58, -38)


def test_sw_taut_blowdown_rejects_untaut():
    vals = {(6, 0): 1, (-6, 0): 1}
    m = SWMap(ExpKernel(FS, vals), 48, -32)
    with pytest.raises(ValueError):
        sw_taut_blowdown(m, ChainConfig(2, FS, [FS.basis_class("s")]))


def test_witten_exponent():
    assert witten_exponent(24, -16) == 0
    assert witten_exponent(36, -24) == -1
    assert witten_exponent(48, -32) == -2
    with pytest.raises(ValueError):
        witten_exponent(25, -16)


def test_witten_kernel_and_check():
    # the predicted kernel 2^c sum_L value(L) e^L is checked through witten_check
    m3 = sw_en(3)
    f = m3.lattice.basis_class("f")
    series = ManifoldSeries(sinh_c(f), 36, -24)
    assert witten_check(series, m3)
    assert not witten_check(ManifoldSeries(sinh_c(f).scale(2), 36, -24), m3)
    # corrupt one value: same support, wrong kernel
    bad = SWMap(ExpKernel(m3.lattice, {(1,): 2, (-1,): -1}), 36, -24)
    assert not witten_check(series, bad)
    with pytest.raises(ValueError):
        witten_check(ManifoldSeries(sinh_c(f), 36, -24), sw_en(4))  # charnum mismatch
    for spec in ("E(4)", "E(2;2,3)", "W(2)", "blowup(E(3),2)"):
        m = sw_closed_form(spec)
        c = witten_exponent(m.euler, m.signature)
        exact = ManifoldSeries(m.kernel.scale(Fraction(2) ** c), m.euler, m.signature)
        off = ManifoldSeries(m.kernel.scale(Fraction(2) ** (c + 1)), m.euler, m.signature)
        assert witten_check(exact, m) and not witten_check(off, m)
    g_lat = diagonal_lattice(["g"], [0])
    other = ManifoldSeries(sinh_c(g_lat.basis_class("g")), 36, -24)
    with pytest.raises(ValueError):
        witten_check(other, m3)  # lattice mismatch


def test_witten_diff_names_the_first_differing_class():
    m3 = sw_en(3)
    f = m3.lattice.basis_class("f")
    series = ManifoldSeries(sinh_c(f), 36, -24)
    assert witten_diff(series, m3) is None
    # 2^c = 1/2: (-1,) is predicted at -1/2 and (1,) at 1 instead of 1/2
    bad = SWMap(ExpKernel(m3.lattice, {(1,): 2, (-1,): -1}), 36, -24)
    assert witten_diff(series, bad) == ((1,), Fraction(1, 2), Fraction(1))
    # a class on one side only counts as 0 on the other, in sorted order
    extra = SWMap(ExpKernel(m3.lattice, {(3,): 1, (1,): 1, (-1,): -1}), 36, -24)
    assert witten_diff(series, extra) == ((3,), Fraction(0), Fraction(1, 2))
    short = SWMap(ExpKernel(m3.lattice, {(1,): 1}), 36, -24)
    assert witten_diff(series, short) == ((-1,), Fraction(-1, 2), Fraction(0))
    # E(4) has c = -2: one value off by one moves its prediction by 1/4
    m = sw_closed_form("E(4)")
    c = witten_exponent(m.euler, m.signature)
    key = min(m.values)
    wrong = dict(m.values)
    wrong[key] += 1
    off = SWMap(ExpKernel(m.lattice, wrong), m.euler, m.signature)
    series = ManifoldSeries(m.kernel.scale(Fraction(2) ** c), m.euler, m.signature)
    assert witten_diff(series, off) == (
        key,
        Fraction(m.values[key]) * Fraction(2) ** c,
        Fraction(wrong[key]) * Fraction(2) ** c,
    )


def test_swmaps_never_share_their_dicts():
    def storage(m):
        (store,) = gc.get_referents(m.values)
        return store

    d = {(1,): 1, (-1,): -1}
    m = SWMap(ExpKernel(F, d), 36, -24)
    d[(1,)] = 5
    d[(3,)] = 1
    assert dict(m.values) == {(1,): 1, (-1,): -1} and storage(m) is not d
    m = sw_en(5)
    f = m.lattice.basis_class("f")
    for out in (sw_blowup(m), sw_blowup(m, 3), sw_log_transform(m, f, 3)):
        assert storage(out) is not storage(m)
