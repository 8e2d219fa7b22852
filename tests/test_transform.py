import random
from fractions import Fraction
from operator import mul

import pytest

from blowdown.exppoly import ExpKernel, cosh_c, one, sinh_c
from blowdown.lattice import HClass, IntersectionLattice, QClass, pairing
from blowdown.chain_surgery import ChainConfig, _extension, restrict_class, taut_blowdown
from blowdown.nodal import (
    _exceptional_chain_spheres,
    connected_sum_hp,
    formal_log_coefficients,
    nodal_log_pipeline,
    p2_blowdown,
    verify_nodal_matrix_identity,
)
from blowdown.plumbing import scaled_plumbing_inverse
from blowdown.transform import ManifoldSeries, blowup, blown_up_lattice, log_transform
from lattices import chain_lattice, diagonal_lattice

FS = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])


def _en(n, lat=None):
    lat = lat or diagonal_lattice(["f"], [0])
    f = lat.basis_class(lat.basis_names[0])
    k = one(lat)
    for _ in range(n - 2):
        k = k * sinh_c(f)
    return ManifoldSeries(k, 12 * n, -8 * n)


def _e4_fs():
    return _en(4, FS)


def test_series_validation():
    lat = diagonal_lattice(["f"], [0])
    with pytest.raises(ValueError):
        ManifoldSeries(one(lat), 23, -16)  # b_plus would be even
    with pytest.raises(ValueError):
        # (1, 0) pairs oddly with s while s^2 is even: not characteristic
        ManifoldSeries(ExpKernel(FS, {(1, 0): Fraction(1)}), 48, -32)
    # the first bad class in sorted order is named, whatever the insertion order
    with pytest.raises(ValueError, match=r"^kernel class \(1, 0\) is not characteristic$"):
        ManifoldSeries(ExpKernel(FS, {(3, 0): 1, (0, 0): 1, (1, 0): 1}), 48, -32)


def test_series_and_fiber_checks_name_the_smallest_bad_class():
    # on FS the characteristic classes are (even, even), and f pairs with (a, b) to b
    good = [(2 * a, 2 * b) for a in range(-30, 30) for b in range(-30, 30)]
    mixed = good + [(5, 2), (1, -8), (2, 7), (-3, 0)]
    random.Random(5).shuffle(mixed)
    with pytest.raises(ValueError, match=r"^kernel class \(-3, 0\) is not characteristic$"):
        ManifoldSeries(ExpKernel(FS, dict.fromkeys(mixed, 1)), 48, -32)
    kernel = ExpKernel(FS, {(4, 2): 1, (0, 0): 1, (2, -2): 1, (-6, 0): 1, (2, 4): 1})
    m = ManifoldSeries(kernel, 48, -32)
    for route in (log_transform, nodal_log_pipeline):
        with pytest.raises(ValueError, match=r"^class \(2, -2\) is not orthogonal to the fiber$"):
            route(m, FS.basis_class("f"), 3)


def test_series_charnums():
    m = _en(3)
    assert (m.euler, m.signature, m.b_plus) == (36, -24, 5)
    assert m.basic_classes() == [HClass(m.lattice, key) for key, _ in m.kernel.sorted_terms()]


def test_blowup_multiplies_by_cosh():
    m = _en(2)
    up = blowup(m, 2)
    assert tuple(up.lattice.basis_names) == ("f", "e1", "e2")
    assert (up.euler, up.signature) == (26, -18)
    e1 = up.lattice.basis_class("e1")
    e2 = up.lattice.basis_class("e2")
    assert up.kernel == cosh_c(e1) * cosh_c(e2)
    with pytest.raises(ValueError):
        blowup(m, 0)


def test_restrict_class_w_chain():
    m = _e4_fs()
    s = FS.basis_class("s")
    cfg = ChainConfig(2, FS, [s])
    f = FS.basis_class("f")
    r = restrict_class(cfg, f * 2)
    assert r.extension == (8, 2)  # (2, 1/2) over det = 4
    ext = QClass(FS, [Fraction(a, r.boundary.modulus) for a in r.extension])
    assert pairing(ext, ext) == 1  # 0 + (p-1)
    assert r.boundary.value == 2 and r.boundary.modulus == 4
    assert r.boundary.in_subgroup(2)


def test_taut_blowdown_w_chain():
    m = _e4_fs()
    cfg = ChainConfig(2, FS, [FS.basis_class("s")])
    res = taut_blowdown(m, cfg, image_names=["k"])
    out = res.result
    assert tuple(out.lattice.basis_names) == ("k",)
    assert (out.lattice.num, out.lattice.den) == (((1,),), 1)
    assert (out.euler, out.signature) == (47, -31)
    # survivors get 2^(p-1) = 2, the orthogonal class drops
    assert out.kernel.sorted_terms() == [((-1,), Fraction(1, 2)), ((1,), Fraction(1, 2))]
    statuses = {rec.source: rec.status for rec in res.class_map}
    assert statuses == {(2, 0): "kept", (0, 0): "dropped", (-2, 0): "kept"}
    dropped = next(r for r in res.class_map if r.status == "dropped")
    assert dropped.image is None and dropped.extension is None


def test_taut_blowdown_rejects_untaut():
    terms = {(6, 0): Fraction(1), (-6, 0): Fraction(1)}
    m = ManifoldSeries(ExpKernel(FS, terms), 48, -32)
    cfg = ChainConfig(2, FS, [FS.basis_class("s")])
    with pytest.raises(ValueError):
        taut_blowdown(m, cfg)


def test_p2_blowdown_agrees_with_taut():
    rng = random.Random(23)
    s = FS.basis_class("s")
    # characteristic pool: 2a f + 2b s with |pairing against s| <= 2
    pool = []
    for a in range(-4, 5):
        for b in range(-1, 2):
            if abs(2 * a - 8 * b) <= 2:
                pool.append((2 * a, 2 * b))
    cfg = ChainConfig(2, FS, [s])
    for _ in range(10):
        picks = rng.sample(pool, 4)
        terms = {}
        for key in picks:
            terms[key] = terms.get(key, Fraction(0)) + Fraction(rng.randint(-3, 3))
        m = ManifoldSeries(ExpKernel(FS, terms), 48, -32)
        a_res = taut_blowdown(m, cfg)
        b_res = p2_blowdown(m, s)
        assert a_res.result == b_res.result


def test_p2_blowdown_validates_sphere():
    m = _en(2, FS)
    with pytest.raises(ValueError):
        p2_blowdown(m, FS.basis_class("f"))


def test_formal_log_coefficients_all_ones():
    for p in range(1, 8):
        ladder = formal_log_coefficients(p)
        assert [e for e, _ in ladder] == list(range(p - 1, -p, -2))
        assert all(c == 1 for _, c in ladder)
        assert sum(c for _, c in ladder) == p


def test_log_transform_examples():
    m2 = _en(2)
    f = m2.lattice.basis_class("f")
    out = log_transform(m2, f, 2)
    assert tuple(out.lattice.basis_names) == ("f_2",)
    assert out.kernel.sorted_terms() == [((-1,), Fraction(1)), ((1,), Fraction(1))]
    m3 = _en(3)
    out = log_transform(m3, m3.lattice.basis_class("f"), 2)
    assert out.kernel.sorted_terms() == [
        ((-3,), Fraction(-1, 2)),
        ((-1,), Fraction(-1, 2)),
        ((1,), Fraction(1, 2)),
        ((3,), Fraction(1, 2)),
    ]
    assert (out.euler, out.signature) == (36, -24)


def test_log_transform_order_one_is_identity():
    m = _en(3)
    f = m.lattice.basis_class("f")
    assert log_transform(m, f, 1) == m


def test_log_transform_multiplicity_and_naming():
    m = _en(2)
    f = m.lattice.basis_class("f")
    first = log_transform(m, f, 3)
    assert tuple(first.lattice.basis_names) == ("f_3",)
    # the fiber is now 3 f_3; a second transform of coprime order refines again
    fiber = first.lattice.basis_class("f_3") * 3
    second = log_transform(first, fiber, 2)
    assert tuple(second.lattice.basis_names) == ("f_6",)
    # non-coprime second transform on the same fiber is rejected upstream by
    # the catalog; here gcd(3, 3) = 3 gives d = 1 and no refinement
    third = log_transform(first, fiber, 3)
    assert tuple(third.lattice.basis_names) == ("f_3",)


def test_nodal_pipeline_matches_direct():
    for n in (2, 3):
        m = _en(n)
        f = m.lattice.basis_class("f")
        for p in range(2, 26):
            assert nodal_log_pipeline(m, f, p) == log_transform(m, f, p)


def test_nodal_matrix_identity():
    for p in range(2, 8):
        assert verify_nodal_matrix_identity(p)


def test_connected_sum_hp():
    m = _en(3)
    out = connected_sum_hp(m, 5)
    assert out.kernel == m.kernel * 5
    assert (out.euler, out.signature) == (m.euler, m.signature)
    with pytest.raises(ValueError):
        connected_sum_hp(m, 0)


def test_extension_solve_matches_scaled_plumbing_inverse():
    """_extension's prefix and suffix sums give x = -S g / p^2 with
    S = scaled_plumbing_inverse(p), for p = 2..59 on random integer g: on the
    chain lattice (each sphere one basis vector) and on an exceptional chain,
    whose end sphere has p-1 nonzero coordinates."""
    rng = random.Random(18)
    for p in range(2, 60):
        s = scaled_plumbing_inverse(p)
        chain = chain_lattice(p)
        up = blown_up_lattice(diagonal_lattice(["f"], [0]), p - 1)
        fiber = (1,) + (0,) * (p - 1)
        configs = [
            ChainConfig(p, chain, [chain.basis_class(nm) for nm in chain.basis_names]),
            ChainConfig(p, up, _exceptional_chain_spheres(up, up.basis_names[1:], fiber)),
        ]
        for cfg in configs:
            rank = cfg.ambient.rank
            for _ in range(3):
                g = [rng.randint(-3 * p, 3 * p) for _ in range(p - 1)]
                kappa = HClass(cfg.ambient, tuple(rng.randint(-3, 3) for _ in range(rank)))
                want = [p * p * a for a in kappa.coeffs]
                for row, u in zip(s, cfg.supports):
                    x = -sum(map(mul, row, g))
                    for i, b in u:
                        want[i] += x * b
                assert list(_extension(cfg, kappa, g)) == want
