"""End-to-end acceptance checks.

Each test covers one numbered criterion, uses exact rational arithmetic
throughout, and prints a single PASS line on success (visible under -rP).
The whole file is budgeted to run in well under a minute.
"""

import itertools
from fractions import Fraction
from math import comb

from blowdown.catalog import (
    donaldson_closed_form,
    donaldson_pipeline,
    surgery_plan,
    sw_closed_form,
)
from blowdown.exppoly import ExpKernel, cosh_c, one, sinh_c, zero
from blowdown.lattice import HClass, IntersectionLattice, pairing
from blowdown.moduli import (
    CanonicalClass,
    canonical_tb,
    dim_moduli,
    e_square,
    verify_boundary_value_lemmas,
)
from blowdown.plumbing import chain_plumbing, scaled_plumbing_inverse
from blowdown.suites import witten_specs
from blowdown.swinv import sw_dim, sw_en, sw_log_transform, sw_taut_blowdown, witten_check, witten_exponent
from blowdown.chain_surgery import ChainConfig, restrict_class, taut_blowdown
from blowdown.nodal import (
    _exceptional_chain_spheres,
    connected_sum_hp,
    formal_log_coefficients,
    p2_blowdown,
    verify_nodal_matrix_identity,
)
from blowdown.transform import ManifoldSeries, blowup, log_transform
from lattices import diagonal_lattice

F = diagonal_lattice(["f"], [0])


def _report(idx, label):
    print(f"PASS [{idx:2d}] {label}")


def test_01_plumbing_inverse():
    for p in range(2, 51):
        # P S = p^2 I in ints, S = p^2 P^-1
        n, pm, s = p - 1, chain_plumbing(p).matrix(), scaled_plumbing_inverse(p)
        prod = [[sum(pm[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[p * p if i == j else 0 for j in range(n)] for i in range(n)]
    _report(1, "plumbing inverse exact for p = 2..50")


def test_02_canonical_dimension():
    # Expected values come from e_square and canonical_tb alone, never from
    # corr or dim_moduli.  The boundary value (p-1)t+b stays below p^2 exactly
    # when t <= p, and there the anchoring gives 2t-1.  Past that it wraps mod
    # p^2: the class shares its flat connection on L(p^2, p-1) with the reduced
    # step class e0 = <t0, t0+1; b0>, so the index theorem leaves only the
    # squares to differ, dim(e) = dim(e0) - 2(e^2 - e0^2); trivial boundary
    # gives -2e^2 - 3.  Seven wrapped points differ from 2t-1 (p = 3,
    # <4,5;2> has boundary 10 = 1 mod 9 and dimension -1 + 10 = 9, not 7).
    anchored = wrapped = 0
    for p in range(2, 10):
        for t in range(6):
            for b in range(1, p):
                m = (p - 1) * t + b
                assert (m >= p * p) == (t > p), (p, t, b)
                if t <= p:
                    want = 2 * t - 1
                    anchored += 1
                else:
                    reduced = canonical_tb(p, m)
                    if reduced is None:
                        want = -2 * e_square(p, t, b) - 3
                    else:
                        t0, b0 = reduced
                        assert t0 <= p, (p, t, b, t0)
                        want = (2 * t0 - 1) - 2 * (e_square(p, t, b) - e_square(p, t0, b0))
                    wrapped += 1
                d = dim_moduli(CanonicalClass(p, t, b).rel_class())
                assert d == want, (p, t, b, d, want)
    assert (anchored, wrapped) == (206, 10)
    _report(
        2,
        f"step-class moduli dimension for p = 2..9, t = 0..5: 2t-1 at {anchored} "
        f"points with t <= p, equal- or trivial-boundary value at {wrapped} wrapped points",
    )


def test_03_boundary_value_lemmas():
    for p in range(2, 10):
        reports = verify_boundary_value_lemmas(p, t_max=2, box=4)
        assert reports
        for r in reports:
            assert r.passed, (p, r.name, r.counterexamples)
            assert not r.counterexamples
    _report(3, "boundary-value lemmas exhaustive for p = 2..9, box 4")


def test_04_nodal_chain_machinery():
    for p in range(2, 13):
        assert verify_nodal_matrix_identity(p)
    # sign-vector classes on the exceptional chain extend to (sum/p) * fiber
    base = ManifoldSeries(one(F), 24, -16)
    for p in range(2, 7):
        up = blowup(base, p - 1)
        exc_names = up.lattice.basis_names[1:]
        s_up = (1,) + (0,) * (p - 1)
        cfg = ChainConfig(p, up.lattice, _exceptional_chain_spheres(up.lattice, exc_names, s_up))
        # subset sums of exceptional directions (and full sign vectors too)
        # must extend across the chain to (sum/p) * fiber, nothing else
        for box in ((0, 1), (1, -1)):
            for eps in itertools.product(box, repeat=p - 1):
                kappa = HClass(up.lattice, (0,) + eps)
                r = restrict_class(cfg, kappa)
                total = sum(eps)
                # (total / p, 0, ..., 0) as integer numerators over p^2
                assert r.extension == (p * total,) + (0,) * (p - 1)
                assert r.boundary.value == (p * total) % (p * p)
                assert r.boundary.in_subgroup(p)
    _report(4, "chain matrix identities p = 2..12; subset and sign extensions (sum/p) * fiber")


def test_05_elliptic_dual_routes():
    for n in range(2, 6):
        for pq in ("2", "3", "2,3", "2,5", "3,4", "3,5"):
            spec = f"E({n};{pq})"
            assert donaldson_pipeline(spec) == donaldson_closed_form(spec), spec
    _report(5, "log-transform pipeline equals closed form on the 24-spec elliptic grid")


def test_06_p2_route():
    for n in range(2, 6):
        m = blowup(donaldson_closed_form(f"E({n})"), 1)
        sigma = HClass(m.lattice, (1, -2))  # f - 2 e1
        res = p2_blowdown(m, sigma, image_names=["f_2"])
        assert res.result == donaldson_closed_form(f"E({n};2)"), n
    _report(6, "square -4 sphere blowdown reproduces the order-2 closed form, n = 2..5")


def test_07_ladder_coefficients():
    for p in range(2, 13):
        ladder = formal_log_coefficients(p)
        assert [e for e, _ in ladder] == list(range(p - 1, -p, -2))
        assert all(c == 1 for _, c in ladder)
        assert sum(c for _, c in ladder) == p
    e2 = donaldson_closed_form("E(2)")
    f = e2.lattice.basis_class("f")
    for p in (3, 5, 7):
        two_first = log_transform(e2, f, 2)
        route_a = log_transform(two_first, two_first.lattice.basis_class("f_2"), p)
        p_first = log_transform(e2, f, p)
        route_b = log_transform(p_first, p_first.lattice.basis_class(f"f_{p}"), 2)
        closed = donaldson_closed_form(f"E(2;{2 * p})")
        odd_ladder = {(j,): Fraction(1) for j in range(-(2 * p - 1), 2 * p, 2)}
        assert route_a == route_b
        assert route_a.kernel == closed.kernel
        assert route_a.kernel.terms == odd_ladder
    _report(7, "ladder coefficients all ones, p = 2..12; order-2p double expansions agree")


def test_08_taut_blowdown_family():
    for n in range(1, 9):
        m = donaldson_pipeline(f"W({n})")
        k = m.lattice.basis_class("k")
        assert m.kernel == cosh_c(k) * Fraction(2) ** (n - 1)
        assert pairing(k, k) == n
    for n in range(4, 9):
        wave = sinh_c if n % 2 else cosh_c
        y = donaldson_pipeline(f"Y({n})")
        lam = y.lattice.basis_class("lam")
        assert y.kernel == wave(lam)
        assert pairing(lam, lam) == n - 3
        h = donaldson_pipeline(f"H({n})")
        kk = h.lattice.basis_class("k")
        assert h.kernel == wave(kk) * Fraction(2) ** (n - 3)
        assert pairing(kk, kk) == 2 * n - 6
    for n in range(4, 11):
        h = donaldson_pipeline(f"H({n})")
        assert 5 * (3 * h.signature + 2 * h.euler) - h.euler + 36 == 0
        y = donaldson_pipeline(f"Y({n})")
        assert 11 * (3 * y.signature + 2 * y.euler) - y.euler + 36 == 0
    _report(8, "section/chain blowdown families: W, Y, H forms and both line identities")


def test_09_sw_transforms():
    for n in range(2, 7):
        m = sw_en(n)
        want = {}
        for r in range(n - 1):
            v = (-1) ** r * comb(n - 2, r)
            if v:
                want[(n - 2 - 2 * r,)] = v
        assert m.values == want
    # log transform carries every value to each ladder child, squares unchanged
    m3 = sw_en(3)
    for p in (2, 3, 5):
        out = sw_log_transform(m3, m3.lattice.basis_class("f"), p)
        assert sorted(out.values.values()) == sorted(
            v for v in m3.values.values() for _ in range(p)
        )
        assert all(pairing(c, c) == 0 for c in out.basic_classes())
    # taut blowdown carries values and shifts squares by exactly p - 1
    for n in (4, 5, 6):
        spec_p = n - 2
        y = sw_closed_form(f"Y({n})")
        src = sw_en(n)
        top = max(src.values)
        lam = y.lattice.basis_class("lam")
        assert y.values[lam.coeffs] == src.values[top]
        assert pairing(lam, lam) == 0 + (spec_p - 1)
    for spec in ("E(2)", "E(5)", "E(3;2,5)", "W(6)", "Y(7)", "H(8)", "blowup(E(3),1)"):
        m = sw_closed_form(spec)
        assert all(sw_dim(m, c) == 0 for c in m.basic_classes()), spec
    _report(9, "basic-class values: binomial pattern, transported values, square shift p-1")


def _fit_power_of_two(series, swmap):
    """Ratio between the two calculi on matching support, as an exponent."""
    pred = {key: Fraction(v) for key, v in swmap.values.items()}
    assert set(pred) == set(series.kernel.terms)
    ratios = {series.kernel.terms[k] / pred[k] for k in pred}
    assert len(ratios) == 1
    r = ratios.pop()
    assert r > 0
    if r >= 1:
        c = r.numerator.bit_length() - 1
    else:
        c = -(r.denominator.bit_length() - 1)
    assert r == Fraction(2) ** c
    return c


def test_10_witten_comparison():
    # fit the exponent on the three smallest fiber sums, then confirm the
    # closed form reproduces it
    for n in (2, 3, 4):
        series = donaldson_closed_form(f"E({n})")
        swmap = sw_closed_form(f"E({n})")
        c = _fit_power_of_two(series, swmap)
        assert c == 2 - n
        assert c == witten_exponent(swmap.euler, swmap.signature)
    specs = witten_specs()
    assert len(specs) == 47
    for s in specs:
        assert surgery_plan(s).sw_gap is None, s
        assert witten_check(donaldson_closed_form(s), sw_closed_form(s)), s
    _report(10, "two-calculi comparison green on 47 catalog specs, exponent 2+(7e+11s)/4")


def test_11_negative_controls():
    # a square -4 sphere orthogonal to every basic class kills the kernel
    lat = IntersectionLattice(["f", "s"], [[0, 0], [0, -4]])
    k3 = ManifoldSeries(one(lat), 24, -16)
    s = lat.basis_class("s")
    for res in (p2_blowdown(k3, s), taut_blowdown(k3, ChainConfig(2, lat, [s]))):
        assert tuple(res.result.lattice.basis_names) == ("f",)
        assert res.result.kernel == zero(res.result.lattice)
        assert all(rec.status == "dropped" for rec in res.class_map)
    # homology-ball sums scale the kernel by exactly p
    e3 = donaldson_closed_form("E(3)")
    for p in (2, 3, 5):
        assert connected_sum_hp(e3, p).kernel == e3.kernel * p
    # corrupting any single basic-class value breaks the comparison
    spec = "E(3;2)"
    series = donaldson_closed_form(spec)
    swmap = sw_closed_form(spec)
    from blowdown.swinv import SWMap

    for key in swmap.values:
        vals = dict(swmap.values)
        vals[key] += 1
        bad = SWMap(ExpKernel(swmap.lattice, vals), swmap.euler, swmap.signature)
        assert not witten_check(series, bad), key
    # corrupting any single series coefficient breaks pipeline equality
    closed = donaldson_closed_form("W(3)")
    piped = donaldson_pipeline("W(3)")
    for key in closed.kernel.terms:
        terms = dict(closed.kernel.terms)
        terms[key] += Fraction(1, 2)
        bad = ManifoldSeries(ExpKernel(closed.lattice, terms), closed.euler, closed.signature)
        assert bad != piped, key
    _report(11, "zero-kernel blowdown, hpsum scaling, and corruption sensitivity controls")
