import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdown.catalog import SERIES_RULES, replay, surgery_plan
from blowdown.exppoly import refined_lattice
from blowdown.lattice import (
    ChainConfig,
    HClass,
    IntersectionLattice,
    QClass,
    RelClass,
    Residue,
    boundary,
    boundary_residue_class,
    chain_lattice,
    characteristic_square,
    diagonal_lattice,
    is_characteristic,
    pairing,
    plumbing_inverse,
    plumbing_matrix,
    rel_pairing,
)
from blowdown.linalg import (
    gf2_solve,
    hnf_rows,
    identity,
    mat_eq,
    mat_inverse,
    mat_mul,
    solve,
    span_coords,
)
from blowdown.transform import _blown_down_lattice, blown_up_lattice


def test_plumbing_matrix_entries():
    pm = plumbing_matrix(5)
    assert pm == [
        [-2, 1, 0, 0],
        [1, -2, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -7],
    ]
    with pytest.raises(ValueError):
        plumbing_matrix(1)


def test_plumbing_inverse_matches_generic_inverse():
    for p in range(2, 10):
        pm = [[Fraction(x) for x in row] for row in plumbing_matrix(p)]
        assert plumbing_inverse(p) == mat_inverse(pm)


def test_plumbing_inverse_entry_formula():
    for p in (3, 7):
        inv = plumbing_inverse(p)
        for i in range(1, p):
            for j in range(1, i + 1):
                want = Fraction(-j) + Fraction(i * j * (p + 1), p * p)
                assert inv[i - 1][j - 1] == want
                assert inv[j - 1][i - 1] == want


def test_residue_arithmetic():
    a = Residue(7, 9)
    b = Residue(5, 9)
    assert (a + b).value == 3
    assert (a - b).value == 2
    assert (-a).value == 2
    assert Residue(13, 9).value == 4
    assert Residue(5, 9).reduced() == 4
    assert Residue(4, 9).reduced() == 4
    assert Residue(0, 9).reduced() == 0
    assert Residue(6, 9).in_subgroup(3)
    assert not Residue(5, 9).in_subgroup(3)
    with pytest.raises(ValueError):
        a + Residue(1, 4)
    with pytest.raises(ValueError):
        Residue(0, 0)
    with pytest.raises(ValueError):
        Residue(2, 9).in_subgroup(4)


def test_relclass_basis_roundtrip():
    rng = random.Random(11)
    for p in range(2, 8):
        for _ in range(10):
            coords = tuple(rng.randint(-5, 5) for _ in range(p - 1))
            e = RelClass(p, coords)
            assert e.delta_coords() == coords
            again = RelClass(p, e.gamma_coords(), basis="gamma")
            assert again.delta_coords() == coords


def test_relclass_rejects_non_integral_coordinates():
    # (3/2, 0) used to truncate to (1, 0)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        RelClass(3, (Fraction(3, 2), 0))
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        RelClass(3, (0, Fraction(-1, 3)), basis="gamma")
    e = RelClass(3, (Fraction(4, 2), 0))
    assert e.coeffs == (2, 0) and all(type(c) is int for c in e.coeffs)


def test_rel_pairing_closed_form():
    for p in range(2, 9):
        diag = Fraction(-(p * p - p - 1), p * p)
        off = Fraction(p + 1, p * p)
        units = [
            RelClass(p, tuple(1 if k == i else 0 for k in range(p - 1)))
            for i in range(p - 1)
        ]
        for i in range(p - 1):
            for j in range(p - 1):
                assert rel_pairing(units[i], units[j]) == (diag if i == j else off)


def test_boundary_values():
    for p in range(2, 8):
        for j in range(1, p):
            gj = RelClass(p, tuple(1 if k == j - 1 else 0 for k in range(p - 1)), basis="gamma")
            assert boundary(gj).value == j
        # every delta coordinate hits the boundary generator once
        e = RelClass(p, tuple(range(1, p)))
        assert boundary(e).value == sum(range(1, p)) % (p * p)


def test_boundary_residue_folding():
    e = RelClass(3, (0, 4))  # boundary 4 in Z_9
    assert boundary(e).value == 4
    assert boundary_residue_class(e) == 4
    e = RelClass(3, (4, 4))  # boundary 8 in Z_9 folds to 1
    assert boundary_residue_class(e) == 1


def test_chain_lattice_and_config():
    for p in (2, 3, 5):
        lat = chain_lattice(p)
        assert [[int(x) for x in row] for row in lat.gram] == plumbing_matrix(p)
        cfg = ChainConfig(p, lat, [lat.basis_class(nm) for nm in lat.basis_names])
        assert cfg.p == p
    lat = diagonal_lattice(["a", "b"], [-2, -2])
    with pytest.raises(ValueError):
        ChainConfig(3, lat, [lat.basis_class("a"), lat.basis_class("b")])


def test_hclass_operations():
    lat = diagonal_lattice(["a", "b"], [1, -1])
    a = lat.basis_class("a")
    b = lat.basis_class("b")
    assert pairing(a, a) == 1
    assert pairing(a, b) == 0
    c = a * 3 - b
    assert c.coeffs == (3, -1)
    assert c.square() == 8
    q = c.as_q() * Fraction(1, 2)
    assert pairing(q, q) == Fraction(2)


def test_combo_rejects_non_integral_coefficients():
    # {"f": 3/2, "s": 2.7} used to truncate to (1, 2)
    lat = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])
    with pytest.raises(ValueError, match=r"^coordinate 'f' has non-integral coefficient 3/2$"):
        lat.combo({"f": Fraction(3, 2), "s": 2.7})
    with pytest.raises(ValueError, match=r"^coordinate 's' has non-integral coefficient 2.7$"):
        lat.combo({"f": 1, "s": 2.7})
    c = lat.combo({"f": Fraction(4, 2), "s": -3.0})
    assert c.coeffs == (2, -3) and all(type(x) is int for x in c.coeffs)


def test_is_characteristic_diagonal():
    lat = diagonal_lattice(["a", "b"], [1, -1])
    assert is_characteristic(lat, lat.combo({"a": 1, "b": 1}))
    assert is_characteristic(lat, lat.combo({"a": 3, "b": -1}))
    assert not is_characteristic(lat, lat.combo({"a": 2, "b": 1}))
    assert not is_characteristic(lat, lat.zero())


def test_lattice_structural_equality():
    l1 = diagonal_lattice(["a", "b"], [1, -1])
    l2 = IntersectionLattice(["a", "b"], [[1, 0], [0, -1]])
    l3 = IntersectionLattice(["a", "b"], [[1, 0], [0, -2]])
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1 != l3
    with pytest.raises(ValueError):
        IntersectionLattice(["a", "b"], [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        IntersectionLattice(["a", "a"], [[0, 0], [0, 0]])  # duplicate name


def test_linalg_solve_and_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    x = solve(m, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(1)]
    inv = mat_inverse(m)
    assert mat_eq(mat_mul(m, inv), identity(2))
    with pytest.raises(ValueError):
        solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [Fraction(0), Fraction(1)])


def test_linalg_random_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        try:
            inv = mat_inverse(m)
        except ValueError:
            continue
        assert mat_eq(mat_mul(m, inv), identity(n))


def test_hnf_rows_canonical():
    rows = [
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(0), Fraction(2), Fraction(1)],
    ]
    h = hnf_rows(rows)
    # one dependent row drops, pivots positive, entries above pivots reduced
    assert h == [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(2), Fraction(1)]]
    # canonical: any row order gives the same form
    assert hnf_rows(rows[::-1]) == h


def test_span_coords():
    # basis rows must be in echelon form by leading column
    basis = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
    assert span_coords(basis, [Fraction(3), Fraction(7)]) == [Fraction(3), Fraction(2)]
    assert span_coords([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None


def test_gf2_solve():
    # x1 + x2 = 1, x2 = 1 over GF(2)
    sol = gf2_solve([[1, 1], [0, 1]], [0, 1])
    assert sol == [1, 1]
    assert gf2_solve([[1, 1], [1, 1]], [0, 1]) is None


# ---------------------------------------------------------------------------
# The integer core against a Fraction double-sum oracle


def _ref_pairing(gram, x, y):
    """x^t G y as a plain Fraction double sum over the Gram the test wrote."""
    return sum(
        (Fraction(a) * Fraction(g) * Fraction(b) for a, row in zip(x, gram) for g, b in zip(row, y)),
        Fraction(0),
    )


def _ref_characteristic(gram, x):
    for i, row in enumerate(gram):
        dot = sum((Fraction(g) * Fraction(b) for g, b in zip(row, x)), Fraction(0))
        sq = Fraction(gram[i][i])
        if dot.denominator != 1 or sq.denominator != 1 or (dot.numerator - sq.numerator) % 2:
            return False
    return True


def _assert_matches_oracle(lat, gram, classes):
    assert lat.gram == tuple(tuple(Fraction(x) for x in row) for row in gram)
    verdicts = set()
    for a in classes:
        verdict = is_characteristic(lat, a)
        assert verdict == _ref_characteristic(gram, a.coeffs)
        verdicts.add(verdict)
        for b in classes:
            got = pairing(a, b)
            assert type(got) is Fraction
            assert got == _ref_pairing(gram, a.coeffs, b.coeffs)
    return verdicts


def _sample_classes(lat, rng, count=6):
    """Random integral classes, random rational classes, and the basis."""
    n = lat.rank
    out = [lat.basis_class(nm) for nm in lat.basis_names]
    out += [HClass(lat, tuple(rng.randint(-5, 5) for _ in range(n))) for _ in range(count)]
    out += [
        QClass(lat, tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)))
        for _ in range(count)
    ]
    return out


def _zero_one_classes(lat):
    return [HClass(lat, bits) for bits in itertools.product((0, 1), repeat=lat.rank)]


def test_int_core_matches_oracle_on_plumbing_chains():
    rng = random.Random(4)
    verdicts = set()
    for p in range(2, 10):
        lat = chain_lattice(p)
        gram = plumbing_matrix(p)
        assert lat.den == 1
        verdicts |= _assert_matches_oracle(lat, gram, _sample_classes(lat, rng))
        for c in _zero_one_classes(lat):
            verdict = is_characteristic(lat, c)
            assert verdict == _ref_characteristic(gram, c.coeffs)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_int_core_matches_oracle_on_blown_up_lattice():
    rng = random.Random(5)
    lat = blown_up_lattice(chain_lattice(5), 3, None)
    assert lat.basis_names == ("u1", "u2", "u3", "u4", "e1", "e2", "e3")
    gram = [row + [0, 0, 0] for row in plumbing_matrix(5)]
    gram += [[0] * 4 + [-1 if j == i else 0 for j in range(3)] for i in range(3)]
    _assert_matches_oracle(lat, gram, _sample_classes(lat, rng))
    assert {is_characteristic(lat, c) for c in _zero_one_classes(lat)} == {True, False}


def test_int_core_matches_oracle_on_refined_lattices():
    rng = random.Random(6)
    cases = [
        # (gram, refined index, divisor, expected den)
        ([[0, 1], [1, -4]], 0, 3, 3),  # the log-transform fiber f -> f_3
        ([[0, 1], [1, -4]], 0, 7, 7),
        ([[4, 2], [2, -4]], 0, 2, 1),  # refines back to an integral Gram
        ([[4, 2], [2, -4]], 0, 3, 9),
        ([[0, 1, 0], [1, -4, 1], [0, 1, -2]], 0, 6, 6),
    ]
    for gram, idx, d, den in cases:
        names = [f"x{i}" for i in range(len(gram))]
        lat = IntersectionLattice(names, gram)
        new = refined_lattice(lat, lat.basis_class(names[idx]), d, "nu")
        want = [
            [Fraction(x, (d if i == idx else 1) * (d if j == idx else 1)) for j, x in enumerate(row)]
            for i, row in enumerate(gram)
        ]
        assert new.den == den
        _assert_matches_oracle(new, want, _sample_classes(new, rng))
        # the refinement is the lattice built directly from its Fractions
        assert new == IntersectionLattice(new.basis_names, want)
        # blowing up a refined lattice keeps its denominator
        up = blown_up_lattice(new, 1, None)
        assert up.den == den
        want_up = [row + [0] for row in want] + [[0] * len(want) + [-1]]
        _assert_matches_oracle(up, want_up, _sample_classes(up, rng, count=3))


def test_int_core_mixed_integral_and_rational_pairs():
    lat = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])
    f, s = lat.basis_class("f"), lat.basis_class("s")
    half = QClass(lat, (Fraction(1, 2), Fraction(-1, 3)))
    assert pairing(f, half) == Fraction(-1, 3) and type(pairing(f, half)) is Fraction
    assert pairing(half, s) == Fraction(1, 2) + Fraction(4, 3)
    assert pairing(half, half) == -Fraction(1, 3) - Fraction(4, 9)
    assert pairing(s, s) == -4 and type(pairing(s, s)) is Fraction
    # a rational class with integral numerators over 1 behaves as its HClass
    assert is_characteristic(lat, (f * 2).as_q()) == is_characteristic(lat, f * 2)
    # fractional pairing with a basis vector is never characteristic
    assert not is_characteristic(lat, QClass(lat, (Fraction(1, 2), Fraction(0))))
    with pytest.raises(ValueError):
        pairing(f, chain_lattice(3).basis_class("u1"))


def test_lattice_identity_fast_path_and_canonical_form():
    lat = IntersectionLattice(["a", "b"], [[Fraction(1, 2), 1], [1, Fraction(-4, 3)]])
    assert lat == lat
    assert (lat.num, lat.den) == (((3, 6), (6, -8)), 6)
    # the same pairing given as numerators over any denominator
    same = IntersectionLattice(["a", "b"], [[6, 12], [12, -16]], 12)
    assert same is not lat and same == lat and hash(same) == hash(lat)
    assert IntersectionLattice(["a", "b"], [[Fraction(1, 2), 1], [1, Fraction(4, 3)]]) != lat
    with pytest.raises(ValueError):
        IntersectionLattice(["a"], [[1]], 0)
    with pytest.raises(ValueError):
        lat.restricted(["y"], [[1, 0, 0]])


_ENTRY = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _lattice_and_classes(draw):
    n = draw(st.integers(1, 4))
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(_ENTRY)
    lat = IntersectionLattice([f"x{i}" for i in range(n)], gram)
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    fracs = st.lists(_ENTRY, min_size=n, max_size=n)
    classes = [HClass(lat, tuple(v)) for v in draw(st.lists(ints, min_size=1, max_size=3))]
    classes += [QClass(lat, tuple(v)) for v in draw(st.lists(fracs, min_size=1, max_size=3))]
    return lat, gram, classes


@settings(max_examples=150, deadline=None)
@given(_lattice_and_classes())
def test_int_core_matches_oracle_on_generated_grams(case):
    lat, gram, classes = case
    _assert_matches_oracle(lat, gram, classes)
    scale = 2 * lat.den
    rescaled = [[int(x * scale) for x in row] for row in gram]
    assert IntersectionLattice(lat.basis_names, rescaled, scale) == lat


@settings(max_examples=100, deadline=None)
@given(_lattice_and_classes(), st.data())
def test_restricted_gram_matches_naive_product(case, data):
    lat, gram, _ = case
    n = lat.rank
    rows = data.draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=3))
    sub = lat.restricted([f"y{i}" for i in range(len(rows))], rows)
    assert [list(row) for row in sub.gram] == [[_ref_pairing(gram, u, v) for v in rows] for u in rows]


@pytest.mark.parametrize("spec", ["H(8)", "W(2)"])
def test_blown_down_gram_matches_naive_definition(spec):
    plan = surgery_plan(spec)
    _, chains = replay(plan.seed_series(), plan.steps, SERIES_RULES)
    assert len(chains) == len(plan.steps) >= 2
    for step, pre, res in chains:
        extensions = [r.extension for r in res.class_map if r.status == "kept"]
        lat, basis = _blown_down_lattice(step.config(pre), extensions, [step.image])
        assert lat == res.result.lattice
        naive = [[_ref_pairing(pre.gram, u, v) for v in basis] for u in basis]
        assert [list(row) for row in lat.gram] == naive


def _ref_square(gram, x):
    """Fraction oracle for den * c . c: None unless c is characteristic."""
    if not _ref_characteristic(gram, x):
        return None
    return _ref_pairing(gram, x, x)


def _box(n, r=2):
    return list(itertools.product(range(-r, r + 1), repeat=n))


@st.composite
def _integral_lattice_over_den(draw):
    """Integer numerators over den 1..4: diagonals mostly multiples of den
    (odd quotients included), off-diagonal entries often fractional."""
    n = draw(st.integers(1, 3))
    den = draw(st.integers(1, 4))
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        num[i][i] = draw(
            st.one_of(st.integers(-3, 3).map(lambda q: q * den), st.integers(-7, 7))
        )
        for j in range(i + 1, n):
            num[i][j] = num[j][i] = draw(st.integers(-6, 6))
    gram = [[Fraction(x, den) for x in row] for row in num]
    return IntersectionLattice([f"x{i}" for i in range(n)], gram), gram


@settings(max_examples=80, deadline=None)
@given(_integral_lattice_over_den(), st.integers(1, 3))
def test_characteristic_square_matches_fraction_oracle(case, xden):
    lat, gram = case
    for x in _box(lat.rank):
        want = _ref_square(gram, x)
        got = characteristic_square(lat, x)
        assert got == (None if want is None else lat.den * want)
        assert type(got) in (int, type(None))
        assert is_characteristic(lat, HClass(lat, x)) == (want is not None)
        # the rational class x / xden
        q = [Fraction(a, xden) for a in x]
        want = _ref_square(gram, q)
        got = characteristic_square(lat, x, xden)
        assert got == (None if want is None else lat.den * xden * xden * want)


def test_characteristic_square_on_refined_and_blown_up_lattices():
    seen = set()
    for gram, d in [([[0, 1], [1, -4]], 3), ([[4, 2], [2, -4]], 3), ([[2, 1], [1, -3]], 2)]:
        lat = IntersectionLattice(["x", "y"], gram)
        for new in (
            refined_lattice(lat, lat.basis_class("x"), d, "nu"),
            blown_up_lattice(refined_lattice(lat, lat.basis_class("x"), d, "nu"), 2, None),
            blown_up_lattice(lat, 3, None),
        ):
            g = new.gram
            for x in _box(new.rank, 3 if new.rank == 2 else 1):
                want = _ref_square(g, x)
                got = characteristic_square(new, x)
                assert got == (None if want is None else new.den * want)
                seen.add((new.den > 1, got is None))
    # den > 1 and den = 1 lattices, each with characteristic and other classes
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
