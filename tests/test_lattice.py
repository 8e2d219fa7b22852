import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdown.catalog import run, surgery_plan
from blowdown.lattice import (
    HClass,
    IntersectionLattice,
    QClass,
    characteristic_squares,
    is_characteristic,
    pairing,
)
from blowdown.linalg import hnf_rows, span_coords
from blowdown.plumbing import (
    Plumbing,
    RelClass,
    Residue,
    boundary,
    chain_plumbing,
    rel_pairing,
    scaled_plumbing_inverse,
)
from blowdown.reporting import integral_coords
from blowdown.chain_surgery import ChainConfig, _blown_down_lattice, _support, restricted
from blowdown.nodal import _exceptional_chain_spheres
from blowdown.placement import refined_lattice
from blowdown.transform import blown_up_lattice
from lattices import chain_lattice, diagonal_lattice


def test_plumbing_matrix_entries():
    pm = chain_plumbing(5).matrix()
    assert pm == [
        [-2, 1, 0, 0],
        [1, -2, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -7],
    ]
    with pytest.raises(ValueError):
        chain_plumbing(1)


def test_plumbing_inverse_matches_generic_inverse():
    sympy = pytest.importorskip("sympy")
    for p in range(2, 10):
        inv = sympy.Matrix(chain_plumbing(p).matrix()).inv() * p**2
        assert inv == sympy.Matrix(scaled_plumbing_inverse(p))


def test_scaled_plumbing_inverse_is_integral_p2_inverse():
    for p in range(2, 41):
        n = p - 1
        inv, pm = scaled_plumbing_inverse(p), chain_plumbing(p).matrix()
        prod = [[sum(inv[i][k] * pm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[p * p if i == j else 0 for j in range(n)] for i in range(n)]
        assert all(type(x) is int for row in inv for x in row)
    with pytest.raises(ValueError):
        scaled_plumbing_inverse(1)


def test_plumbing_inverse_entry_formula():
    for p in (3, 7):
        inv = scaled_plumbing_inverse(p)
        for i in range(1, p):
            for j in range(1, i + 1):
                want = p * p * (Fraction(-j) + Fraction(i * j * (p + 1), p * p))
                assert inv[i - 1][j - 1] == want
                assert inv[j - 1][i - 1] == want


def _fraction_det_and_inverse(m):
    """det m and m^-1 by Gauss-Jordan elimination over Fractions."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    det = Fraction(1)
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det, [row[n:] for row in a]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=8), st.data())
def test_plumbing_matches_a_dense_exact_oracle(weights, data):
    """The continuant tables of a Plumbing on random weights against
    Gauss-Jordan elimination over Fractions: the matrix, det, P (det P^-1) =
    det I, solve, and a boundary map that kills exactly P Z^r."""
    plumbing = Plumbing(weights)
    r, pm, det = len(weights), plumbing.matrix(), plumbing.det
    for i in range(r):
        for j in range(r):
            assert pm[i][j] == (-weights[i] if i == j else 1 if abs(i - j) == 1 else 0)
    oracle_det, inv = _fraction_det_and_inverse(pm)
    assert det == (-1) ** r * oracle_det  # P is negative definite
    units = [[int(i == j) for i in range(r)] for j in range(r)]
    columns = [[-x for x in plumbing.solve(u)] for u in units]  # of det P^-1
    assert columns == [[det * inv[i][j] for i in range(r)] for j in range(r)]
    assert [[sum(map(mul, row, col)) for row in pm] for col in columns] == [
        [det * x for x in u] for u in units
    ]
    g = data.draw(st.lists(st.integers(-20, 20), min_size=r, max_size=r), label="g")
    x = plumbing.solve(g)
    assert x == [-det * sum(map(mul, row, g)) for row in inv]
    # the boundary is Z^r / P Z^r = Z_det with gamma_1 -> 1: it vanishes on
    # P y, and on g exactly when the extension x / det is integral
    assert plumbing.boundary(units[0]) == Residue(1, det)
    y = data.draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r), label="y")
    py = [sum(map(mul, row, y)) for row in pm]
    assert plumbing.boundary(py) == Residue(0, det)
    assert plumbing.solve(py) == [-det * v for v in y]
    assert (plumbing.boundary(g).value == 0) == all(v % det == 0 for v in x)


def test_chain_plumbing_is_the_order_p_chain():
    for p in range(2, 30):
        plumbing, s = chain_plumbing(p), scaled_plumbing_inverse(p)
        assert plumbing.weights == (2,) * (p - 2) + (p + 2,) and plumbing.det == p * p
        for j in range(p - 1):
            unit = [int(i == j) for i in range(p - 1)]
            assert plumbing.solve(unit) == [-row[j] for row in s]
    assert chain_plumbing(7) is chain_plumbing(7)


def test_plumbing_rejects_weights_below_two():
    for weights in ((), (2, 1), (3, 0, 2)):
        with pytest.raises(ValueError, match="weights must be integers >= 2"):
            Plumbing(weights)
    with pytest.raises(ValueError, match="chain order p must be at least 2"):
        chain_plumbing(1)


def test_residue_arithmetic():
    a = Residue(7, 9)
    b = Residue(5, 9)
    assert (a.value, b.value) == (7, 5)
    assert Residue(13, 9).value == 4 and Residue(-2, 9).value == 7
    assert Residue(5, 9).reduced() == 4
    assert Residue(4, 9).reduced() == 4
    assert Residue(0, 9).reduced() == 0
    assert Residue(6, 9).in_subgroup(3)
    assert not Residue(5, 9).in_subgroup(3)
    with pytest.raises(ValueError):
        Residue(0, 0)
    with pytest.raises(ValueError):
        Residue(2, 9).in_subgroup(4)


def test_relclass_rejects_non_integral_coordinates():
    # (3/2, 0) used to truncate to (1, 0)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        RelClass(3, (Fraction(3, 2), 0))
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
            # gamma_j, dual to u_j, is delta_1 + ... + delta_j
            gj = tuple(1 if k == j - 1 else 0 for k in range(p - 1))
            assert chain_plumbing(p).boundary(gj) == Residue(j, p * p)
            assert boundary(RelClass(p, (1,) * j + (0,) * (p - 1 - j))) == Residue(j, p * p)
        # every delta coordinate hits the boundary generator once
        e = RelClass(p, tuple(range(1, p)))
        assert boundary(e).value == sum(range(1, p)) % (p * p)


def test_boundary_residue_folding():
    e = RelClass(3, (0, 4))  # boundary 4 in Z_9
    assert boundary(e).value == 4
    assert boundary(e).reduced() == 4
    e = RelClass(3, (4, 4))  # boundary 8 in Z_9 folds to 1
    assert boundary(e).reduced() == 1


def test_chain_lattice_and_config():
    for p in (2, 3, 5):
        lat = chain_lattice(p)
        assert lat.den == 1 and [list(row) for row in lat.num] == chain_plumbing(p).matrix()
        cfg = ChainConfig(p, lat, [lat.basis_class(nm) for nm in lat.basis_names])
        assert cfg.p == p
    lat = diagonal_lattice(["a", "b"], [-2, -2])
    with pytest.raises(ValueError):
        ChainConfig(3, lat, [lat.basis_class("a"), lat.basis_class("b")])


def test_chain_config_rejects_a_single_wrong_pairing():
    """Every one of the (p-1)^2 pairings is compared: a coupling between two
    non-adjacent spheres (u_1 . u_3 = 1), or an end sphere of the wrong
    square, is caught although every other pairing is right."""
    p = 5
    far, end = chain_plumbing(p).matrix(), chain_plumbing(p).matrix()
    far[0][2] = far[2][0] = 1
    end[-1][-1] = -(p + 1)
    for gram in (far, end):
        for den in (1, 3):
            lat = IntersectionLattice([f"u{i}" for i in range(1, p)], gram, den)
            with pytest.raises(ValueError, match="order-5 plumbing chain"):
                ChainConfig(p, lat, [lat.basis_class(nm) for nm in lat.basis_names])


def _dense_products(num, v):
    """num . v, one full dot per Gram row."""
    return [sum(map(mul, row, v)) for row in num]


@st.composite
def _exceptional_chain_case(draw):
    """An order-p exceptional chain in a generated base lattice blown up p-1
    times: base Gram numerators over den 1..4 with some rows and columns set
    to zero, and the end sphere running along one zero-row direction (square
    zero and orthogonal to everything) when there is one."""
    n = draw(st.integers(1, 4))
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            num[i][j] = num[j][i] = draw(st.integers(-6, 6))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    for i in zero:
        num[i] = [0] * n
        for row in num:
            row[i] = 0
    base = IntersectionLattice([f"x{i}" for i in range(n)], num, draw(st.integers(1, 4)))
    p = draw(st.integers(2, 7))
    up = blown_up_lattice(base, p - 1)
    fiber = [0] * up.rank
    if zero:
        fiber[min(zero)] = draw(st.integers(-3, 3))
    return up, p, _exceptional_chain_spheres(up, up.basis_names[n:], tuple(fiber))


@settings(max_examples=80, deadline=None)
@given(_exceptional_chain_case(), st.integers(1, 3), st.data())
def test_sparse_chain_products_match_dense_products(case, den, data):
    """ChainConfig.row_supports, dots and restricted, which walk nonzero
    entries only, against full dense products over every Gram row."""
    up, p, spheres = case
    cfg = ChainConfig(p, up, spheres)
    dense = [[dict(s).get(i, 0) for i in range(up.rank)] for s in spheres]
    dense_rows = [_dense_products(up.num, v) for v in dense]
    assert cfg.row_supports == tuple(
        tuple((i, a) for i, a in enumerate(row) if a) for row in dense_rows
    )
    ints = st.lists(st.integers(-5, 5), min_size=up.rank, max_size=up.rank)
    for v in data.draw(st.lists(ints, min_size=1, max_size=3)):
        assert cfg.dots(HClass(up, tuple(v))) == [sum(map(mul, row, v)) for row in dense_rows]
    names = [f"u{i}" for i in range(1, p)]
    assert restricted(up, names, cfg.supports, 1) == IntersectionLattice(
        names, chain_plumbing(p).matrix()
    )
    rows = data.draw(st.lists(ints, min_size=1, max_size=4))
    sub = restricted(up, [f"y{i}" for i in range(len(rows))], list(map(_support, rows)), den)
    gram = [[sum(map(mul, u, _dense_products(up.num, w))) for w in rows] for u in rows]
    assert sub == IntersectionLattice(sub.basis_names, gram, up.den * den * den)


def test_qclass_converts_coordinates_exactly():
    lat = diagonal_lattice(["a", "b", "c", "d"], [1, -1, -1, 0])
    half = Fraction(1, 2)
    q = QClass(lat, (half, 3, 0.25, Fraction(6, 4)))
    assert q.coeffs == (half, Fraction(3), Fraction(1, 4), Fraction(3, 2))
    assert {type(c) for c in q.coeffs} == {Fraction}
    assert q.coeffs[0] == half


def test_hclass_operations():
    lat = diagonal_lattice(["a", "b"], [1, -1])
    a = lat.basis_class("a")
    b = lat.basis_class("b")
    assert (lat.index("a"), lat.index("b")) == (0, 1)
    with pytest.raises(KeyError, match="no basis vector named 'c'"):
        lat.basis_class("c")
    assert pairing(a, a) == 1
    assert pairing(a, b) == 0
    assert (a * 3).coeffs == (3, 0) and (-b).coeffs == (0, -1)
    c = HClass(lat, (3, -1))
    assert pairing(c, c) == 8
    q = QClass(lat, (Fraction(3, 2), Fraction(-1, 2)))
    assert pairing(q, q) == Fraction(2)


def test_hclass_scales_by_integers_only():
    c = diagonal_lattice(["a", "b"], [1, -1]).basis_class("a")
    assert (c * 2).coeffs == (2, 0) and (3 * c).coeffs == (3, 0)
    for scaled in (lambda: c * Fraction(1, 2), lambda: Fraction(1, 2) * c):
        with pytest.raises(TypeError, match="HClass coordinates must be ints"):
            scaled()


def test_integral_coords_rejects_non_integral_coefficients():
    # (3/2, 2.7) must not truncate to (1, 2)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        integral_coords((Fraction(3, 2), 2.7))
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        integral_coords((1, 2.7))
    c = integral_coords((Fraction(4, 2), -3.0))
    assert c == (2, -3) and all(type(x) is int for x in c)


def test_is_characteristic_diagonal():
    lat = diagonal_lattice(["a", "b"], [1, -1])
    assert is_characteristic(lat, HClass(lat, (1, 1)))
    assert is_characteristic(lat, HClass(lat, (3, -1)))
    assert not is_characteristic(lat, HClass(lat, (2, 1)))
    assert not is_characteristic(lat, HClass(lat, (0, 0)))


def test_lattice_structural_equality():
    l1 = diagonal_lattice(["a", "b"], [1, -1])
    l2 = IntersectionLattice(["a", "b"], [[1, 0], [0, -1]])
    l3 = IntersectionLattice(["a", "b"], [[1, 0], [0, -2]])
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1 != l3
    with pytest.raises(ValueError, match="gram matrix must be symmetric"):
        IntersectionLattice(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        IntersectionLattice(["a", "a"], [[0, 0], [0, 0]])  # duplicate name


def test_hnf_rows_canonical():
    rows = [[2, 4, 6], [1, 2, 3], [0, 2, 1]]
    h = hnf_rows(rows)
    # one dependent row drops, pivots positive, entries above pivots reduced
    assert h == [[1, 0, 2], [0, 2, 1]]
    # canonical: any row order gives the same form
    assert hnf_rows(rows[::-1]) == h


def test_span_coords():
    # basis rows, given by their nonzero entries (column, value) pivot
    # first, must be in echelon form by leading column: [[1, 1], [0, 2]]
    basis = [((0, 1), (1, 1)), ((1, 2),)]
    assert span_coords(basis, [3, 7]) == [3, 2]
    assert span_coords(basis, [-3, -5]) == [-3, -1]
    assert span_coords([((0, 1),)], [0, 1]) is None
    # in the Q-span but not the Z-span: a pivot leaves a remainder
    assert span_coords([((0, 2),)], [1, 0]) is None
    assert span_coords(basis, [3, 6]) is None


# ---------------------------------------------------------------------------
# The integer core against a Fraction double-sum oracle


def _fraction_gram(lat):
    """The lattice's pairing matrix as Fractions, num / den."""
    return [[Fraction(x, lat.den) for x in row] for row in lat.num]


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
    assert _fraction_gram(lat) == [[Fraction(x) for x in row] for row in gram]
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
        gram = chain_plumbing(p).matrix()
        assert lat.den == 1
        verdicts |= _assert_matches_oracle(lat, gram, _sample_classes(lat, rng))
        for c in _zero_one_classes(lat):
            verdict = is_characteristic(lat, c)
            assert verdict == _ref_characteristic(gram, c.coeffs)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_int_core_matches_oracle_on_blown_up_lattice():
    rng = random.Random(5)
    lat = blown_up_lattice(chain_lattice(5), 3)
    assert lat.basis_names == ("u1", "u2", "u3", "u4", "e1", "e2", "e3")
    gram = [row + [0, 0, 0] for row in chain_plumbing(5).matrix()]
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
        up = blown_up_lattice(new, 1)
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
    assert is_characteristic(lat, QClass(lat, (2, 0))) == is_characteristic(lat, f * 2)
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
        restricted(lat, ["y"], [((2, 1),)], 1)


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
@given(_lattice_and_classes(), st.integers(1, 4), st.data())
def test_restricted_gram_matches_naive_product(case, den, data):
    lat, gram, _ = case
    n = lat.rank
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = data.draw(st.lists(ints, min_size=1, max_size=3))
    sub = restricted(lat, [f"y{i}" for i in range(len(rows))], list(map(_support, rows)), den)
    qrows = [[Fraction(x, den) for x in row] for row in rows]
    assert _fraction_gram(sub) == [[_ref_pairing(gram, u, v) for v in qrows] for u in qrows]


@pytest.mark.parametrize("spec", ["H(8)", "W(2)"])
def test_blown_down_gram_matches_naive_definition(spec):
    plan = surgery_plan(spec)
    _, chains = run(plan, "pipeline")
    assert len(chains) == len(plan.steps) >= 2
    for step, pre, res in chains:
        config = step.config(pre)
        p2 = config.p * config.p
        extensions = [r.extension for r in res.class_map if r.status == "kept"]
        lat, basis = _blown_down_lattice(config, extensions, [step.image])
        assert lat == res.result.lattice
        assert all(type(x) is int for row in basis for entry in row for x in entry)
        basis = [[dict(row).get(i, 0) for i in range(pre.rank)] for row in basis]
        qbasis = [[Fraction(x, p2) for x in row] for row in basis]
        naive = [[_ref_pairing(_fraction_gram(pre), u, v) for v in qbasis] for u in qbasis]
        assert _fraction_gram(lat) == naive


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
    box = _box(lat.rank)
    for x in box:
        want = _ref_square(gram, x)
        got = characteristic_squares(lat, [x])[0]
        assert got == (None if want is None else lat.den * want)
        assert type(got) in (int, type(None))
        assert is_characteristic(lat, HClass(lat, x)) == (want is not None)
        # the rational class x / xden, as Fraction coordinates
        q = [Fraction(a, xden) for a in x]
        want = _ref_square(gram, q)
        got = characteristic_squares(lat, [q])[0]
        assert got == (None if want is None else lat.den * want)
        assert is_characteristic(lat, QClass(lat, q)) == (want is not None)
    # the whole box as one batch, and the empty batch
    _assert_batch_matches_oracle(lat, gram, box, xden)
    assert characteristic_squares(lat, []) == []


def _assert_batch_matches_oracle(lat, gram, keys, xden=1):
    """The batch of classes x / xden, Fraction coordinates when xden > 1;
    the squares are ints exactly for the integral keys."""
    if xden > 1:
        keys = [[Fraction(a, xden) for a in x] for x in keys]
    got = characteristic_squares(lat, keys)
    want = [_ref_square(gram, x) for x in keys]
    assert got == [None if w is None else lat.den * w for w in want]
    if xden == 1:
        assert {type(g) for g in got} <= {int, type(None)}
    return got


def test_characteristic_square_on_refined_and_blown_up_lattices():
    seen, mixed = set(), set()
    grams = [
        ([[0, 1], [1, -4]], 3),
        ([[4, 2], [2, -4]], 3),
        ([[2, 1], [1, -3]], 2),
        # y's Gram row is zero, beside the nonzero rows of x and, once
        # refined, of nu over a denominator
        ([[1, 0], [0, 0]], 2),
    ]
    for gram, d in grams:
        lat = IntersectionLattice(["x", "y"], gram)
        for new in (
            refined_lattice(lat, lat.basis_class("x"), d, "nu"),
            blown_up_lattice(refined_lattice(lat, lat.basis_class("x"), d, "nu"), 2),
            blown_up_lattice(lat, 3),
        ):
            g = _fraction_gram(new)
            box = _box(new.rank, 3 if new.rank == 2 else 1)
            for x in box:
                want = _ref_square(g, x)
                got = characteristic_squares(new, [x])[0]
                assert got == (None if want is None else new.den * want)
                seen.add((new.den > 1, got is None))
            # the whole box as one batch, over xden 1 and 2
            for xden in (1, 2):
                got = _assert_batch_matches_oracle(new, g, box, xden)
                if None in got and {None} != set(got):
                    mixed.add(new.den > 1)
            assert characteristic_squares(new, []) == []
    # den > 1 and den = 1 lattices, each with characteristic and other classes,
    # in one batch as well
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert mixed == {True, False}
