import copy
import gc
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowdown.catalog import donaldson_closed_form
from blowdown.exppoly import (
    ExpKernel,
    cosh_c,
    exact_div,
    one,
    power,
    sinh_c,
    zero,
)
from blowdown.lattice import HClass, IntersectionLattice
from blowdown.nodal import twist
from blowdown.placement import refined_lattice
from blowdown.transform import blowup, log_transform
from lattices import diagonal_lattice

LAT = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])


def _random_kernel(rng, lat=LAT, span=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(-span, span) for _ in range(lat.rank))
        terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return ExpKernel(lat, terms)


def test_construction_and_coeff():
    k = ExpKernel(LAT, {(1, 0): Fraction(2), (0, 0): Fraction(0)})
    assert len(k) == 1  # zero coefficients drop
    assert k.coeff((1, 0)) == 2
    assert k.coeff(LAT.basis_class("f")) == 2
    assert k.coeff((5, 5)) == 0
    assert not zero(LAT)
    assert one(LAT).coeff((0, 0)) == 1


def test_kernel_immutable():
    k = one(LAT)
    with pytest.raises(AttributeError):
        k.terms = {}


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(8):
        a = _random_kernel(rng)
        b = _random_kernel(rng)
        c = _random_kernel(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one(LAT) == a
        assert a + zero(LAT) == a
        assert a - a == zero(LAT)
        assert a.scale(Fraction(3, 2)) == a * Fraction(3, 2)


def test_mul_is_exponent_convolution():
    f = LAT.basis_class("f")
    s = LAT.basis_class("s")
    k = ExpKernel(LAT, {f.coeffs: 1}) * ExpKernel(LAT, {s.coeffs: 1})
    assert k.sorted_terms() == [((1, 1), Fraction(1))]
    pair = ExpKernel(LAT, {f.coeffs: 1, (-f).coeffs: 1})
    sq = pair * pair
    assert sq.coeff((0, 0)) == 2


def test_hyperbolic_identity():
    v = HClass(LAT, (1, 2))  # f + 2 s
    assert cosh_c(v) * cosh_c(v) - sinh_c(v) * sinh_c(v) == one(LAT)
    assert sinh_c(HClass(LAT, (0, 0))) == zero(LAT)
    assert cosh_c(HClass(LAT, (0, 0))) == one(LAT)
    assert sinh_c(-v) == -sinh_c(v)
    assert cosh_c(-v) == cosh_c(v)


def test_coeff_sum_multiplicative():
    # the evaluation sending every e^kappa to 1 is a ring map
    rng = random.Random(5)
    for _ in range(6):
        a = _random_kernel(rng)
        b = _random_kernel(rng)
        assert sum((a * b).terms.values()) == sum(a.terms.values()) * sum(b.terms.values())


def test_twist_involution_and_error():
    rng = random.Random(9)
    s = LAT.basis_class("s")
    for _ in range(6):
        # keys with even pairing against s: s^2 = -4, f.s = 1 so use even f parts
        terms = {
            (2 * rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(1, 4))
            for _ in range(3)
        }
        k = ExpKernel(LAT, terms)
        assert twist(twist(k, s), s) == k
    bad = ExpKernel(LAT, {(1, 0): 1})  # f.s = 1, s^2 = -4: exponent odd
    with pytest.raises(ValueError):
        twist(bad, s)


def test_exact_div_roundtrip():
    lat = diagonal_lattice(["x"], [0])
    x = lat.basis_class("x")
    rng = random.Random(17)
    for _ in range(8):
        a = ExpKernel(
            lat,
            {(rng.randint(-6, 6),): Fraction(rng.randint(-4, 4)) for _ in range(4)},
        )
        b = sinh_c(x * rng.randint(1, 3)) + cosh_c(x * rng.randint(1, 2))
        if not a or not b:
            continue
        assert exact_div(a * b, b) == a


def test_exact_div_multidirection_collinear():
    # divisor support must lie on one rank-1 direction of the full lattice
    v = HClass(LAT, (1, 2))  # f + 2 s
    q = exact_div(sinh_c(v * 2), sinh_c(v))
    assert q == cosh_c(v) * 2


def test_exact_div_errors():
    lat = diagonal_lattice(["x"], [0])
    x = lat.basis_class("x")
    with pytest.raises(ZeroDivisionError):
        exact_div(one(lat), zero(lat))
    with pytest.raises(ValueError):
        exact_div(ExpKernel(lat, {(1,): 1}), cosh_c(x) * 2)  # remainder is nonzero
    with pytest.raises(ValueError):
        exact_div(one(LAT), ExpKernel(LAT, {(1, 0): 1, (0, 1): 1, (-1, -1): 1}))  # not collinear


def _dense_div(pa: dict, pb: dict) -> dict:
    """Reference Laurent division: dense Fraction long division over every
    slot of the divisor, exponent -> coefficient dicts in and out."""
    lo_a, hi_a = min(pa), max(pa)
    lo_b, hi_b = min(pb), max(pb)
    da, db = hi_a - lo_a, hi_b - lo_b
    if da < db:
        raise ValueError("inexact division: numerator support is too narrow")
    rem = [Fraction(pa.get(lo_a + i, 0)) for i in range(da + 1)]
    den = [Fraction(pb.get(lo_b + i, 0)) for i in range(db + 1)]
    quot = [Fraction(0)] * (da - db + 1)
    for i in range(da, db - 1, -1):
        c = rem[i] / den[db]
        quot[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] -= c * den[j]
    if any(rem):
        raise ValueError("inexact division: nonzero remainder")
    return {i + lo_a - lo_b: c for i, c in enumerate(quot) if c}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _on(direction, poly: dict) -> ExpKernel:
    """The kernel sum c e^{e * direction} on LAT."""
    return ExpKernel(LAT, {tuple(e * x for x in direction): c for e, c in poly.items()})


_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
_LAURENT = st.dictionaries(st.integers(-5, 5), _COEFFS, min_size=1, max_size=5)
# non-monic divisors and divisors of non-unit content: 2e^{2u} + 3e^u, 6 sinh(2u),
# (3 + 3e^u)/2 and the E(40;11,13) leaf's sinh(13u) sinh(11u); then binomials
# lead (x^D - 1), such as the single sinh factors the closed form divides by,
# with lead -1 once the content is out: (5/2)(e^{-u} - e^{3u}) and 1 - e^u
_SPECIAL = [
    {2: Fraction(2), 1: Fraction(3)},
    {2: Fraction(3), -2: Fraction(-3)},
    {0: Fraction(3, 2), 1: Fraction(3, 2)},
    _poly_mul({13: Fraction(1, 2), -13: Fraction(-1, 2)}, {11: Fraction(1, 2), -11: Fraction(-1, 2)}),
    {3: Fraction(-5, 2), -1: Fraction(5, 2)},
    {1: Fraction(-1), 0: Fraction(1)},
]
_DIVISORS = st.one_of(st.sampled_from(_SPECIAL), _LAURENT)
_DIRECTIONS = st.sampled_from([(1, 0), (0, 1), (1, 2), (-2, 3)])
# exponents on a common stride with an offset, e * stride + offset: exact_div
# divides on the stride of all exponent offsets, the dense oracle on every slot
_STRIDES = st.sampled_from([1, 2, 3])
_OFFSETS = st.integers(-3, 3)


def _stretch(poly: dict, stride: int, offset: int) -> dict:
    return {e * stride + offset: c for e, c in poly.items()}


@settings(max_examples=80, deadline=None)
@given(q=_LAURENT, b=_DIVISORS, d=_DIRECTIONS, stride=_STRIDES, oq=_OFFSETS, ob=_OFFSETS)
@example(
    q={0: Fraction(1, 3), 1: Fraction(1, 3)}, b={0: Fraction(3), 1: Fraction(3)}, d=(1, 0),
    stride=1, oq=0, ob=0,
)
@example(q={0: Fraction(1, 2)}, b={2: Fraction(3), -2: Fraction(-3)}, d=(1, 2), stride=1, oq=0, ob=0)
# E(n;p,q)'s divisor sinh(qu) sinh(pu) has only even offsets
@example(q={0: Fraction(1), 1: Fraction(-2)}, b=_SPECIAL[3], d=(0, 1), stride=2, oq=1, ob=0)
@example(q={0: Fraction(1, 3), 2: Fraction(-4)}, b=_SPECIAL[4], d=(-2, 3), stride=3, oq=1, ob=-2)
@example(q={-1: Fraction(2), 0: Fraction(5, 6)}, b=_SPECIAL[5], d=(1, 0), stride=1, oq=0, ob=0)
def test_exact_div_matches_dense_oracle(q, b, d, stride, oq, ob):
    q, b = _stretch(q, stride, oq), _stretch(b, stride, ob)
    prod = _poly_mul(q, b)
    assert _on(d, q) * _on(d, b) == _on(d, prod)
    assert exact_div(_on(d, prod), _on(d, b)) == _on(d, q)
    assert _dense_div(prod, b) == q


@settings(max_examples=80, deadline=None)
@given(
    q=_LAURENT,
    b=_DIVISORS.filter(lambda b: len(b) >= 2),
    d=_DIRECTIONS,
    stride=_STRIDES,
    oq=_OFFSETS,
    ob=_OFFSETS,
    pos=st.integers(-14, 14),
    delta=_COEFFS,
)
# the leading coefficient 2 of the divisor fails to divide 3 at the top step,
# while the low remainder happens to vanish
@example(
    q={1: Fraction(1)}, b={2: Fraction(2), 1: Fraction(3)}, d=(1, 0), stride=1, oq=0, ob=0,
    pos=3, delta=Fraction(1),
)
def test_exact_div_perturbed_product_raises(q, b, d, stride, oq, ob, pos, delta):
    q, b = _stretch(q, stride, oq), _stretch(b, stride, ob)
    prod = _poly_mul(q, b)
    prod[pos] = prod.get(pos, 0) + delta
    prod = {e: c for e, c in prod.items() if c}
    # a divisor with two or more terms never divides a single monomial, so the
    # perturbed product is not a multiple of it
    with pytest.raises(ValueError, match="^inexact division"):
        exact_div(_on(d, prod), _on(d, b))
    with pytest.raises(ValueError, match="^inexact division"):
        _dense_div(prod, b)


@settings(max_examples=80, deadline=None)
@given(
    q=_LAURENT,
    b=_DIVISORS.filter(lambda b: len(b) >= 2),
    d=_DIRECTIONS,
    stride=st.sampled_from([2, 3]),
    oq=_OFFSETS,
    ob=_OFFSETS,
    at=st.integers(0, 100),
)
def test_exact_div_raises_on_a_term_moved_off_the_stride(q, b, d, stride, oq, ob, at):
    q, b = _stretch(q, stride, oq), _stretch(b, stride, ob)
    prod = _poly_mul(q, b)
    e = sorted(prod)[at % len(prod)]
    prod[e + 1] = prod.pop(e)  # e + 1 is off the stride, so no term is there yet
    # the product changed by c x^e (x - 1), which no divisor whose exponents
    # are two or more apart divides
    with pytest.raises(ValueError, match="^inexact division"):
        exact_div(_on(d, prod), _on(d, b))
    with pytest.raises(ValueError, match="^inexact division"):
        _dense_div(prod, b)


def _power_oracle(k: ExpKernel, n: int) -> ExpKernel:
    out = one(k.lattice)
    for _ in range(n):
        out = out * k
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rank=st.integers(1, 6), n=st.integers(0, 8))
def test_power_matches_repeated_products(data, rank, n):
    lat = diagonal_lattice([f"x{i}" for i in range(rank)], [0] * rank)
    coords = st.integers(-3, 3)
    # non-primitive and negative directions: the kernel sits on multiples of d
    d = data.draw(st.tuples(*[coords] * rank).filter(any), label="direction")
    poly = data.draw(_LAURENT, label="poly")
    k = ExpKernel(lat, {tuple(e * x for x in d): c for e, c in poly.items()})
    assert power(k, n) == _power_oracle(k, n)


@pytest.mark.parametrize("n", range(9))
def test_power_of_seeded_kernels(n):
    rng = random.Random(29 + n)
    for rank in range(1, 7):
        lat = diagonal_lattice([f"x{i}" for i in range(rank)], [0] * rank)
        d = tuple(rng.randint(-4, 4) for _ in range(rank))
        if not any(d):
            d = (2,) + d[1:]
        terms = [(rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(4)]
        k = ExpKernel(lat, [(tuple(e * x for x in d), c) for e, c in terms])
        assert power(k, n) == _power_oracle(k, n), (rank, d, k)
        fiber = sinh_c(HClass(lat, d))  # den 2, two terms 2|d| apart
        assert power(fiber, n) == _power_oracle(fiber, n)
        assert power(fiber, n).den == 2**n


def test_power_edge_cases():
    lat = diagonal_lattice(["x", "y"], [0, -1])
    c = one(lat).scale(Fraction(-2, 3))
    for n in range(5):
        assert power(c, n) == one(lat).scale(Fraction(-2, 3) ** n)  # stays a constant
        assert power(zero(lat), n) == (one(lat) if n == 0 else zero(lat))
    assert power(sinh_c(HClass(lat, (1, 2))), 0) == one(lat)
    skew = ExpKernel(lat, {(1, 0): 1, (0, 1): 1})
    assert power(skew, 0) == one(lat)
    for n in (1, 2):
        with pytest.raises(ValueError, match="^exponents are not collinear"):
            power(skew, n)
    with pytest.raises(ValueError, match="n >= 0"):
        power(one(lat), -1)


def test_power_owns_its_dict():
    lat = diagonal_lattice(["x"], [0])
    k = sinh_c(lat.basis_class("x")) + one(lat)
    for n in (0, 1, 3):
        assert _storage(power(k, n)) is not _storage(k)
    assert _storage(power(one(lat), 1)) is not _storage(one(lat))


def test_exact_div_error_messages():
    lat = diagonal_lattice(["x"], [0])
    x = lat.basis_class("x")
    with pytest.raises(ZeroDivisionError, match="^division by the zero kernel$"):
        exact_div(one(lat), zero(lat))
    with pytest.raises(ValueError, match="^inexact division: numerator support is too narrow$"):
        exact_div(ExpKernel(lat, {(1,): 1}), sinh_c(x))
    with pytest.raises(ValueError, match="^inexact division: nonzero remainder$"):
        exact_div(ExpKernel(lat, {(3,): 1, (2,): 1}), ExpKernel(lat, {(2,): 2, (1,): 3}))
    # binomials lead (x^D - 1): x^3 - x + 2 leaves the remainder 2 under
    # x^2 - 1, and sinh(3x) + 1 is no multiple of 4 - 4x^2
    with pytest.raises(ValueError, match="^inexact division: nonzero remainder$"):
        exact_div(ExpKernel(lat, {(3,): 1, (1,): -1, (0,): 2}), ExpKernel(lat, {(2,): 1, (0,): -1}))
    with pytest.raises(ValueError, match="^inexact division: nonzero remainder$"):
        exact_div(sinh_c(x * 3) + one(lat), ExpKernel(lat, {(2,): -4, (0,): 4}))
    f = LAT.basis_class("f")
    skew = ExpKernel(LAT, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    with pytest.raises(ValueError, match="^exponents are not collinear"):
        exact_div(one(LAT), skew)
    assert exact_div(zero(LAT), skew) == zero(LAT)
    assert exact_div(sinh_c(f), one(LAT).scale(Fraction(-2, 3))) == sinh_c(f).scale(Fraction(-3, 2))
    assert exact_div(one(LAT).scale(Fraction(5, 7)), one(LAT).scale(Fraction(-2, 3))) == one(
        LAT
    ).scale(Fraction(-15, 14))


@settings(max_examples=60, deadline=None)
@given(
    poly=_LAURENT,
    d=_DIRECTIONS,
    s=st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(bool),
)
def test_kernel_canonical_form(poly, d, s):
    k = _on(d, poly)
    variants = [
        k.scale(s).scale(1 / s),
        _on(d, {e: c * s for e, c in poly.items()}).scale(1 / s),
        (k * s + k) - k * s,
        ExpKernel(LAT, [(key, c / 2) for key, c in k.terms.items()] * 2),
    ]
    assert k.den > 0
    assert gcd(k.den, *k.num.values()) == 1
    assert all(k.num[key] == c * k.den for key, c in k.terms.items())
    for v in variants:
        assert (v.num, v.den) == (k.num, k.den)
        assert hash(v) == hash(k)
    assert (k - k).den == 1 and not (k - k).num
    assert k.scale(2) != k and k.scale(Fraction(1, 3)) != k


def test_kernel_rejects_non_integral_exponents():
    lat = diagonal_lattice(["x"], [0])
    # (3/2,) used to truncate to 1*e^(1,)
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        ExpKernel(lat, {(Fraction(3, 2),): 1})
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        ExpKernel(lat, [((1.5,), 1)])
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        ExpKernel(lat, {(Fraction(3, 2),): 0})  # checked even when the term drops
    with pytest.raises(ValueError, match=r"non-integral coordinate"):
        ExpKernel._from_ints(lat, {(Fraction(3, 2),): 1}, 1)
    with pytest.raises(ValueError, match=r"^exponent length does not match lattice rank$"):
        ExpKernel._from_ints(lat, {(1, 0): 1}, 1)
    assert ExpKernel(lat, {(Fraction(4, 2),): 1}) == ExpKernel(lat, {(2,): 1})


@pytest.mark.parametrize("at", [0, 2500, 5000])
def test_one_bad_exponent_among_many_valid_ones(at):
    lat = diagonal_lattice(["x", "y"], [0, -1])
    valid = [((i, i % 7), 1) for i in range(5000)]

    def with_term(key):
        return valid[:at] + [(key, 3)] + valid[at:]

    for bad, message in [
        ((Fraction(1, 2), 0), r"non-integral coordinate"),
        ((7,), r"^exponent length does not match lattice rank$"),
        ((1, 2, 3), r"^exponent length does not match lattice rank$"),
    ]:
        for make in (ExpKernel, lambda lat, terms: ExpKernel._from_ints(lat, dict(terms), 1)):
            for terms in (with_term(bad), dict(with_term(bad))):
                with pytest.raises(ValueError, match=message):
                    make(lat, terms)
    # a list exponent is read as its tuple; a bad one raises as the tuple would
    for bad, message in [
        ([Fraction(1, 2), 0], r"non-integral coordinate"),
        ([7], r"^exponent length does not match lattice rank$"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExpKernel(lat, with_term(bad))
    k = ExpKernel(lat, with_term([-1, 2]))
    assert k.num[(-1, 2)] == 3 and len(k) == 5001
    # exact ints are stored: True becomes 1, an integral Fraction its int
    for odd in [(True, 0), (Fraction(-4, 2), False)]:
        terms = dict(with_term(odd))
        for k in (ExpKernel(lat, terms), ExpKernel._from_ints(lat, terms, 1)):
            assert len(k) == 5001 and k.num[tuple(map(int, odd))] == 3
            assert {type(x) for key in k.num for x in key} == {int}


def test_refine_lattice_composition():
    lat = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])
    f = lat.basis_class("f")
    single = refined_lattice(lat, f, 6, "f_6")
    halfway = refined_lattice(lat, f, 2, "f_2")
    double = refined_lattice(halfway, halfway.basis_class("f_2"), 3, "f_6")
    assert single.basis_names == ("f_6", "s")
    assert single == double


def test_refined_lattice_gram_scaling():
    lat = IntersectionLattice(["f", "s"], [[4, 2], [2, -4]])
    new = refined_lattice(lat, lat.basis_class("f"), 2, "f_2")
    assert tuple(new.basis_names) == ("f_2", "s")
    # f = 2 f_2 so f_2^2 = 4/4 = 1 and f_2.s = 2/2 = 1
    assert new.den == 1
    assert new.num == ((1, 1), (1, -4))


def _storage(k: ExpKernel) -> dict:
    """The dict behind a kernel's read-only `num`."""
    (store,) = gc.get_referents(k.num)
    return store


def test_kernels_never_share_their_dicts():
    # the public constructor copies the caller's mapping, int-valued or not
    for d in ({(1, 0): 2, (0, 0): 3}, {(1, 0): Fraction(2), (0, 0): Fraction(3, 2)}):
        k = ExpKernel(LAT, d)
        before = dict(k.num)
        d[(1, 0)] = 7
        d[(5, 5)] = 1
        assert dict(k.num) == before and _storage(k) is not d
    # each operation builds its own dict, never its input's
    k = ExpKernel(LAT, {(1, 0): 2, (0, 0): 3})
    assert _storage(k.scale(1)) is not _storage(k)
    assert _storage(k.scale(Fraction(1, 2))) is not _storage(k)
    series = donaldson_closed_form("E(3)")
    f = series.lattice.basis_class("f")
    for out in (blowup(series), blowup(series, 3), log_transform(series, f, 3)):
        assert _storage(out.kernel) is not _storage(series.kernel)
    # a copy or a pickle round trip is equal to the original and independent of it
    for twin in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert twin == k and twin.num == k.num
        assert _storage(twin) is not _storage(k)
