import itertools

import pytest

from blowdown import moduli
from blowdown.plumbing import RelClass, Residue, boundary, rel_pairing
from blowdown.moduli import (
    CanonicalClass,
    canonical_tb,
    corr,
    dim_moduli,
    dim_report,
    e_square,
    rho_half_closed_form,
    verify_boundary_value_lemmas,
)


def _canon(p, t, b):
    return CanonicalClass(p, t, b).rel_class()


def test_e_square_matches_general():
    for p in range(2, 7):
        for t in range(4):
            for b in range(1, p):
                e = _canon(p, t, b)
                assert e_square(p, t, b) == rel_pairing(e, e)


def test_canonical_class_shape():
    e = _canon(5, 2, 3)
    assert e.coeffs == (2, 3, 3, 3)
    assert boundary(e).value == CanonicalClass(5, 2, 3).boundary_value()
    with pytest.raises(ValueError):
        CanonicalClass(5, 2, 0)
    with pytest.raises(ValueError):
        CanonicalClass(5, 2, 5)
    with pytest.raises(ValueError):
        CanonicalClass(5, -1, 1)


def test_dim_canonical_small_grid():
    # 2t-1 holds while the boundary (p-1)t+b stays below p^2 (t <= p); a
    # wrapped class follows the equal-boundary law against its reduced step
    # class, or -2e^2 - 3 when its boundary is trivial.
    wrapped = 0
    for p in range(2, 6):
        for t in range(4):
            for b in range(1, p):
                if t <= p:
                    want = 2 * t - 1
                else:
                    wrapped += 1
                    reduced = canonical_tb(p, (p - 1) * t + b)
                    if reduced is None:
                        want = -2 * e_square(p, t, b) - 3
                    else:
                        t0, b0 = reduced
                        want = (2 * t0 - 1) - 2 * (e_square(p, t, b) - e_square(p, t0, b0))
                assert dim_moduli(_canon(p, t, b)) == want, (p, t, b)
    assert wrapped == 1


def test_dim_arbitrary_classes():
    rep = dim_report(RelClass(5, (0, 0, 1, 1)))
    assert rep.dim == -1
    assert rep.boundary.value == 2
    rep = dim_report(RelClass(2, (4,)))
    assert rep.dim == 5
    assert rep.e_square == -4


def test_corr_anchoring():
    for p in range(2, 6):
        for t in range(3):
            for b in range(1, p):
                m = CanonicalClass(p, t, b).boundary_value()
                want = -2 * e_square(p, t, b) - 2 - (2 * t - 1)
                assert corr(p, m) == want
                assert corr(p, m) == -rho_half_closed_form(p, t, b)
                assert corr(p, Residue(m, p * p)) == want
    with pytest.raises(ValueError):
        corr(3, Residue(1, 4))


def test_canonical_tb_roundtrip():
    for p in range(2, 7):
        for t in range(3):
            for b in range(1, p):
                m = CanonicalClass(p, t, b).boundary_value()
                if m < p * p:
                    assert canonical_tb(p, m) == (t, b)
        assert canonical_tb(p, 0) is None


def test_canonical_class_attains_the_least_dimension_in_its_box():
    # <1, 2; 1> at p = 3 has dimension 1, the least over the classes of
    # [-4, 4]^2 with its coordinate parities and its boundary
    e = _canon(3, 1, 1)
    rivals = [
        RelClass(3, c)
        for c in itertools.product(range(-4, 5), repeat=2)
        if all((x - y) % 2 == 0 for x, y in zip(c, e.coeffs))
        and boundary(RelClass(3, c)) == boundary(e)
    ]
    assert e in rivals and dim_moduli(e) == 1
    assert min(map(dim_moduli, rivals)) == 1


def test_boundary_value_lemmas_small():
    for p in range(2, 5):
        reports = verify_boundary_value_lemmas(p, t_max=1, box=3)
        assert reports and all(r.passed for r in reports)
        assert all(not r.counterexamples for r in reports)


def test_boundary_value_lemmas_sum_shift_box():
    # At box 4 no class has a sum m0 + r p^2 with r not in {0, -1}, so test_03
    # cannot fail law 1.  Box 5 at p = 2 and p + 2 above it reach r = 1 for some
    # step class ((p-1)(p+1) = p^2 - 1 falls one short), and all four laws hold.
    for p in range(2, 10):
        box = 5 if p == 2 else p + 2
        smax, psq = (p - 1) * box, p * p
        shifted = [
            m0 + r * psq
            for t in range(3)
            for m0 in ((p - 1) * t + b for b in range(1, p))
            if 2 * m0 <= psq
            for r in range(-box, box + 1)
            if r not in (0, -1) and -smax <= m0 + r * psq <= smax
        ]
        assert shifted, p
        reports = verify_boundary_value_lemmas(p, t_max=2, box=box)
        assert [r.name for r in reports] == [f"boundary-value {law}" for law in LAWS]
        for r in reports:
            assert r.passed and not r.counterexamples, (p, box, r.name, r.counterexamples)
            assert r.parameters == {"t_max": 2, "box": box}


def test_step_class_alone_in_its_state():
    # the tie law skips e's own (sum, square-sum, odd count) state: at a fixed
    # sum the balanced multiset e is the only one of least square-sum
    for p in range(2, 7):
        box = 4
        by_state = {}
        for ms in itertools.combinations_with_replacement(range(-box, box + 1), p - 1):
            by_state.setdefault((sum(ms), sum(c * c for c in ms)), []).append(ms)
        for t in range(box):
            for b in range(1, p):
                e = _canon(p, t, b).coeffs
                assert by_state[sum(e), sum(c * c for c in e)] == [e]
                assert min(q for s, q in by_state if s == sum(e)) == sum(c * c for c in e)


def test_ncorr_table_is_corr_in_integers(monkeypatch):
    # the table and corr read one integer numerator: equal for every boundary
    for p in range(2, 13):
        table = moduli._ncorr_table(p)
        assert len(table) == p * p and set(map(type, table)) == {int}
        assert all(table[m] == p * p * corr(p, m) for m in range(p * p)), p
    # an entry off by one is not a multiple of p^2: the lemma check raises
    # instead of truncating, and an integrality assert would vanish under -O
    table = list(moduli._ncorr_table(3))
    table[0] += 1
    monkeypatch.setattr(moduli, "_ncorr_table", lambda p: tuple(table))
    with pytest.raises(ValueError, match="non-integral dimension"):
        verify_boundary_value_lemmas(3, t_max=0, box=1)


def test_boundary_value_lemmas_reject_empty_scans():
    for kwargs in ({"p": 1}, {"p": 3, "box": -1}, {"p": 3, "t_max": -1}):
        with pytest.raises(ValueError):
            verify_boundary_value_lemmas(**kwargs)
    assert len(verify_boundary_value_lemmas(2, t_max=0, box=0)) == 4


LAWS = ("sum-shift", "tie", "monotone", "quantized-gap")


def _brute_force_verdicts(p, t_max, box):
    """The four laws by a plain scan of every vector of the box (parity
    vectors of e for laws 3 and 4), with the dimension the verifier uses."""
    psq = p * p
    ncorr = moduli._ncorr_table(p)

    def dim(v):
        return moduli._dim_from_sums(p, sum(v), sum(c * c for c in v), ncorr)

    def fold(s):
        return min(s % psq, -s % psq)

    dims = {v: dim(v) for v in itertools.product(range(-box, box + 1), repeat=p - 1)}
    ok = dict.fromkeys(LAWS, True)
    for t in range(t_max + 1):
        for b in range(1, p):
            m0 = (p - 1) * t + b
            if 2 * m0 > psq:
                continue
            e = (t,) * (p - 1 - b) + (t + 1,) * b
            dim_e = dim(e)
            for v, d in dims.items():
                s = sum(v)
                r, rem = divmod(s - m0, psq)
                if not rem and r not in (0, -1) and d <= dim_e:
                    ok["sum-shift"] = False
                if s == m0 and d <= dim_e and sorted(v) != sorted(e):
                    ok["tie"] = False
                if all((x - y) % 2 == 0 for x, y in zip(v, e)):
                    if d <= dim_e and fold(s) > fold(m0):
                        ok["monotone"] = False
                    if fold(s) == fold(m0) and (d < dim_e or (d - dim_e) % 4):
                        ok["quantized-gap"] = False
    return [ok[law] for law in LAWS]


def _check_named_classes(law, p, box, ce, dim, table, by_state):
    """Every class that counterexample ce names, recomputed from its
    coordinates, breaks `law` against ce["e"] and is the least sorted multiset
    of its (sum, square-sum, odd count) state."""
    psq, e, dim_e = p * p, ce["e"], ce["dim_e"]
    m0 = sum(e)  # the boundary value of a step class, at most p^2/2
    assert list(e) == sorted(e) and dim_e == dim(p, m0, sum(c * c for c in e), table)
    named = ce.get("classes", [ce.get("class")])
    assert named
    for cls in named:
        assert len(cls) == p - 1 and all(abs(c) <= box for c in cls)
        state = (sum(cls), sum(c * c for c in cls), sum(c & 1 for c in cls))
        s, q, odd = state
        d, fold = dim(p, s, q, table), min(s % psq, -s % psq)
        assert cls == min(by_state[state])
        if "dim" in ce:
            assert ce["dim"] == d
        if law == "sum-shift":
            assert ce["r"] not in (0, -1) and s == m0 + ce["r"] * psq and d <= dim_e
        elif law == "tie":
            assert s == m0 and d <= dim_e and cls != e
        else:
            assert odd == sum(c & 1 for c in e)
            if law == "monotone":
                assert d <= dim_e and fold > m0 and fold == ce["fold"]
            else:
                assert fold == m0 and (d < dim_e or (d - dim_e) % 4)


def test_boundary_value_lemmas_match_brute_force_under_corruption(monkeypatch):
    # A correction entry shifted by a multiple of p^2 keeps every dimension
    # integral and moves the dimensions of one boundary value, which breaks
    # the monotone and quantized-gap laws; corr itself is never touched.
    # Laws 1 and 2 compare classes of one residue, so only a corrupted
    # dimension formula breaks them: the square-sum term with its sign
    # flipped, one constant dimension (ties everywhere), or negative sums
    # sunk by a multiple of 4.  The sum-shift law has candidates only once the
    # box reaches a sum m0 + r p^2 with r not in {0, -1}: hence the extra
    # boxes of size 5 and 6.
    true_table, true_dim = moduli._ncorr_table, moduli._dim_from_sums

    def flipped(p, s, q, ncorr):
        return true_dim(p, s, q, ncorr) - 4 * q

    def flat(p, s, q, ncorr):
        return 0

    def sunk(p, s, q, ncorr):
        return true_dim(p, s, q, ncorr) - (400 if s < 0 else 0)

    grids = [(p, box, t_max) for p in range(2, 6) for box, t_max in ((1, 0), (2, 1), (3, 2))]
    failed = dict.fromkeys(LAWS, 0)
    for p, box, t_max in grids + [(2, 5, 2), (2, 6, 2), (3, 5, 2)]:
        psq = p * p
        by_state = {}
        for ms in itertools.combinations_with_replacement(range(-box, box + 1), p - 1):
            state = (sum(ms), sum(c * c for c in ms), sum(c & 1 for c in ms))
            by_state.setdefault(state, []).append(ms)
        variants = [(true_table(p), dim) for dim in (true_dim, flipped, flat, sunk)]
        for m in range(0, psq, max(1, psq // 5)):
            for k in (1, -2):
                table = list(true_table(p))
                table[m] += k * psq
                variants.append((tuple(table), true_dim))
        for table, dim in variants:
            monkeypatch.setattr(moduli, "_ncorr_table", lambda q, table=table: table)
            monkeypatch.setattr(moduli, "_dim_from_sums", dim)
            reports = verify_boundary_value_lemmas(p, t_max=t_max, box=box)
            want = _brute_force_verdicts(p, t_max, box)
            assert [r.passed for r in reports] == want, (p, box, t_max, table, dim)
            for law, r in zip(LAWS, reports):
                assert r.name == f"boundary-value {law}"
                assert bool(r.counterexamples) == (not r.passed)
                failed[law] += not r.passed
                for ce in r.counterexamples:
                    _check_named_classes(law, p, box, ce, dim, table, by_state)
    assert all(failed.values()), failed
