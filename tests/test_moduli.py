import itertools

import pytest

from blowdown import moduli
from blowdown.lattice import RelClass, Residue, boundary, rel_pairing
from blowdown.moduli import (
    CanonicalClass,
    canonical_tb,
    corr,
    dim_moduli,
    dim_report,
    e_square,
    min_dim_search,
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


def test_min_dim_search_finds_canonical():
    e = _canon(3, 1, 1)
    best, minimizers = min_dim_search(3, boundary(e), e, box=4)
    assert best == 1
    assert any(m.coeffs == e.coeffs for m in minimizers)


def test_min_dim_search_empty_raises():
    parity = RelClass(2, (1,))
    with pytest.raises(ValueError):
        min_dim_search(2, 1, parity, box=0)


def test_boundary_value_lemmas_small():
    for p in range(2, 5):
        reports = verify_boundary_value_lemmas(p, t_max=1, box=3)
        assert reports and all(r.passed for r in reports)
        assert all(not r.counterexamples for r in reports)


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
                    for cls in ce.get("classes", [ce.get("class")]):
                        assert list(cls) == sorted(cls)
    assert all(failed.values()), failed
