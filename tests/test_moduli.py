import pytest

from blowdown.lattice import RelClass, Residue, boundary, plumbing_matrix
from blowdown.moduli import (
    CanonicalClass,
    canonical_tb,
    corr,
    dim_moduli,
    dim_report,
    e_square,
    general_e_square,
    min_dim_search,
    mod2_lift_exists,
    rho_half_closed_form,
    verify_boundary_value_lemmas,
)


def _canon(p, t, b):
    return CanonicalClass(p, t, b).rel_class()


def test_e_square_matches_general():
    for p in range(2, 7):
        for t in range(4):
            for b in range(1, p):
                assert e_square(p, t, b) == general_e_square(_canon(p, t, b))


def test_canonical_class_shape():
    e = _canon(5, 2, 3)
    assert e.delta_coords() == (2, 3, 3, 3)
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
    assert any(m.delta_coords() == e.delta_coords() for m in minimizers)


def test_min_dim_search_empty_raises():
    parity = RelClass(2, (1,))
    with pytest.raises(ValueError):
        min_dim_search(2, 1, parity, box=0)


def test_mod2_lift_parity_rule():
    for p in (3, 5):
        for coords in ((1, 0) + (0,) * (p - 3), (1,) * (p - 1)):
            ok, witness = mod2_lift_exists(p, RelClass(p, coords))
            assert ok and witness is not None
            # witness solves P c = gamma coords of e over GF(2)
            rhs = [g % 2 for g in RelClass(p, coords).gamma_coords()]
            pm = plumbing_matrix(p)
            got = [sum(pm[i][j] * witness[j] for j in range(p - 1)) % 2 for i in range(p - 1)]
            assert got == rhs
    ok, witness = mod2_lift_exists(2, RelClass(2, (1,)))
    assert not ok and witness is None
    ok, _ = mod2_lift_exists(2, RelClass(2, (2,)))
    assert ok
    ok, witness = mod2_lift_exists(4, RelClass(4, (1, 0, 0)))
    assert not ok and witness is None
    ok, _ = mod2_lift_exists(4, RelClass(4, (1, 1, 0)))
    assert ok


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
