from fractions import Fraction

import pytest

import blowdown.catalog as catalog
from blowdown.catalog import (
    MAX_SPEC_DEPTH,
    SERIES_RULES,
    BlowupSpec,
    EllipticSpec,
    HpSumSpec,
    HSpec,
    LogSpec,
    SpecParseError,
    WSpec,
    YSpec,
    adjunction_audit,
    donaldson_closed_form,
    donaldson_pipeline,
    parse_spec,
    render,
    replay,
    surgery_plan,
    sw_closed_form,
    sw_replay,
)
from blowdown.exppoly import ExpKernel, cosh_c, sinh_c
from blowdown.lattice import pairing
from blowdown.reporting import CheckReport
from blowdown.swinv import witten_check
from blowdown.transform import ManifoldSeries, blowup


def test_parse_render_roundtrip():
    for text, node in [
        ("E(2)", EllipticSpec(2)),
        ("E(3;2)", EllipticSpec(3, ((2, 1),))),
        ("E(2;2,3)", EllipticSpec(2, ((2, 3),))),
        ("E(2;2,3;2,5;3,4)", EllipticSpec(2, ((2, 3), (2, 5), (3, 4)))),
        ("W(5)", WSpec(5)),
        ("Y(6)", YSpec(6)),
        ("H(4)", HSpec(4)),
        ("blowup(E(3),2)", BlowupSpec(EllipticSpec(3), 2)),
        ("logt(E(2;2),3)", LogSpec(EllipticSpec(2, ((2, 1),)), 3)),
        ("hpsum(W(2),3)", HpSumSpec(WSpec(2), 3)),
        ("logt(blowup(E(2),1),2)", LogSpec(BlowupSpec(EllipticSpec(2), 1), 2)),
    ]:
        assert parse_spec(text) == node
        assert parse_spec(render(node)) == node
    # whitespace never matters
    assert parse_spec(" E( 2 ; 2 , 3 ) ") == EllipticSpec(2, ((2, 3),))
    assert render(EllipticSpec(3, ((2, 1),))) == "E(3;2)"


def test_parse_errors_carry_position():
    for text in ("", "E(", "E(2;;3)", "E(2)x", "Q(2)", "blowup(E(2))", "E(2;2;3)"):
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert hasattr(err.value, "pos")


def test_parse_rejects_nesting_past_the_depth_limit():
    def nested(depth):
        return "logt(" * depth + "E(2)" + ",1)" * depth

    assert parse_spec(nested(MAX_SPEC_DEPTH)) is not None
    with pytest.raises(SpecParseError) as err:
        parse_spec(nested(MAX_SPEC_DEPTH + 1))
    # the combinator one past the limit
    assert err.value.pos == len("logt(") * MAX_SPEC_DEPTH


def test_spec_validation():
    with pytest.raises(ValueError):
        parse_spec("E(1)")
    with pytest.raises(ValueError):
        parse_spec("E(2;2,4)")  # not coprime
    with pytest.raises(ValueError):
        parse_spec("W(9)")
    with pytest.raises(ValueError):
        parse_spec("Y(3)")
    with pytest.raises(ValueError):
        parse_spec("H(3)")
    with pytest.raises(ValueError):
        parse_spec("blowup(E(2),0)")
    with pytest.raises(ValueError):
        parse_spec("hpsum(E(2),0)")
    with pytest.raises(ValueError):
        parse_spec("E(2;2,3;2,5)")  # two pairs: neither one nor three


def test_dual_routes_agree_everywhere():
    specs = [f"E({n})" for n in range(2, 7)]
    for n in range(2, 6):
        for pq in ("2", "3", "2,3", "2,5", "3,4", "3,5"):
            specs.append(f"E({n};{pq})")
    specs += [f"W({n})" for n in range(1, 9)]
    specs += [f"Y({n})" for n in range(4, 9)]
    specs += [f"H({n})" for n in range(4, 9)]
    specs += [
        "E(2;2,3;2,5;3,4)",
        "blowup(E(3),2)",
        "logt(E(2;2),3)",
        "hpsum(W(2),3)",
    ]
    for s in specs:
        assert donaldson_pipeline(s) == donaldson_closed_form(s), s


def test_w_and_h_overlap():
    assert donaldson_closed_form("H(4)") == donaldson_closed_form("W(2)")
    assert sw_closed_form("H(4)") == sw_closed_form("W(2)")


def test_w_closed_forms():
    for n in range(1, 9):
        m = donaldson_closed_form(f"W({n})")
        k = m.lattice.basis_class("k")
        assert m.kernel == cosh_c(k) * Fraction(2) ** (n - 1)
        assert pairing(k, k) == n
        assert (m.euler, m.signature) == (48 - n, -32 + n)


def test_y_h_closed_forms():
    for n in range(4, 9):
        y = donaldson_closed_form(f"Y({n})")
        lam = y.lattice.basis_class("lam")
        wave = sinh_c if n % 2 else cosh_c
        assert y.kernel == wave(lam)
        assert pairing(lam, lam) == n - 3
        assert (y.euler, y.signature) == (11 * n + 3, -7 * n - 3)
        h = donaldson_closed_form(f"H({n})")
        k = h.lattice.basis_class("k")
        assert h.kernel == wave(k) * Fraction(2) ** (n - 3)
        assert pairing(k, k) == 2 * n - 6
        assert (h.euler, h.signature) == (10 * n + 6, -6 * n - 6)


def test_characteristic_line_identities():
    for n in range(4, 11):
        h = donaldson_pipeline(f"H({n})")
        c1sq = 3 * h.signature + 2 * h.euler
        assert 5 * c1sq - h.euler + 36 == 0
        y = donaldson_pipeline(f"Y({n})")
        c1sq = 3 * y.signature + 2 * y.euler
        assert 11 * c1sq - y.euler + 36 == 0


def test_sw_covered_family():
    for s in ("E(3;2,5)", "W(4)", "blowup(E(2),2)"):
        assert surgery_plan(s).sw_gap is None, s
    assert surgery_plan("E(2;2,3;2,5;3,4)").sw_gap == (
        "E(2;2,3;2,5;3,4) is outside the basic-class covered family (three-pair transforms collide)"
    )
    # the gap names the node as typed, blowups included
    assert surgery_plan("hpsum(blowup(E(2),1),3)").sw_gap == (
        "hpsum(blowup(E(2),1),3) is outside the basic-class covered family "
        "(no value-transfer rule for homology-ball sums)"
    )
    with pytest.raises(ValueError):
        sw_closed_form("E(2;2,3;2,5;3,4)")
    with pytest.raises(ValueError):
        sw_closed_form("hpsum(E(2),3)")


def test_witten_check_on_catalog():
    for s in ("E(2)", "E(4)", "E(3;2,5)", "W(3)", "Y(6)", "H(5)", "blowup(E(3),1)", "logt(E(2;2),3)"):
        assert witten_check(donaldson_closed_form(s), sw_closed_form(s)), s


def test_adjunction_audit_reports():
    for s in ("E(3)", "W(5)", "Y(6)", "H(6)", "blowup(E(2),1)"):
        reports = adjunction_audit(s)
        assert reports and all(r.passed for r in reports)
    names = {r.name for r in adjunction_audit("E(3)")}
    assert "elliptic-canonical-square-zero" in names
    assert {r.name for r in adjunction_audit("H(6)")} >= {"noether-line"}
    assert {r.name for r in adjunction_audit("Y(6)")} >= {"bisecting-line"}


def test_audit_of_a_bad_base_class_equals_the_literal_expansion(monkeypatch):
    # H(6)'s classes +-k have the target square 6; the mutant adds 0 and 2k
    real = catalog.donaldson_closed_form

    def corrupted(spec):
        m = real(spec)
        num = {**m.kernel.num, (0,): 1, (2,): 1}
        return ManifoldSeries(ExpKernel._from_ints(m.lattice, num, m.kernel.den), m.euler, m.signature)

    monkeypatch.setattr(catalog, "donaldson_closed_form", corrupted)
    spec = "blowup(H(6),3)"
    literal = blowup(corrupted("H(6)"), 3)
    target = 3 * literal.signature + 2 * literal.euler
    bad = [list(c.coeffs) for c in literal.basic_classes() if pairing(c, c) != target]
    assert len(bad) == 16 and bad[0] == [0, -1, -1, -1] and bad[-1] == [2, 1, 1, 1]
    params = {"spec": spec, "expected_square": target}
    want = CheckReport("basic-class-square", False, parameters=params, counterexamples=bad)
    assert adjunction_audit(spec) == [want]


def test_render_canonicalizes_single_multiplicity():
    assert render(parse_spec("E(3;4,1)")) == "E(3;4)"
    # the two orderings are the same surface and the same series
    assert donaldson_closed_form("E(3;1,4)") == donaldson_closed_form("E(3;4)")


def test_sw_covered_matches_sw_closed_form():
    from blowdown.suites import witten_specs

    specs = witten_specs() + [
        "logt(W(1),2)",
        "logt(H(4),3)",
        "blowup(logt(Y(5),2),1)",
        "hpsum(E(2),3)",
        "E(2;2,3;5,7;11,13)",
        "logt(E(2;2),2)",
        "logt(blowup(E(3;3),1),6)",
        "logt(E(2;2),3)",
    ]
    for s in specs:
        try:
            sw_closed_form(s)
            defined = True
        except ValueError:
            defined = False
        try:
            covered = surgery_plan(s).sw_gap is None
        except ValueError:  # the spec does not plan
            covered = False
        assert covered == defined, s


def test_series_and_sw_replays_give_equal_chain_class_maps():
    # whole records: source, status, residue, reason, extension and image
    specs = [f"W({n})" for n in range(1, 9)] + [f"{x}({n})" for x in "YH" for n in range(4, 9)]
    compared = 0
    for s in specs + ["blowup(H(6),2)"]:
        plan = surgery_plan(s)
        series = replay(plan.seed_series(), plan.steps, SERIES_RULES)[1]
        sw = sw_replay(s)[1]
        assert [(st, pre, res.class_map) for st, pre, res in series] == [
            (st, pre, res.class_map) for st, pre, res in sw
        ], s
        compared += len(series)
    assert compared == 53


def test_replay_rules_look_transforms_up_when_called(monkeypatch):
    import blowdown.chain_surgery as chain_surgery
    import blowdown.swinv as swinv

    calls = []
    for module, name in ((chain_surgery, "taut_blowdown"), (swinv, "sw_taut_blowdown")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    catalog.donaldson_pipeline("H(5)")
    catalog.sw_closed_form("H(5)")
    assert calls == ["taut_blowdown"] * 2 + ["sw_taut_blowdown"] * 2


def _count_lattice_builds(monkeypatch) -> list[int]:
    """The rank of every IntersectionLattice built from here on."""
    from blowdown.lattice import IntersectionLattice

    ranks = []
    real = IntersectionLattice.__init__

    def counting(self, basis_names, *args, **kwargs):
        ranks.append(len(basis_names))
        real(self, basis_names, *args, **kwargs)

    monkeypatch.setattr(IntersectionLattice, "__init__", counting)
    return ranks


def test_a_plan_builds_its_ambient_lattice_only_when_seeded(monkeypatch, capsys):
    from blowdown.cli import main

    ranks = _count_lattice_builds(monkeypatch)
    plan = surgery_plan("H(40)")
    assert [step.n for step in plan.chains] == [38, 38] and ranks == []
    assert plan.ambient().rank == 75 and ranks == [75]
    ranks.clear()
    # the coverage test and the closed route never seed on the ambient model
    assert surgery_plan("H(40)").sw_gap is None
    assert donaldson_closed_form("H(40)").lattice.rank == 1
    assert 75 not in ranks
    # witten seeds one plan: its rank-75 ambient is built once, not once per plan
    ranks.clear()
    assert main(["witten", "H(40)"]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    assert ranks.count(75) == 1
    # Y keeps both chains for its ambient model and blows down only the first
    plan = surgery_plan("Y(6)")
    assert [step.image for step in plan.chains] == ["lam", "k"]
    assert plan.steps == plan.chains[:1] and plan.ambient().rank == 7
    assert surgery_plan("E(3;2,5)").chains == ()
    assert surgery_plan("E(3;2,5)").ambient().basis_names == ("f",)
