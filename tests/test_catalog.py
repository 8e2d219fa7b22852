from fractions import Fraction

import pytest

import blowdown.catalog as catalog
from blowdown.catalog import (
    MAX_SPEC_DEPTH,
    ROUTES,
    SERIES_RULES,
    SW_RULES,
    BlowupSpec,
    EllipticSpec,
    HpSumSpec,
    HSpec,
    LogSpec,
    SpecParseError,
    WSpec,
    YSpec,
    donaldson_closed_form,
    donaldson_pipeline,
    parse_spec,
    render,
    run,
    surgery_plan,
    sw_closed_form,
    walk,
)
from blowdown.audit import adjunction_audit
from blowdown.exppoly import ExpKernel, cosh_c, sinh_c
from blowdown.lattice import pairing
from blowdown.reporting import CheckReport
from blowdown.swinv import witten_check, witten_diff
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
    real = catalog.run

    def corrupt(m):
        num = {**m.kernel.num, (0,): 1, (2,): 1}
        return ManifoldSeries(ExpKernel._from_ints(m.lattice, num, m.kernel.den), m.euler, m.signature)

    def corrupted(plan, route):
        m, chains = real(plan, route)
        return corrupt(m), chains

    monkeypatch.setattr(catalog, "run", corrupted)
    spec = "blowup(H(6),3)"
    literal = blowup(corrupt(donaldson_closed_form("H(6)")), 3)
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
        series, sw = run(plan, "pipeline")[1], run(plan, "sw")[1]
        assert [(st, pre, res.class_map) for st, pre, res in series] == [
            (st, pre, res.class_map) for st, pre, res in sw
        ], s
        compared += len(series)
    assert compared == 53


# (calculus, rule, home module, function, spec, calls): each step rule of
# SERIES_RULES and SW_RULES, run by `run`, and each blowup rule of ROUTES,
# run by the witten verb once per calculus
RULE_HOMES = [
    ("series", "chain", "chain_surgery", "taut_blowdown", "H(5)", 2),
    ("series", "logt", "transform", "log_transform", "E(3;2,3)", 2),
    ("series", "hpsum", "nodal", "connected_sum_hp", "hpsum(E(2),3)", 1),
    ("sw", "chain", "swinv", "sw_taut_blowdown", "H(5)", 2),
    ("sw", "logt", "swinv", "sw_log_transform", "E(3;2,3)", 2),
    ("series", "blowup", "transform", "blowup", "blowup(E(4),3)", 1),
    ("sw", "blowup", "swinv", "sw_blowup", "blowup(E(4),3)", 1),
]


def test_replay_rules_look_transforms_up_when_called(monkeypatch, capsys):
    import importlib

    from blowdown.cli import main

    rules = {"series": [*SERIES_RULES, "blowup"], "sw": [*SW_RULES, "blowup"]}
    assert sorted(case[:2] for case in RULE_HOMES) == sorted(
        (calculus, op) for calculus, ops in rules.items() for op in ops
    )
    for calculus, op, home, name, spec, calls in RULE_HOMES:
        module, seen = importlib.import_module(f"blowdown.{home}"), []
        real = getattr(module, name)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, lambda *a, **kw: seen.append(a) or real(*a, **kw))
            if op == "blowup":
                assert main(["witten", spec]) == 0
            else:
                run(surgery_plan(spec), "pipeline" if calculus == "series" else "sw")
        assert len(seen) == calls, (calculus, op)
    capsys.readouterr()


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


def route_walk(plan, route):
    """The walk of a plan on one route, from the route's own seed."""
    seed, rules, _ = ROUTES[route]
    m, first = seed(plan)
    return walk(m, plan.steps[first:], rules)


def stepwise_failures(specs):
    """(spec, step) of the first point where the pipeline series and the
    basic-class map differ, per spec, and the number of points compared."""
    failed, compared = [], 0
    for s in specs:
        plan = surgery_plan(s)
        walks = zip(route_walk(plan, "pipeline"), route_walk(plan, "sw"), strict=True)
        for (step, series, _), (sw_step, swmap, _) in walks:
            assert step is sw_step
            compared += 1
            if witten_diff(series, swmap) is not None:
                failed.append((s, step))
                break
    return failed, compared


def test_the_two_calculi_agree_after_every_step():
    from blowdown.suites import witten_specs

    assert stepwise_failures(witten_specs()) == ([], 146)


def test_stepwise_comparison_sees_a_seed_the_end_result_hides(monkeypatch, capsys):
    # the mutant triples the elliptic map's value on the fiber class 0; W(n)
    # seeds E(4), whose class 0 its chain steps drop, so witten passes it
    import blowdown.swinv as swinv
    from blowdown.cli import main
    from blowdown.suites import witten_specs

    real = swinv.sw_en

    def tripled(n):
        m = real(n)
        values = {key: 3 * v if key == (0,) else v for key, v in m.values.items()}
        return swinv.SWMap(ExpKernel._from_ints(m.lattice, values, 1), m.euler, m.signature)

    monkeypatch.setattr(swinv, "sw_en", tripled)
    failed, _ = stepwise_failures(witten_specs())
    assert len(failed) == 29 and all(step is None for _, step in failed)
    assert {f"W({n})" for n in range(1, 9)} <= {s for s, _ in failed}
    assert main(["witten", "W(3)"]) == 0 and capsys.readouterr().out.startswith("PASS")


@pytest.mark.parametrize("verb", ["sw", "witten"])
@pytest.mark.parametrize(
    "spec, why",
    [
        ("hpsum(E(3),2)", "no value-transfer rule for homology-ball sums"),
        ("E(2;2,3;5,7;11,13)", "three-pair transforms collide"),
    ],
)
def test_the_gap_check_raises_before_any_lattice_is_built(monkeypatch, capsys, verb, spec, why):
    from blowdown.cli import main

    main([verb, "E(3;2)"])  # warm up: load the verb's layers
    capsys.readouterr()
    ranks = _count_lattice_builds(monkeypatch)
    assert main([verb, spec]) == 3
    error = f"error: {spec} is outside the basic-class covered family ({why})\n"
    assert capsys.readouterr() == ("", error)
    assert ranks == []


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "blowup(logt(E(3;2),3),2)"],
        ["series", "blowup(H(6),1)", "--route", "pipeline"],
        ["logt", "blowup(E(3;2),1)", "3"],
        ["sw", "blowup(W(2),1)"],
        ["witten", "blowup(Y(5),2)"],
        ["audit", "blowup(H(6),1)"],
        ["blowdown", "E(6)", "--horikawa", "2"],
        ["blowdown", "E(4)", "--sections", "3"],
    ],
)
def test_each_invocation_plans_its_spec_once(monkeypatch, capsys, argv):
    from blowdown.cli import main

    planned = []
    real = catalog.surgery_plan
    monkeypatch.setattr(catalog, "surgery_plan", lambda spec: planned.append(spec) or real(spec))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(planned) == 1
