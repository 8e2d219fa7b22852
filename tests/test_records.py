"""The slot records and the lazy package exports keep the semantics of the
frozen dataclasses and eager imports they replaced: equality by exact type,
hashing, refused assignment, unshared defaults, reprs and export identity.
Every value type, lattices, kernels, chain configurations and check reports
among them, is a `Frozen` record, and only `reporting` writes to slots."""

import ast
import copy
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import blowdown
from blowdown.catalog import (
    BlowupSpec,
    EllipticSpec,
    HpSumSpec,
    HSpec,
    LogSpec,
    SurgeryPlan,
    SurgeryStep,
    WSpec,
    YSpec,
    donaldson_closed_form,
    parse_spec,
    surgery_plan,
)
from blowdown.exppoly import ExpKernel
from blowdown.lattice import (
    ChainConfig,
    HClass,
    IntersectionLattice,
    Plumbing,
    QClass,
    RelClass,
    Residue,
)
from blowdown.moduli import CanonicalClass, DimReport, dim_report
from blowdown.reporting import CheckReport, set_field
from blowdown.chain_surgery import BlowdownResult, ClassRecord, RestrictedClass
from blowdown.swinv import sw_en
from blowdown.transform import LogPlacement, log_placement

# the names `import blowdown` offered when it imported every submodule
# eagerly, less replay and sw_replay, whose work catalog.run now does
EXPORTS = [
    "BlowupSpec", "EllipticSpec", "HpSumSpec", "HSpec", "LogSpec", "SpecParseError", "WSpec",
    "YSpec", "adjunction_audit", "donaldson_closed_form", "donaldson_pipeline", "parse_spec",
    "render", "surgery_plan", "sw_closed_form",
    "ExpKernel", "cosh_c", "exact_div", "sinh_c", "twist", "ChainConfig", "HClass",
    "IntersectionLattice", "QClass", "RelClass", "Residue", "boundary", "is_characteristic",
    "pairing", "rel_pairing",
    "CanonicalClass", "DimReport", "canonical_tb", "corr", "dim_moduli", "dim_report",
    "e_square", "rho_half_closed_form", "verify_boundary_value_lemmas",
    "CheckReport", "SWMap", "sw_blowup", "sw_dim", "sw_en", "sw_log_transform",
    "sw_taut_blowdown", "witten_check", "witten_exponent", "BlowdownResult",
    "ClassRecord", "ManifoldSeries", "RestrictedClass", "blowup", "connected_sum_hp",
    "formal_log_coefficients", "log_transform", "nodal_log_pipeline", "p2_blowdown",
    "restrict_class", "taut_blowdown", "verify_nodal_matrix_identity",
]


def _fiber_lattice():
    return IntersectionLattice(["f"], [[0]])


def frozen_records():
    """One instance of every frozen record class, with a field name to poke."""
    lat = IntersectionLattice(["f", "e"], [[0, 1], [1, -1]])
    f = _fiber_lattice()
    plan = surgery_plan("W(1)")
    chain = IntersectionLattice(["u", "f"], [[-4, 0], [0, 0]])
    return [
        (EllipticSpec(3, ((2, 3),)), "n"),
        (WSpec(4), "n"),
        (YSpec(4), "n"),
        (HSpec(4), "n"),
        (BlowupSpec(WSpec(1), 2), "k"),
        (LogSpec(EllipticSpec(2), 3), "p"),
        (HpSumSpec(EllipticSpec(2), 3), "p"),
        (plan.steps[0], "n"),
        (plan, "seed"),
        (HClass(lat, (1, -2)), "coeffs"),
        (QClass(lat, (Fraction(1, 2), 3)), "coeffs"),
        (Residue(7, 4), "value"),
        (RelClass(3, (1, 2)), "coeffs"),
        (Plumbing((2, 2, 7)), "weights"),
        (CanonicalClass(5, 1, 2), "t"),
        (dim_report(RelClass(3, (1, 2))), "dim"),
        (sw_en(3), "euler"),
        (donaldson_closed_form("E(3)"), "euler"),
        (ClassRecord((0, 1), "dropped", 0, None, None, ""), "status"),
        (BlowdownResult(None, ()), "class_map"),
        (log_placement(f, [], HClass(f, (1,)), 2), "order"),
        (RestrictedClass(QClass(lat, (Fraction(1, 2), 3)), Residue(7, 4)), "boundary"),
        (lat, "den"),
        (ChainConfig(2, chain, [chain.basis_class("u")]), "p"),
        (ExpKernel(lat, {(1, 0): Fraction(1, 2), (0, -1): 3}), "num"),
    ]


def test_equality_needs_the_exact_type():
    assert WSpec(4) != YSpec(4)
    assert YSpec(4) != HSpec(4)
    assert WSpec(4) != HSpec(4)
    assert WSpec(4) != (4,)
    assert LogSpec(EllipticSpec(2), 3) != HpSumSpec(EllipticSpec(2), 3)
    assert len({WSpec(4), YSpec(4), HSpec(4)}) == 3


def test_equal_records_hash_equal():
    for text in ("E(3;2,3)", "hpsum(logt(blowup(E(2),2),3),5)", "W(4)"):
        a, b = parse_spec(text), parse_spec(text)
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert {Residue(7, 4): 1}[Residue(3, 4)] == 1


FROZEN = frozen_records()


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, name):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert repr(record) == before
    assert hash(record) == hash(record)


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_records_copy_and_pickle_as_before(record, name):
    assert copy.copy(record) == record
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)
        assert hash(clone) == hash(record)
        with pytest.raises(AttributeError):
            setattr(clone, name, 0)


def _clones(obj):
    return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


def test_lattices_and_kernels_copy_and_pickle():
    lat = IntersectionLattice(["a", "b"], [[2, Fraction(1, 3)], [Fraction(1, 3), -2]])
    kernel = donaldson_closed_form("E(4;2,3)").kernel
    for obj in (lat, kernel, ExpKernel(lat, {(6, 6): Fraction(1, 4), (-6, -6): 3})):
        for clone in _clones(obj):
            assert clone == obj and type(clone) is type(obj) and hash(clone) == hash(obj)
            with pytest.raises(AttributeError, match="of a frozen record"):
                clone.den = 5
    for clone in _clones(kernel):
        assert clone.num == kernel.num and clone.den == kernel.den
        assert clone.terms == kernel.terms
        with pytest.raises(TypeError):
            clone.num[(0,)] = 1


def test_chain_configs_copy_and_pickle():
    plan = surgery_plan("W(2)")
    lat = plan.ambient()
    config = ChainConfig(2, lat, [lat.basis_class(plan.steps[0].spheres[0])])
    for clone in _clones(config):
        assert type(clone) is ChainConfig
        assert (clone.p, clone.ambient, clone.spheres, clone.row_supports) == (
            config.p, config.ambient, config.spheres, config.row_supports
        )
        assert clone.supports == config.supports
        assert clone.plumbing == config.plumbing
        with pytest.raises(AttributeError, match="of a frozen record"):
            clone.p = 3


def test_series_and_maps_copy_and_pickle_through_their_constructors():
    for obj in (donaldson_closed_form("E(4;2,3)"), sw_en(4)):
        for clone in _clones(obj):
            assert clone == obj and type(clone) is type(obj) and hash(clone) == hash(obj)
            assert clone.kernel.num == obj.kernel.num and clone.kernel.den == obj.kernel.den
            with pytest.raises(AttributeError, match="of a frozen record"):
                clone.euler = 47


@pytest.mark.parametrize("make", [sw_en, lambda n: donaldson_closed_form(f"E({n})")],
                         ids=["SWMap", "ManifoldSeries"])
def test_a_tampered_series_or_map_is_rejected_on_load(make):
    # a pickle is outside input: the state of E(4)'s value, its euler number
    # changed to 47, reaches the constructor on every restore and is rejected
    good = make(4)
    bad = object.__new__(type(good))
    for name, value in zip(good.__slots__, (good.kernel, 47, good.signature)):
        set_field(bad, name, value)
    data = pickle.dumps(bad)
    for restore in (lambda: pickle.loads(data), lambda: copy.copy(bad), lambda: copy.deepcopy(bad)):
        with pytest.raises(ValueError, match=r"^euler \+ signature must be even"):
            restore()
    assert pickle.loads(pickle.dumps(good)) == good


def test_chain_configs_from_equal_inputs_are_equal():
    configs = []
    for _ in range(2):
        lat = IntersectionLattice(["u", "f"], [[-4, 0], [0, 0]])
        configs.append(ChainConfig(2, lat, [lat.basis_class("u")]))
    a, b = configs
    assert a == b and a is not b and a.ambient is not b.ambient
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_every_frozen_class_is_covered():
    import blowdown.reporting as reporting

    def leaves(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from leaves(sub)

    # CheckReport is unhashable, so it has its own test below instead of FROZEN
    covered = {type(record) for record, _ in FROZEN} | {CheckReport}
    ours = {cls for cls in leaves(reporting.Frozen) if cls.__module__.startswith("blowdown.")}
    assert ours <= covered
    assert len(covered) == 26


def _modules_with(found) -> list[str]:
    """The modules of src/blowdown other than reporting.py with an AST node
    for which found(node) is true."""
    package = Path(blowdown.__file__).parent
    names = set()
    for path in package.glob("*.py"):
        if path.name == "reporting.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(map(found, ast.walk(tree))):
            names.add(path.name)
    return sorted(names)


def test_only_reporting_calls_set_field():
    def found(node):
        return (
            (isinstance(node, ast.Name) and node.id == "set_field")
            or (isinstance(node, ast.Attribute) and node.attr == "set_field")
            or (isinstance(node, ast.alias) and node.name == "set_field")
        )

    callers = _modules_with(found)
    assert not callers, f"set_field used outside reporting.py in {callers}"


def test_only_reporting_writes_slots_or_guards_assignment():
    def found(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ) or (
            isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
        )

    owners = _modules_with(found)
    assert not owners, f"object.__setattr__ or a __setattr__/__delattr__ in {owners}"


@pytest.mark.parametrize("cls", [SurgeryPlan, DimReport, LogPlacement, RestrictedClass])
def test_pure_records_take_their_fields_in_slot_order(cls):
    assert "__init__" not in vars(cls)
    names = cls.__slots__
    record = cls(*names)
    assert [getattr(record, name) for name in names] == list(names)
    with pytest.raises(TypeError, match=f"takes {len(names)} fields, got {len(names) - 1}"):
        cls(*names[1:])
    with pytest.raises(TypeError, match=f"takes {len(names)} fields, got {len(names) + 1}"):
        cls(*names, None)
    with pytest.raises(TypeError):
        cls(*names[:-1], **{names[-1]: None})


def test_check_reports_do_not_share_their_lists():
    a, b = CheckReport("a", True), CheckReport("b", True)
    a.parameters["q"] = 3
    a.counterexamples.append([1, 2])
    assert b.parameters == {} and b.counterexamples == []
    with pytest.raises(AttributeError, match="of a frozen record"):
        a.passed = False
    assert a.line() == "PASS a q=3"
    failed = CheckReport("a", False, parameters=a.parameters, counterexamples=a.counterexamples)
    assert failed.line() == "FAIL a q=3  counterexample: [1, 2]"
    with pytest.raises(TypeError):
        hash(a)
    assert CheckReport("a", True) == CheckReport("a", True)


def test_check_reports_are_frozen_and_unhashable():
    report = CheckReport("y", False, p=3, parameters={"q": 3}, counterexamples=[[1, 2]])
    before = repr(report)
    with pytest.raises(AttributeError):
        report.passed = True
    with pytest.raises(AttributeError):
        del report.counterexamples
    with pytest.raises(AttributeError):
        report.unknown_field = 1
    assert repr(report) == before
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)  # its dict and list fields are unhashable
    for clone in _clones(report):
        assert clone == report and type(clone) is CheckReport
        assert clone.line() == report.line()


# (expression, its repr) as the frozen dataclasses printed them
REPRS = [
    ("WSpec(4)", "WSpec(n=4)"),
    ("EllipticSpec(3, ((2, 3),))", "EllipticSpec(n=3, pairs=((2, 3),))"),
    (
        'parse_spec("hpsum(logt(blowup(E(2),2),3),5)")',
        "HpSumSpec(base=LogSpec(base=BlowupSpec(base=EllipticSpec(n=2, pairs=()), k=2), p=3), p=5)",
    ),
    (
        'SurgeryStep("logt", 3, fiber=(0, 2))',
        "SurgeryStep(op='logt', n=3, fiber=(0, 2), spheres=(), image=None)",
    ),
    (
        'surgery_plan("W(1)")',
        "SurgeryPlan(family=WSpec(n=1), "
        "chains=(SurgeryStep(op='chain', n=2, fiber=None, spheres=('s1',), image='k'),), seed=4, "
        "steps=(SurgeryStep(op='chain', n=2, fiber=None, spheres=('s1',), image='k'),), "
        "family_steps=1, blowups=0, sw_gap=None)",
    ),
    ("Residue(7, 4)", "Residue(value=3, modulus=4)"),
    ("CanonicalClass(5, 1, 2)", "CanonicalClass(p=5, t=1, b=2)"),
    (
        "dim_report(RelClass(3, (1, 2)))",
        "DimReport(e=RelClass(p=3, coeffs=(1, 2)), e_square=Fraction(-1, 1), "
        "boundary=Residue(value=3, modulus=9), reduced_boundary=3, dim=1)",
    ),
    (
        'CheckReport("y", False, parameters={"q": 3}, counterexamples=[[1, 2]])',
        "CheckReport(name='y', passed=False, p=None, parameters={'q': 3}, counterexamples=[[1, 2]])",
    ),
    (
        'ClassRecord((1, 0), "kept", 3, (Fraction(1, 2), Fraction(-1, 4)), (2, 1), "r")',
        "ClassRecord(source=(1, 0), status='kept', residue=3, "
        "extension=(Fraction(1, 2), Fraction(-1, 4)), image=(2, 1), reason='r')",
    ),
    ("BlowdownResult(None, ())", "BlowdownResult(result=None, class_map=())"),
    (
        "QClass(IntersectionLattice(['f', 'e'], [[0, 1], [1, -1]]), (Fraction(1, 2), 3))",
        "QClass(lattice=IntersectionLattice(['f', 'e']), coeffs=(Fraction(1, 2), Fraction(3, 1)))",
    ),
    (
        'donaldson_closed_form("E(3)")',
        "ManifoldSeries(kernel=ExpKernel(-1/2*e^(-1,) + 1/2*e^(1,)), euler=36, signature=-24)",
    ),
    (
        "sw_en(3)",
        "SWMap(kernel=ExpKernel(-1*e^(-1,) + 1*e^(1,)), euler=36, signature=-24)",
    ),
    (
        "log_placement(_fiber_lattice(), [], HClass(_fiber_lattice(), (1,)), 2)",
        "LogPlacement(lattice=IntersectionLattice(['f_2']), index=0, divisor=2, step=1, order=2)",
    ),
    (
        "RestrictedClass(QClass(IntersectionLattice(['f'], [[0]]), (Fraction(-1, 3),)), Residue(8, 9))",
        "RestrictedClass(extension=QClass(lattice=IntersectionLattice(['f']), "
        "coeffs=(Fraction(-1, 3),)), boundary=Residue(value=8, modulus=9))",
    ),
]


@pytest.mark.parametrize("expr, text", REPRS, ids=[e for e, _ in REPRS])
def test_reprs_are_unchanged(expr, text):
    assert repr(eval(expr)) == text


def test_exports_are_the_defining_modules_objects():
    assert sorted(blowdown.__all__) == sorted(EXPORTS)
    for name in blowdown.__all__:
        value = getattr(blowdown, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("blowdown."), name
        assert getattr(home, name) is value, name
    import blowdown.catalog as catalog

    assert catalog.SpecParseError is blowdown.SpecParseError


def test_dir_lists_exports_and_unknown_names_raise():
    listing = dir(blowdown)
    assert set(EXPORTS) <= set(listing) and "__version__" in listing
    assert listing == sorted(listing)
    with pytest.raises(AttributeError, match="no_such_name"):
        blowdown.no_such_name
    assert not hasattr(blowdown, "SERIES_RULES")  # a public name that is not exported
    with pytest.raises(ImportError):
        from blowdown import no_such_name  # noqa: F401
