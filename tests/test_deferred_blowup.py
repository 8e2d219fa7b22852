"""Blowups counted by the plan and expanded last.

`catalog.surgery_plan` sums a spec's blowup counts into `plan.blowups`, and
its steps are those of the spec without its blowup nodes (the base); the
library functions run the plan's steps and then blow up once, and the CLI
streams the 2^k classes of a listing from the route's value before them.
Checked here:
- no plan has a blowup step, and its blowups and steps agree with a walk of
  the spec written out here, on every golden spec that plans;
- f(spec) and f(base) blown up k times both equal a replay that blows up at
  each blowup node where it stands, written out here, in both calculi and
  basis names included;
- the full expansion stays the oracle of the streamed text and structured
  output for k <= 8;
- `witten` still runs each calculus's own blowup rule (rule mutants fail it);
- a listing far too large to hold exits 141 under a 1 GiB address-space
  limit when its reader closes early, and `witten` answers at once.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blowdown.swinv as swinv
import blowdown.transform as transform
from blowdown.catalog import (
    SERIES_RULES,
    SW_RULES,
    BlowupSpec,
    EllipticSpec,
    HpSumSpec,
    LogSpec,
    donaldson_closed_form,
    donaldson_pipeline,
    parse_spec,
    render,
    surgery_plan,
    sw_closed_form,
)
from blowdown.cli import main
from blowdown.exppoly import ExpKernel
from blowdown.reporting import fraction_str, lattice_to_obj
from blowdown.swinv import SWMap, sw_blowup
from blowdown.transform import ManifoldSeries, blowup
from test_render import old_class_text

STRUCT = ["--format", "structured"]

COMMUTING = [
    "logt(blowup(E(3;2,3),2),5)",
    "hpsum(blowup(E(2),2),3)",
    "blowup(logt(blowup(E(2),1),3),2)",
    "blowup(W(2),2)",
    "blowup(H(6),1)",
]


def literal_replay(spec, m, steps, rules, blow_up):
    """The steps applied to m, with the spec's blowups where they stand.

    The spec's combinator nodes are walked from the family leaf out, after
    the leaf's own steps: a blowup node of count k blows m up k times, one
    exceptional direction at a time, and a logt or hpsum node applies the
    next of the remaining steps, which must be of its kind and order."""
    outer, node = [], parse_spec(spec)
    while isinstance(node, (BlowupSpec, LogSpec, HpSumSpec)):
        outer.append(node)
        node = node.base
    at = len(steps) - sum(not isinstance(n, BlowupSpec) for n in outer)
    applied = list(steps[:at])  # the family leaf's steps
    for n in reversed(outer):
        if isinstance(n, BlowupSpec):
            applied += [None] * n.k
        else:
            step, at = steps[at], at + 1
            assert (step.op, step.n) == ("logt" if isinstance(n, LogSpec) else "hpsum", n.p)
            applied.append(step)
    assert at == len(steps)
    for step in applied:
        if step is None:
            m = blow_up(m)
        else:
            m = rules[step.op](m, step)
            m = m.result if step.op == "chain" else m
    return m


def without_blowups(node):
    """The spec's text with every blowup node dropped, and the sum of their counts."""
    if isinstance(node, BlowupSpec):
        text, k = without_blowups(node.base)
        return text, k + node.k
    if isinstance(node, (LogSpec, HpSumSpec)):
        text, k = without_blowups(node.base)
        return f"{'logt' if isinstance(node, LogSpec) else 'hpsum'}({text},{node.p})", k
    return render(node), 0


def same_surgeries(plan, other) -> bool:
    """The two plans agree but for their blowups and the sw_gap's wording."""
    fields = ("family", "chains", "seed", "steps", "family_steps")
    return all(getattr(plan, f) == getattr(other, f) for f in fields) and (
        (plan.sw_gap is None) == (other.sw_gap is None)
    )


def golden_specs() -> list[str]:
    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
    specs = [e["argv"][1] for e in golden if e["argv"][0] in ("series", "sw", "witten", "audit")]
    return list(dict.fromkeys(specs))


def test_a_plan_counts_its_blowups_and_keeps_its_base():
    planned = 0
    for spec in dict.fromkeys(COMMUTING + ORACLE_SPECS + golden_specs()):
        try:
            plan = surgery_plan(spec)
        except ValueError:  # no parse (SpecParseError is one), or no fiber to transform
            continue
        planned += 1
        assert all(step.op != "blowup" for step in plan.steps), spec
        text, k = without_blowups(parse_spec(spec))
        assert plan.blowups == k and same_surgeries(plan, surgery_plan(text)), spec
    assert planned >= 60


@pytest.mark.parametrize("spec", COMMUTING)
def test_deferred_blowups_equal_literal_step_order(spec):
    plan = surgery_plan(spec)
    assert plan.blowups > 0
    leaf, after_leaf = donaldson_closed_form(plan.family), plan.steps[plan.family_steps :]
    routes = [
        (donaldson_closed_form, blowup, literal_replay(spec, leaf, after_leaf, SERIES_RULES, blowup)),
        (
            donaldson_pipeline,
            blowup,
            literal_replay(spec, plan.seed_series(), plan.steps, SERIES_RULES, blowup),
        ),
    ]
    if plan.sw_gap is None:
        literal = literal_replay(spec, plan.seed_swmap(), plan.steps, SW_RULES, sw_blowup)
        routes.append((sw_closed_form, sw_blowup, literal))
    base = without_blowups(parse_spec(spec))[0]
    for f, blown_up, literal in routes:
        for got in (f(spec), blown_up(f(base), plan.blowups)):
            assert got == literal
            assert got.lattice.basis_names == literal.lattice.basis_names
    assert len(routes) == (2 if spec.startswith("hpsum") else 3)


def test_a_plan_sums_the_counts_of_nested_blowups():
    plan = surgery_plan("blowup(logt(blowup(E(2),1),3),2)")
    assert plan.blowups == 3 and same_surgeries(plan, surgery_plan(LogSpec(EllipticSpec(2), 3)))
    plan = surgery_plan("hpsum(blowup(H(6),4),3)")
    assert plan.blowups == 4 and same_surgeries(plan, surgery_plan("hpsum(H(6),3)"))
    for leaf in ["E(3;2,3)", "W(2)", "Y(5)", "H(6)"]:
        plan = surgery_plan(leaf)
        assert plan.blowups == 0 and plan.steps == plan.steps[: plan.family_steps]


# ---------------------------------------------------------------------------
# The expanded objects as the oracle of the streamed listings


def run(capsys, argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


def numbers(m) -> dict:
    return {"euler": m.euler, "signature": m.signature, "b_plus": m.b_plus, "simple_type": True}


def series_obj(m: ManifoldSeries) -> dict:
    terms = [{"class": list(key), "coeff": fraction_str(c)} for key, c in m.kernel.sorted_terms()]
    return {"kernel": {"lattice": lattice_to_obj(m.lattice), "terms": terms}, **numbers(m)}


def swmap_obj(m: SWMap) -> dict:
    classes = [{"class": list(key), "sw": v} for key, v in sorted(m.values.items())]
    return {"lattice": lattice_to_obj(m.lattice), "classes": classes, **numbers(m)}


def sw_text(spec: str, m: SWMap) -> list[str]:
    names = m.lattice.basis_names
    gram = json.dumps(lattice_to_obj(m.lattice)["gram"])
    return (
        [f"spec: {spec}", f"basis: {' '.join(names)}", f"gram: {gram}"]
        + [f"classes ({len(m.values)}):"]
        + [f"  {old_class_text(names, key)}: {v}" for key, v in sorted(m.values.items())]
        + [f"e: {m.euler}  sigma: {m.signature}  b_plus: {m.b_plus}"]
    )


ORACLE_SPECS = [f"blowup(E({n}),{k})" for n, k in [(2, 2), (3, 1), (5, 4), (6, 8)]] + [
    "blowup(E(4;2,3),3)",
    "logt(blowup(E(3;2,3),2),5)",
    "blowup(W(3),2)",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_streamed_listings_equal_the_full_expansion(capsys, spec):
    series, swmap = donaldson_closed_form(spec), sw_closed_form(spec)
    assert len(series.kernel) > 2
    code, out = run(capsys, ["series", spec, *STRUCT])
    assert code == 0
    assert json.loads(out) == {"spec": spec, "route": "closed", **series_obj(series)}
    code, out = run(capsys, ["sw", spec])
    assert code == 0
    assert out.splitlines() == sw_text(spec, swmap)
    code, out = run(capsys, ["sw", spec, *STRUCT])
    assert code == 0
    assert json.loads(out) == {"spec": spec, **swmap_obj(swmap)}
    code, out = run(capsys, ["witten", spec, *STRUCT])
    obj = json.loads(out)
    assert code == 0 and obj["pass"] is True
    assert (obj["series"], obj["sw"]) == (series_obj(series), swmap_obj(swmap))


def test_pipeline_listing_streams_the_same_bytes(capsys):
    closed = run(capsys, ["series", "blowup(H(6),3)"])[1]
    piped = run(capsys, ["series", "blowup(H(6),3)", "--route", "pipeline"])[1]
    assert "kernel (16 terms):" in closed.splitlines()
    assert closed.replace("route: closed", "route: pipeline") == piped


def test_two_expanded_terms_still_print_compactly(capsys):
    out = run(capsys, ["series", "blowup(E(2),1)"])[1].splitlines()
    assert out[4:] == ["kernel: cosh(e1)", "e: 25  sigma: -17  b_plus: 3"]
    # E(3)'s kernel sinh(f) is compact before the blowup but not after it
    out = run(capsys, ["series", "blowup(E(3),1)"])[1].splitlines()
    assert out[4] == "kernel (4 terms):"


# ---------------------------------------------------------------------------
# witten compares each calculus's own exceptional factor


def test_witten_runs_each_calculus_blowup_rule(monkeypatch, capsys):
    argv = ["witten", "blowup(E(4;2,3),6)"]
    assert run(capsys, argv) == (0, "PASS witten blowup(E(4;2,3),6) (exponent -8)\n")
    real_blowup, real_sw_blowup = transform.blowup, swinv.sw_blowup

    def halved(m, k=1):
        out = real_blowup(m, k)
        kernel = ExpKernel._from_ints(out.lattice, dict(out.kernel.num), out.kernel.den * 2)
        return ManifoldSeries(kernel, out.euler, out.signature)

    def doubled(m, count=1):
        out = real_sw_blowup(m, count=count)
        values = {key: 2 * v for key, v in out.values.items()}
        return SWMap(ExpKernel(out.lattice, values), out.euler, out.signature)

    for module, name, mutant in [(transform, "blowup", halved), (swinv, "sw_blowup", doubled)]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            code, out = run(capsys, argv)
        assert (code, out.split()[0]) == (1, "FAIL"), name
    assert run(capsys, argv)[0] == 0


# ---------------------------------------------------------------------------
# Listings far larger than memory


def cli_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def one_gib_address_space() -> None:  # runs in the child only, before exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("verb", ["series", "sw"])
def test_an_oversized_blowup_listing_exits_141_when_its_reader_closes(verb):
    # 2^24 classes: the expanded kernel alone would outgrow the 1 GiB limit
    proc = subprocess.Popen(
        [sys.executable, "-m", "blowdown.cli", verb, "blowup(E(2),24)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
        preexec_fn=one_gib_address_space,
    )
    try:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        code = proc.wait(timeout=10)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert head[0] == b"spec: blowup(E(2),24)\n"
    assert all(line.endswith(b"\n") for line in head)
    assert code == 141
    assert err == b""


def test_witten_on_an_oversized_blowup_answers_at_once():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "blowdown.cli", "witten", "blowup(E(2),24)"],
        capture_output=True,
        env=cli_env(),
        preexec_fn=one_gib_address_space,
        timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0
    assert proc.stdout == b"PASS witten blowup(E(2),24) (exponent -24)\n"
