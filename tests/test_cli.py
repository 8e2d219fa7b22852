import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blowdown.catalog import MAX_SPEC_DEPTH, donaldson_closed_form, sw_closed_form
from blowdown.cli import main
from decode import series_from_obj, swmap_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_series_text_compact(capsys):
    code, out, _ = run(capsys, "series", "W(2)")
    assert code == 0
    assert "kernel: 2*cosh(k)" in out
    assert "gram: [[2]]" in out
    assert "e: 46  sigma: -30  b_plus: 7" in out


def test_series_term_listing(capsys):
    code, out, _ = run(capsys, "series", "E(2;3)")
    assert code == 0
    assert "kernel (3 terms):" in out
    assert "1 * e^(2*f_3)" in out
    assert "1 * e^(0)" in out


def test_series_routes_match(capsys):
    _, closed, _ = run(capsys, "series", "Y(5)")
    _, piped, _ = run(capsys, "series", "Y(5)", "--route", "pipeline")
    assert closed.replace("route: closed", "route: pipeline") == piped


def test_deterministic_output(capsys):
    first = run(capsys, "series", "E(3;2,5)", "--format", "structured")
    second = run(capsys, "series", "E(3;2,5)", "--format", "structured")
    assert first == second


def test_structured_series_roundtrip(capsys):
    code, out, _ = run(capsys, "series", "E(2;2,5)", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert obj["spec"] == "E(2;2,5)"
    assert series_from_obj(obj) == donaldson_closed_form("E(2;2,5)")


def test_structured_sw_roundtrip(capsys):
    code, out, _ = run(capsys, "sw", "H(5)", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert swmap_from_obj(obj) == sw_closed_form("H(5)")


def test_sw_names_each_drop_on_every_call(capsys):
    # a dropped class is named by its nonzero coordinates, as the blowdown verb names it
    why = "with the end sphere admits no extension across the blowdown"
    want = [f"dropping class {c}: pairing {e} {why}" for c, e in (("-f", -1), ("f", 1))]
    for _ in range(2):
        code, _, err = run(capsys, "sw", "Y(5)")
        assert code == 0 and err.splitlines() == want


def test_text_mode_builds_no_structured_object(capsys, monkeypatch):
    # the verbs import the builders from blowdown.serialize when they run
    import blowdown.serialize as serialize

    def fail(*args):
        raise AssertionError("structured object built in text mode")

    for name in ("series_to_obj", "swmap_to_obj", "blowdown_to_obj"):
        monkeypatch.setattr(serialize, name, fail)
    for argv in (
        ["series", "E(3;2)"],
        ["logt", "E(3)", "2"],
        ["sw", "E(3;2)"],
        ["witten", "E(3;2)"],
        ["blowdown", "E(4)", "--sections", "1"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError):
        main(["series", "E(3;2)", "--format", "structured"])


def test_exit_codes(capsys):
    code, _, err = run(capsys, "series", "E(1)")
    assert code == 3 and "n >= 2" in err
    code, _, err = run(capsys, "series", "E(2;;3)")
    assert code == 2 and "position" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "--help")
    assert code == 0
    code, _, err = run(capsys, "sw", "hpsum(E(2),2)")
    assert code == 3
    deep = "hpsum(" * (MAX_SPEC_DEPTH + 1) + "E(2)" + ",1)" * (MAX_SPEC_DEPTH + 1)
    code, _, err = run(capsys, "series", deep)
    assert code == 2 and "nested deeper" in err


def test_dim_verb(capsys):
    code, out, _ = run(capsys, "dim", "--p", "3", "--canonical", "1,1")
    assert code == 0
    assert "dim: 1" in out
    code, out, _ = run(capsys, "dim", "--p", "5", "--delta", "0,0,1,1")
    assert code == 0
    assert "dim: -1" in out
    code, out, _ = run(capsys, "dim", "--p", "2", "--delta", "4", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 5 and obj["e_square"] == "-4"


def test_dim_rejects_a_malformed_canonical_pair(capsys):
    for text in ("a,b", "1,x", "1", "1,2,3"):
        code, out, err = run(capsys, "dim", "--p", "3", "--canonical", text)
        assert code == 2 and out == "", text
        assert "argument --canonical: expected t,b" in err, text
        assert "_canonical_pair" not in err, text


# The parser's contract: argv -> the line after the usage line on stderr.  A
# usage error exits 2, writes nothing on stdout, and writes the verb's usage
# line and then "blowdown VERB: error: ..." on stderr.
USAGE_ERRORS = {
    (): "blowdown: error: argument verb is required",
    ("nonsense",): "blowdown: error: argument verb: invalid choice: 'nonsense'",
    ("series", "E(2)", "extra"): "blowdown series: error: unrecognized arguments: extra",
    ("series",): "blowdown series: error: argument spec is required",
    ("series", "E(2)", "--bogus"): "blowdown series: error: unrecognized arguments: --bogus",
    ("blowdown", "E(4)", "--h", "1"): (
        "blowdown blowdown: error: ambiguous option: --h could match --help, --horikawa"
    ),
    ("series", "E(2)", "--route"): "blowdown series: error: argument --route: expected one argument",
    ("series", "--rou=x", "E(2)"): (
        "blowdown series: error: argument --route: invalid choice: 'x' "
        "(choose from 'closed', 'pipeline')"
    ),
    ("dim", "--p", "3"): "blowdown dim: error: argument --canonical | --delta is required",
    ("dim", "--canonical", "1,1"): "blowdown dim: error: argument --p is required",
    ("dim", "--p", "3", "--delta", "1", "--canonical", "1,1"): (
        "blowdown dim: error: argument --canonical: not allowed with argument --delta"
    ),
    ("dim", "--p", "3", "--canonical", "a,b"): (
        "blowdown dim: error: argument --canonical: expected t,b"
    ),
    ("verify", "lemmas", "--box", "-1"): (
        "blowdown verify: error: argument --box: must be at least 0, got -1"
    ),
    ("blowdown", "E(4)", "--horikawa", "3"): (
        "blowdown blowdown: error: argument --horikawa: invalid choice: 3 (choose from 1, 2)"
    ),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_error_exits_2_with_usage_and_reason_on_stderr(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    usage, reason = err.splitlines()
    verb = argv[0] if argv and argv[0] != "nonsense" else ""
    assert usage.startswith(f"usage: blowdown {verb}".rstrip() + " [-h] ")
    assert reason == USAGE_ERRORS[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "E(2;3)", "--route=pipeline"),
        ("series", "E(2;3)", "--rou", "pipeline"),
        ("series", "--rou=pipeline", "E(2;3)"),
        ("series", "--format", "text", "--route", "pipeline", "E(2;3)"),
    ],
    ids=" ".join,
)
def test_options_take_an_equals_sign_or_a_unique_prefix_anywhere(capsys, argv):
    want = run(capsys, "series", "E(2;3)", "--route", "pipeline")
    assert want[0] == 0 and "route: pipeline" in want[1]
    assert run(capsys, *argv) == want


def test_every_option_form_reaches_its_converter(capsys):
    code, out, _ = run(capsys, "dim", "--delta=1,2", "--f", "structured", "--p=3")
    assert code == 0 and json.loads(out)["delta"] == [1, 2]
    assert run(capsys, "dim", "--p", "3", "--can", "1,1")[:2] == run(
        capsys, "dim", "--canonical=1,1", "--p", "3"
    )[:2]


def test_a_negative_positional_reaches_the_mathematics(capsys):
    # logt "E(2)" -3 is a value, not an option: the log transform rejects it
    code, out, err = run(capsys, "logt", "E(2)", "-3")
    assert code == 3 and out == "" and err.startswith("error: ")


HELP = {
    ("--help",): "usage: blowdown [-h] {series,sw,witten,dim,verify,blowdown,logt,audit} ...\n",
    ("-h",): "usage: blowdown [-h] {series,",
    ("--he",): "usage: blowdown [-h] {series,",
    ("series", "--help"): "usage: blowdown series [-h] [--format {text,structured}] spec",
    ("dim", "-h"): "usage: blowdown dim [-h]",
    ("blowdown", "E(4)", "--hel"): "usage: blowdown blowdown [-h]",
}


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_prints_usage_on_stdout_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith(HELP[argv])
    if argv[0].startswith("-"):  # the top-level help names every verb
        assert all(f"\n  {verb} " in out for verb in ("series", "witten", "blowdown", "audit"))


def test_witten_verb(capsys):
    code, out, _ = run(capsys, "witten", "E(3;2)")
    assert code == 0
    assert out.startswith("PASS witten E(3;2)")


def test_witten_fail_names_the_first_differing_class(capsys, monkeypatch):
    import blowdown.swinv as swinv
    from blowdown.exppoly import ExpKernel
    from blowdown.swinv import SWMap

    assert run(capsys, "witten", "E(4)") == (0, "PASS witten E(4) (exponent -2)\n", "")
    real = swinv.sw_en

    def tripled(n):  # the seed mutant: three times its value on the class 0
        m = real(n)
        values = {k: 3 * v if k == (0,) else v for k, v in m.values.items()}
        return SWMap(ExpKernel(m.lattice, values), m.euler, m.signature)

    monkeypatch.setattr(swinv, "sw_en", tripled)
    code, out, err = run(capsys, "witten", "E(4)")
    assert code == 1 and out == "FAIL witten E(4) (exponent -2)\n"
    # E(4)'s series is sinh^2(f), -1/2 on the class 0; 2^-2 * 3 * (-2) = -3/2
    assert err == "first differing class (0,): series -1/2, predicted -3/2\n"
    # with blowups the objects before them are compared first
    code, out, err = run(capsys, "witten", "blowup(E(4),3)")
    assert code == 1 and out == "FAIL witten blowup(E(4),3) (exponent -5)\n"
    assert err == "first differing class (0,): series -1/2, predicted -3/2\n"


def test_verify_witten_names_the_first_differing_class(capsys, monkeypatch):
    import blowdown.swinv as swinv
    from blowdown.exppoly import ExpKernel
    from blowdown.suites import suite_witten
    from blowdown.swinv import SWMap

    real = swinv.sw_en

    def tripled(n):  # the seed mutant of the witten verb's test above
        m = real(n)
        values = {k: 3 * v if k == (0,) else v for k, v in m.values.items()}
        return SWMap(ExpKernel(m.lattice, values), m.euler, m.signature)

    monkeypatch.setattr(swinv, "sw_en", tripled)
    (report,) = [r for r in suite_witten() if r.parameters == {"spec": "E(4)"}]
    # the numbers the witten verb prints for E(4) under the same mutant
    assert not report.passed
    assert report.counterexamples == [{"class": [0], "series": "-1/2", "predicted": "-3/2"}]
    code, out, _ = run(capsys, "verify", "witten")
    assert code == 1
    assert (
        "FAIL witten spec=E(4)  counterexample: "
        "{'class': [0], 'series': '-1/2', 'predicted': '-3/2'}"
    ) in out.splitlines()


def test_verify_witten_also_compares_the_pipeline_series(monkeypatch):
    import blowdown.catalog as catalog
    from blowdown.exppoly import ExpKernel
    from blowdown.suites import suite_witten
    from blowdown.transform import ManifoldSeries

    real = catalog.donaldson_pipeline

    def doubled(spec):  # a pipeline that the closed route does not share
        m = real(spec)
        num = {k: 2 * c for k, c in m.kernel.num.items()}
        return ManifoldSeries(ExpKernel._from_ints(m.lattice, num, m.kernel.den), m.euler, m.signature)

    monkeypatch.setattr(catalog, "donaldson_pipeline", doubled)
    reports = suite_witten()
    assert len(reports) == 47 and not any(r.passed for r in reports)
    (e4,) = [r for r in reports if r.parameters == {"spec": "E(4)"}]
    assert e4.counterexamples == [{"class": [-2], "series": "1/2", "predicted": "1/4"}]


def test_verify_suites(capsys):
    for suite, extra in (
        ("lattice", ["--p-max", "5"]),
        ("lemmas", ["--p-max", "3"]),
        ("identities", ["--p-max", "4"]),
    ):
        code, out, _ = run(capsys, "verify", suite, *extra)
        assert code == 0, out
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")


def test_verify_lattice_checks_corr_against_its_closed_form(capsys, monkeypatch):
    import blowdown.suites as suites

    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 0
    assert [f"PASS corr-closed-form p={p}" for p in range(2, 13)] == [
        line for line in out.splitlines() if "corr-closed-form" in line
    ]
    # negative control: corr off by one at a single boundary value
    real = suites.corr
    monkeypatch.setattr(suites, "corr", lambda p, m: real(p, m) + (p == 5 and m == 7))
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL corr-closed-form p=5  counterexample: 7"
    ]


def test_verify_lattice_fails_a_wrong_plumbing_inverse(capsys, monkeypatch):
    import blowdown.suites as suites

    real = suites.scaled_plumbing_inverse

    def off_by_one(p):
        s = [list(row) for row in real(p)]
        if p == 5:
            s[2][1] += 1
        return s

    monkeypatch.setattr(suites, "scaled_plumbing_inverse", off_by_one)
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL plumbing-inverse p=5"
    ]


def test_verify_lattice_fails_a_wrong_chain_weight(capsys, monkeypatch):
    import blowdown.suites as suites
    from blowdown.plumbing import Plumbing

    real = suites.chain_plumbing

    def off_by_one(p):
        weights = list(real(p).weights)
        if p == 5:
            weights[1] += 1  # an interior sphere of square -3
        return Plumbing(weights)

    monkeypatch.setattr(suites, "chain_plumbing", off_by_one)
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL plumbing-inverse p=5",
        "FAIL boundary-gamma p=5",
    ]


def test_verify_identities_fails_a_wrong_nodal_matrix(capsys, monkeypatch):
    import blowdown.nodal as nodal

    real = nodal._nodal_rows

    def corrupted(p):
        a = real(p)
        if p == 4:
            a[2] = a[2][:2] + ((2, 3),)  # A[2][2] = 3 makes A singular, so A^t has no inverse
        return a

    monkeypatch.setattr(nodal, "_nodal_rows", corrupted)
    assert nodal.verify_nodal_matrix_identity(4) is False
    code, out, _ = run(capsys, "verify", "identities")
    assert code == 1
    # the exceptional chain of the log pipeline is built from the same rows
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL nodal-matrix p=4",
        "FAIL log-pipeline-match p=4  counterexample: "
        "sphere pairings do not form the order-4 plumbing chain",
    ]


def test_verify_structured(capsys):
    code, out, _ = run(capsys, "verify", "lattice", "--p-max", "3", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert all(c["pass"] for c in obj["checks"])


def test_blowdown_verb_sections(capsys):
    code, out, _ = run(capsys, "blowdown", "E(4)", "--sections", "2")
    assert code == 0
    assert "step 1: blow down order-2 chain ending at s1" in out
    assert "kernel: 2*cosh(k)" in out
    assert "dropped" in out
    code, _, err = run(capsys, "blowdown", "E(3)", "--sections", "1")
    assert code == 3


def test_blowdown_verb_horikawa(capsys):
    code, out, _ = run(capsys, "blowdown", "E(5)", "--horikawa", "2")
    assert code == 0
    assert "ending at s" in out and "ending at t" in out
    code, out, _ = run(capsys, "blowdown", "E(5)", "--horikawa", "1")
    assert code == 0
    assert "kernel: sinh(lam)" in out
    code, _, _ = run(capsys, "blowdown", "E(3)", "--horikawa", "1")
    assert code == 3
    code, _, _ = run(capsys, "blowdown", "E(2;2)", "--horikawa", "1")
    assert code == 3


def test_logt_verb(capsys):
    code, out, _ = run(capsys, "logt", "E(2)", "3")
    assert code == 0
    assert "spec: logt(E(2),3)" in out
    _, direct, _ = run(capsys, "series", "E(2;3)")
    # same kernel lines as the one-pair elliptic spec
    assert direct.splitlines()[2:] == out.splitlines()[2:]
    # the verb prints exactly what the series verb prints for logt(S,p)
    for spec in ("E(2)", "E(3;2)"):
        for fmt in ("text", "structured"):
            verb = run(capsys, "logt", spec, "3", "--format", fmt)
            assert verb == run(capsys, "series", f"logt({spec},3)", "--format", fmt)
            assert verb[0] == 0 and f"logt({spec},3)" in verb[1]


def test_audit_verb(capsys):
    code, out, _ = run(capsys, "audit", "H(6)")
    assert code == 0
    assert "PASS" in out and "noether-line" in out
    code, out, _ = run(capsys, "audit", "Y(7)", "--format", "structured")
    assert code == 0
    assert json.loads(out)["pass"] is True


def _break_verify(monkeypatch) -> list[str]:
    import blowdown.suites as suites

    real = suites.corr  # off by one at a single boundary value
    monkeypatch.setattr(suites, "corr", lambda p, m: real(p, m) + (p == 5 and m == 7))
    return ["verify", "lattice", "--p-max", "5"]


def _break_audit(monkeypatch) -> list[str]:
    import blowdown.catalog as catalog
    from blowdown.exppoly import ExpKernel
    from blowdown.transform import ManifoldSeries

    real = catalog.run

    def corrupted(plan, route):  # adds the class 0, off H(6)'s target square 6
        m, chains = real(plan, route)
        kernel = ExpKernel._from_ints(m.lattice, {**m.kernel.num, (0,): 1}, m.kernel.den)
        return ManifoldSeries(kernel, m.euler, m.signature), chains

    monkeypatch.setattr(catalog, "run", corrupted)
    return ["audit", "H(6)"]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("verb", ["verify", "audit"])
def test_a_failing_check_fails_verify_and_audit_alike(capsys, monkeypatch, verb, fmt):
    argv = {"verify": _break_verify, "audit": _break_audit}[verb](monkeypatch)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 1
    if fmt == "structured":
        obj = json.loads(out)
        assert obj["pass"] is False and [c["pass"] for c in obj["checks"]].count(False) == 1
        return
    # a line per check, one of them FAIL; only verify then tallies them, 4
    # per order p from 2 to 5
    lines = out.splitlines()
    tally = ["15/16 checks passed"] if verb == "verify" else []
    checks = lines[: len(lines) - len(tally)]
    assert lines[len(checks) :] == tally
    assert [line[:5] for line in checks].count("FAIL ") == 1
    assert all(line[:5] in ("PASS ", "FAIL ") for line in checks)


def test_verify_rejects_empty_ranges(capsys):
    for argv in (
        ("verify", "lattice", "--p-max", "1"),
        ("verify", "lemmas", "--p-max", "1"),
        ("verify", "lemmas", "--box", "-1"),
        ("verify", "lemmas", "--t-max", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "must be at least" in err, argv
    code, out, _ = run(capsys, "verify", "lemmas", "--p-max", "2", "--box", "0", "--t-max", "0")
    assert code == 0 and out.strip().splitlines()[-1] == "4/4 checks passed"


def test_closed_pipe_exits_141_without_a_traceback():
    # the text output (about 100 kB) outgrows the pipe buffer, so the verb is
    # still writing when the reader closes its end after one line
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "blowdown.cli", "series", "blowup(E(3),10)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
    )
    assert proc.stdout.readline() == b"spec: blowup(E(3),10)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
