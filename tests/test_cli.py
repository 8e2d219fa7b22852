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
    why = "with the end sphere admits no extension across the blowdown"
    want = [f"dropping class ({e}, 0, 0, 0, 0): pairing {e} {why}" for e in (-1, 1)]
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


def test_witten_verb(capsys):
    code, out, _ = run(capsys, "witten", "E(3;2)")
    assert code == 0
    assert out.startswith("PASS witten E(3;2)")


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
    from blowdown.lattice import Plumbing

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
    import blowdown.transform as transform

    real = transform._nodal_matrix

    def corrupted(p):
        a = real(p)
        if p == 4:
            a[2][2] = 3  # makes A singular, so A^t has no inverse
        return a

    monkeypatch.setattr(transform, "_nodal_matrix", corrupted)
    assert transform.verify_nodal_matrix_identity(4) is False
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
