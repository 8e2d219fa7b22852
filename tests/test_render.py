"""The CLI's one-pass renderers against the encoders they replaced.

Structured output must be exactly what the standard library's indenting
encoder writes for the same value; text output must match the per-term
rendering (`old_class_text` and `fraction_str` over `sorted_terms()`) kept
here as the oracle.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from blowdown.catalog import donaldson_closed_form
from blowdown.cli import main
from blowdown.exppoly import ExpKernel
from blowdown.lattice import IntersectionLattice
from blowdown.serialize import dumps, fraction_str, kernel_to_obj, lattice_to_obj
from test_golden import invocations

STRUCT = ["--format", "structured"]


def run(capsys, argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


def stdlib_text(out: str) -> str:
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


STRUCTURED = [argv for argv in invocations() if argv[-2:] == STRUCT] + [
    ["sw", "E(3;2)", *STRUCT],
    ["sw", "blowup(E(3),3)", *STRUCT],
    ["witten", "E(3;2)", *STRUCT],
    ["witten", "blowup(E(4;2,3),2)", *STRUCT],
    ["verify", "lemmas", "--p-max", "4", *STRUCT],
    ["blowdown", "E(4)", "--horikawa", "2", *STRUCT],
    ["logt", "E(4;2,3)", "5", *STRUCT],
    ["audit", "H(6)", *STRUCT],
]


def test_structured_corpus_is_large():
    assert len(STRUCTURED) > 50
    assert ["blowdown", "E(4)", "--sections", "3", *STRUCT] in STRUCTURED


@pytest.mark.parametrize("argv", STRUCTURED, ids=" ".join)
def test_structured_output_equals_the_stdlib_encoder(capsys, argv):
    code, out = run(capsys, argv)
    assert code in (0, 1)
    assert out == stdlib_text(out)


def old_kernel_obj(k: ExpKernel) -> dict:
    """The kernel encoding as one object per term, as it was built before."""
    return {
        "lattice": lattice_to_obj(k.lattice),
        "terms": [{"class": list(key), "coeff": fraction_str(c)} for key, c in k.sorted_terms()],
    }


def test_hand_built_objects_match_the_stdlib_encoder():
    lat = IntersectionLattice(["f", "s"], [[0, 1], [1, -4]])
    fractional = donaldson_closed_form("logt(E(4;2,3),5)").kernel
    assert fractional.den > 1
    kernels = [ExpKernel(lat), ExpKernel(lat, {(1, -2): Fraction(-3, 4), (0, 0): 2}), fractional]
    plain = {
        "empty list": [],
        "empty dict": {},
        "nested": [[], {}, [[1, "a"], {"b": None, "a": True}], (2, -3)],
        "scalars": [0, -1, 10**40, "x\"y\\", "é", False, None],
        "kernels": [old_kernel_obj(k) for k in kernels],
    }
    written = dict(plain, kernels=[kernel_to_obj(k) for k in kernels])
    want = json.dumps(plain, indent=2, sort_keys=True)
    assert dumps(written) == want
    assert dumps(plain) == want


def old_class_text(names, coeffs) -> str:
    bits = []
    for name, c in zip(names, coeffs):
        if not c:
            continue
        mag = name if abs(c) == 1 else f"{abs(c)}*{name}"
        bits.append(("-" if c < 0 else "+", mag))
    if not bits:
        return "0"
    sign, mag = bits[0]
    out = ("-" if sign == "-" else "") + mag
    for sign, mag in bits[1:]:
        out += sign + mag
    return out


def old_kernel_lines(k: ExpKernel) -> list[str]:
    names = k.lattice.basis_names
    terms = k.sorted_terms()
    return [f"kernel ({len(terms)} terms):"] + [
        f"  {fraction_str(c)} * e^({old_class_text(names, key)})" for key, c in terms
    ]


TEXT_SPECS = [f"blowup(E(3),{k})" for k in range(1, 9)] + [
    "E(40;11,13)",
    "logt(E(4;2,3),5)",
    "logt(blowup(E(2),2),3)",
]


@pytest.mark.parametrize("spec", TEXT_SPECS)
def test_text_kernel_lines_match_the_per_term_rendering(capsys, spec):
    k = donaldson_closed_form(spec).kernel
    assert len(k) > 2
    code, out = run(capsys, ["series", spec])
    assert code == 0
    lines = out.splitlines()
    assert lines[4:-1] == old_kernel_lines(k)
    assert out.endswith("\n") and lines[-1].startswith("e: ")


def test_text_specs_have_big_and_fractional_coefficients():
    assert donaldson_closed_form("E(40;11,13)").kernel.den == 2**38
    assert donaldson_closed_form("logt(blowup(E(2),2),3)").kernel.den == 4


@pytest.mark.parametrize(
    "argv,first",
    [
        (["series", "blowup(E(6),10)", *STRUCT], b"{\n"),
        (["series", "blowup(E(3),10)"], b"spec: blowup(E(3),10)\n"),
    ],
)
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_exits_141_in_either_format(argv, first, unbuffered):
    # each output (1 MB structured, 100 kB text) is written in one piece and
    # outgrows the pipe buffer; the reader closes its end after one line,
    # while that write is under way.  Unbuffered (python -u), the binary
    # layer takes part of the write and the text layer would drop the rest.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "blowdown.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
    )
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
