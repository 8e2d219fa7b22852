"""The CLI's one-pass renderers against the encoders they replaced.

Structured output must be exactly what the standard library's indenting
encoder writes for the same value; text output must match the per-term
rendering (`old_class_text` and `fraction_str` over `sorted_terms()`) kept
here as the oracle.  Both are written in bounded chunks as they are rendered:
the memory a verb spends on printing, the bytes across chunk boundaries and
the exit codes of a closed or rejected run are checked here too.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from blowdown import cli_calculus, reporting
from blowdown.catalog import donaldson_closed_form
from blowdown.cli import main
from blowdown.exppoly import ExpKernel
from blowdown.lattice import IntersectionLattice
from blowdown.reporting import fraction_str, lattice_to_obj
from blowdown.serialize import iterencode, kernel_to_obj
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
    assert "".join(iterencode(written)) == want
    assert "".join(iterencode(plain)) == want


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
    # each output (1 MB structured, 100 kB text) outgrows the pipe buffer, so
    # its chunks are still being written when the reader closes its end after
    # one line.  Unbuffered (python -u), the binary layer takes part of a
    # write and the text layer would drop the rest.
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


def cli_env(unbuffered: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)


def run_cli(argv, unbuffered: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "blowdown.cli", *argv],
        capture_output=True,
        env=cli_env(unbuffered),
    )


class Discard:
    """A stdout that counts the bytes written to its binary layer and keeps none."""

    encoding = "utf-8"

    def __init__(self):
        self.buffer = self
        self.written = 0

    def write(self, data) -> int:
        self.written += len(data)
        return len(data)

    def flush(self) -> None:
        pass


def emit_peak(monkeypatch, argv) -> tuple[int, int]:
    """The tracemalloc peak of emit on argv, over what was traced before it,
    and the bytes it wrote, to a stdout that keeps none."""
    peaks, sink = [], Discard()

    def traced_emit(*emit_args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit(*emit_args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    emit = cli_calculus.emit
    with monkeypatch.context() as patch:
        patch.setattr(cli_calculus, "emit", traced_emit)
        patch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
        finally:
            tracemalloc.stop()
    assert code == 0 and len(peaks) == 1
    return peaks[0], sink.written


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "blowup(E(6),10)", *STRUCT],
        ["series", "blowup(E(3),10)"],
        ["witten", "blowup(E(4;2,3),6)", *STRUCT],
    ],
    ids=" ".join,
)
def test_rendering_holds_a_bounded_share_of_the_output(monkeypatch, argv):
    # A listing walks its kernel's keys in sorted order: the sorted list holds
    # one 8-byte pointer per term, and sorting it takes a merge buffer of up
    # to half as many.  Besides these, what emit allocates must stay under a
    # quarter of what it writes; holding the whole output as text and as
    # bytes, as a single write needs, takes three times it.
    terms = len(donaldson_closed_form(argv[1]).kernel)
    peak, written = emit_peak(monkeypatch, argv)
    assert written > 10 * reporting.CHUNK
    assert peak - 12 * terms < written / 4


@pytest.mark.parametrize(
    "verb,fmt", [("series", []), ("series", STRUCT), ("sw", [])], ids=["series", "structured", "sw"]
)
def test_blowup_listing_memory_is_flat_in_k(monkeypatch, verb, fmt):
    # 16 times the classes at k = 14 as at k = 10: the listing streams them
    # from E(3)'s two classes, holding at most 256 tail texts at any k
    small, large = (emit_peak(monkeypatch, [verb, f"blowup(E(3),{k})", *fmt])[0] for k in (10, 14))
    assert abs(large - small) < 16 * 1024


def test_unbuffered_output_spanning_many_chunks_is_byte_identical():
    argv = ["series", "blowup(E(6),10)", *STRUCT]
    buffered, unbuffered = run_cli(argv), run_cli(argv, "1")
    assert buffered.returncode == unbuffered.returncode == 0
    assert len(buffered.stdout) > 100 * reporting.CHUNK
    assert unbuffered.stdout == buffered.stdout
    assert buffered.stdout.decode() == stdlib_text(buffered.stdout.decode())


@pytest.mark.parametrize(
    "argv,code",
    [
        (["series", "E(1)"], 3),
        (["series", "E(1)", *STRUCT], 3),
        (["series", "E(3"], 2),
        (["sw", "blowup(E(3),"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_a_rejected_invocation_writes_nothing_on_stdout(argv, code):
    proc = run_cli(argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")
