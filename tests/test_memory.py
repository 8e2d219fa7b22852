"""Memory guards: each large kernel is built once.

Peaks are measured in-process with tracemalloc and bounded as ratios to the
memory the finished objects hold, so the bounds do not depend on the sizes
of ints, tuples and dicts of one Python version (3.10 to 3.13 read within
2% of each other).  Copying each freshly built dict again in the kernel
and map constructors, dividing into a second dense list in exact_div and
comparing against a scaled copy of the basic-class kernel gave peak/held
ratios of 2.46 and 1.47-1.51 for the two tests below; the code reads 1.51
and 1.29-1.30.
"""

import gc
import io
import tracemalloc
from contextlib import redirect_stdout

from blowdown.catalog import _closed_family, donaldson_closed_form, parse_spec, sw_replay
from blowdown.cli import main


def _traced(f):
    """(held, peak) bytes of the allocations made by f(), and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        out = f()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, out


def test_exact_div_peaks_well_below_two_quotients():
    _closed_family(parse_spec("E(4;2,3)"))  # warm up
    spec = parse_spec("E(40;11,13)")
    held, peak, series = _traced(lambda: _closed_family(spec))
    assert len(series.kernel) == 5_577
    assert peak < 2.0 * held, (held, peak)


def test_witten_peaks_near_the_two_objects_it_compares():
    spec = "logt(E(20;7,9),11)"
    with redirect_stdout(io.StringIO()):
        assert main(["witten", "E(3;2)"]) == 0  # warm up
    held, _, pair = _traced(lambda: (donaldson_closed_form(spec), sw_replay(spec)[0]))
    assert len(pair[0].kernel) == len(pair[1].values) == 13_167
    del pair
    out = io.StringIO()
    with redirect_stdout(out):
        _, peak, code = _traced(lambda: main(["witten", spec]))
    assert code == 0 and out.getvalue().startswith("PASS")
    assert peak < 1.4 * held, (held, peak)


def test_from_ints_validates_long_rank_1_kernels_in_place():
    # one iterator type-checks every coordinate and the content search stops
    # at 1 without a tuple of all values; a transpose with zip(*keys) made one
    # tuple per key (8.2 MiB here), so the bound is absolute: nothing is copied
    from blowdown.exppoly import ExpKernel
    from blowdown.lattice import IntersectionLattice

    lat = IntersectionLattice(["f"], [[0]])
    num = {(e,): 2 * e + 1 for e in range(-60_000, 60_000)}
    _, peak, kernel = _traced(lambda: ExpKernel._from_ints(lat, num, 2))
    assert len(kernel) == 120_000 and kernel.num[(3,)] == 7
    assert peak < 2**20, peak
