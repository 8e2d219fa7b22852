"""Memory guards: each large kernel is built once.

Peaks are measured in-process with tracemalloc and bounded as ratios to the
memory the finished objects hold, so the bounds do not depend on the sizes
of ints, tuples and dicts of one Python version (3.10 to 3.13 read within
2% of each other).  Copying each freshly built dict again in the kernel
and map constructors, dividing into a second dense list in exact_div and
comparing against a scaled copy of the basic-class kernel gave peak/held
ratios of 2.46 and 1.47-1.51 for the first two tests below; validating the
classes through a zip(*keys) transpose of the key set gave 1.45 and 1.29;
the code reads 1.21-1.22 and 1.07-1.08.
"""

import gc
import io
import tracemalloc
from contextlib import redirect_stdout

from blowdown.catalog import donaldson_closed_form, parse_spec, surgery_plan, sw_closed_form
from blowdown.closed import closed_family
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
    closed_family(parse_spec("E(4;2,3)"))  # warm up
    spec = parse_spec("E(40;11,13)")
    held, peak, series = _traced(lambda: closed_family(spec))
    assert len(series.kernel) == 5_577
    assert peak < 2.0 * held, (held, peak)


def test_witten_peaks_near_the_two_objects_it_compares():
    spec = "logt(E(20;7,9),11)"
    with redirect_stdout(io.StringIO()):
        assert main(["witten", "E(3;2)"]) == 0  # warm up
    held, _, pair = _traced(lambda: (donaldson_closed_form(spec), sw_closed_form(spec)))
    assert len(pair[0].kernel) == len(pair[1].values) == 13_167
    del pair
    out = io.StringIO()
    with redirect_stdout(out):
        _, peak, code = _traced(lambda: main(["witten", spec]))
    assert code == 0 and out.getvalue().startswith("PASS")
    assert peak < 1.15 * held, (held, peak)


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


def test_characteristic_squares_reads_no_key_on_a_fiber_lattice():
    # a zero Gram row pairs every class to 0, so no column is read and the
    # 120,000 squares (0.92 MiB) are all that is allocated; a transpose with
    # zip(*keys) made one iterator per key (8.2 MiB here)
    from blowdown.lattice import IntersectionLattice, characteristic_squares

    lat = IntersectionLattice(["f"], [[0]])
    keys = {(e,): 1 for e in range(-60_000, 60_000)}.keys()
    _, peak, squares = _traced(lambda: characteristic_squares(lat, keys))
    assert squares == [0] * 120_000
    assert peak < 2**20, peak


def test_characteristic_squares_reads_only_the_columns_a_gram_entry_reads():
    # on [[1, 0], [0, 0]] only the first coordinate is read: a class is
    # characteristic when it is odd; one even class among 120,000 is reported.
    # The zip(*keys) transpose peaked at 9.5 times the squares, the column
    # read at 4.9
    from blowdown.lattice import IntersectionLattice, characteristic_squares

    lat = IntersectionLattice(["k", "f"], [[1, 0], [0, 0]])
    num = {(2 * (e % 4) - 3, e): 1 for e in range(-60_000, 60_000)}
    num[(2, 5)] = 1
    held, peak, squares = _traced(lambda: characteristic_squares(lat, num.keys()))
    assert squares.count(None) == 1 and squares[-1] is None
    assert set(squares[:-1]) == {1, 9}
    assert peak < 6 * held, (held, peak)


def test_characteristic_squares_builds_only_the_live_columns():
    # the chain seed's classes are nonzero on the fiber alone, so one column of
    # the rank-1,995 ambient model of H(1000) is built; one column per nonzero
    # Gram row peaked at 1.97 times the 16.2 MiB of keys the map holds
    plan = surgery_plan("H(1000)")
    plan.ambient()  # warm up the chain's plumbing
    held, peak, swmap = _traced(plan.seed_swmap)
    assert swmap.lattice.rank == 1_995 and len(swmap.values) == 999
    assert peak < 1.25 * held, (held, peak)
