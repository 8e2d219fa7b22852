"""The audit verb's characteristic-number audit of a spec; it looks the
catalog's plan and run up when called."""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .lattice import characteristic_squares
from .reporting import CheckReport
from .transform import sign_vectors

if TYPE_CHECKING:
    from .catalog import ManifoldSpec


def adjunction_audit(spec: Union[str, ManifoldSpec]) -> list[CheckReport]:
    """Characteristic-number consistency for a spec: every basic class must
    have square 3*signature + 2*euler (zero-dimensional moduli), the elliptic
    family must sit at canonical square zero, and the H and Y families must
    land on their Noether / bisecting lines.  Squares are checked before the k
    blowups, which lower both sides by k; only a failing class gets its 2^k tails."""
    from .catalog import EllipticSpec, HSpec, YSpec, _as_spec, render, run, surgery_plan

    node = _as_spec(spec)
    plan = surgery_plan(node)
    k, series = plan.blowups, run(plan, "closed")[0]
    target, c2 = 3 * series.signature + 2 * series.euler - k, series.euler + k
    want = series.lattice.den * (target + k)  # den * c.c of a class that passes
    squares = characteristic_squares(series.lattice, series.kernel.num)
    bad = sorted(key for key, sq in zip(series.kernel.num, squares) if sq != want)
    bad = [list(key + tail) for key in bad for tail in sign_vectors(k)]
    params = {"spec": render(node), "expected_square": target}
    reports = [CheckReport("basic-class-square", not bad, parameters=params, counterexamples=bad)]
    c1 = {"spec": render(node), "c1_sq": target}
    if isinstance(node, EllipticSpec):
        reports.append(CheckReport("elliptic-canonical-square-zero", target == 0, parameters=c1))
    elif isinstance(node, (HSpec, YSpec)):  # the Noether line 5x - c2 + 36, the bisecting 11x
        slope, name = (5, "noether-line") if isinstance(node, HSpec) else (11, "bisecting-line")
        ok = slope * target - c2 + 36 == 0
        reports.append(CheckReport(name, ok, parameters={**c1, "c2": c2}))
    return reports
