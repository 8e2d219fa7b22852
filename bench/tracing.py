"""In-process tracing of `blowdown` from outside the package.

`Tracer.install` replaces each traced callable by a wrapper that records a
span (name, start, end, parent span, invocation id).  Modules bind many of
these names with `from .lattice import pairing` and the like, so the wrapper
goes into every `blowdown` module namespace that holds the original object;
methods and constructors are wrapped on their class.  Spans stay in memory
(flat arrays) until the pass ends.  A span's self time is its duration minus
the durations of its child spans.

The wrapper's own cost lands in the caller's self time; `trace.overhead_ratio`
reports the total cost of tracing.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from math import comb
from pathlib import Path
from typing import Callable, Optional

# (metric prefix, module, attribute; "Class.method" wraps a method on its class)
TRACED = [
    ("lattice.pairing", "blowdown.lattice", "pairing"),
    ("lattice.is_characteristic", "blowdown.lattice", "is_characteristic"),
    ("lattice.QClass", "blowdown.lattice", "QClass.__init__"),
    ("linalg.hnf_rows", "blowdown.linalg", "hnf_rows"),
    ("linalg.span_coords", "blowdown.linalg", "span_coords"),
    ("linalg.mat_vec", "blowdown.linalg", "mat_vec"),
    ("exppoly.ExpKernel", "blowdown.exppoly", "ExpKernel.__init__"),
    ("exppoly.ExpKernel.mul", "blowdown.exppoly", "ExpKernel.__mul__"),
    ("exppoly.exact_div", "blowdown.exppoly", "exact_div"),
    ("transform.ManifoldSeries", "blowdown.transform", "ManifoldSeries.__init__"),
    ("transform.blowup", "blowdown.transform", "blowup"),
    ("transform.log_transform", "blowdown.transform", "log_transform"),
    ("transform.taut_blowdown", "blowdown.transform", "taut_blowdown"),
    ("transform.restrict_class", "blowdown.transform", "restrict_class"),
    ("transform.connected_sum_hp", "blowdown.transform", "connected_sum_hp"),
    ("moduli.verify_boundary_value_lemmas", "blowdown.moduli", "verify_boundary_value_lemmas"),
    ("swinv.SWMap", "blowdown.swinv", "SWMap.__init__"),
    ("swinv.sw_blowup", "blowdown.swinv", "sw_blowup"),
    ("swinv.sw_log_transform", "blowdown.swinv", "sw_log_transform"),
    ("swinv.sw_taut_blowdown", "blowdown.swinv", "sw_taut_blowdown"),
    ("swinv.witten_check", "blowdown.swinv", "witten_check"),
    ("catalog.parse_spec", "blowdown.catalog", "parse_spec"),
    ("catalog.donaldson_closed_form", "blowdown.catalog", "donaldson_closed_form"),
    ("catalog.donaldson_pipeline", "blowdown.catalog", "donaldson_pipeline"),
    ("catalog.sw_closed_form", "blowdown.catalog", "sw_closed_form"),
    ("serialize.series_to_obj", "blowdown.serialize", "series_to_obj"),
    ("serialize.swmap_to_obj", "blowdown.serialize", "swmap_to_obj"),
    ("cli.main", "blowdown.cli", "main"),
]

NAMES = [name for name, _, _ in TRACED]

# Counts and ratios derived at the traced boundaries, besides .calls/.self_s.
EXTRA_METRICS = {
    "exppoly.ExpKernel.mul.term_pairs": "count",
    "exppoly.exact_div.steps": "count",
    "transform.taut_blowdown.kept_ratio": "1",
    "transform.restrict_class.per_class": "1",
    "moduli.lemma_vectors": "count",
    "swinv.sw_taut_blowdown.dropped": "count",
    "trace.overhead_ratio": "1",
}

# Surgeries that call restrict_class on the classes of their input; their
# input class counts are the denominator of restrict_class.per_class.
_RESTRICTING = {
    "transform.taut_blowdown": lambda args: len(args[0].kernel.terms),
    "swinv.sw_taut_blowdown": lambda args: len(args[0].values),
    "transform.connected_sum_hp": lambda args: len(args[0].kernel.terms) if args[1] > 1 else 0,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Records spans for the traced callables while installed."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.invocation = -1
        self.name_ids = array("H")
        self.parents = array("l")
        self.invocations = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget the recorded spans and counts (the arrays are reused in place)."""
        for arr in (self.name_ids, self.parents, self.invocations, self.starts, self.ends):
            del arr[:]
        self._stack.clear()
        self.term_pairs = 0
        self.restrict_inputs = 0
        self.div_operands: list[tuple[object, object]] = []
        self.lemma_calls: list[tuple[int, int, int]] = []
        self.class_records: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "blowdown" or n.startswith("blowdown.")]
        for name_id, (name, module_name, attr) in enumerate(TRACED):
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name_id, name, vars(cls)[meth]))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name_id, name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def _wrap(self, name_id: int, name: str, fn: Callable) -> Callable:
        hook = self._hook(name, fn)
        perf = time.perf_counter
        stack, starts, ends = self._stack, self.starts, self.ends
        name_ids, parents, invocations = self.name_ids, self.parents, self.invocations

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            invocations.append(self.invocation)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- counts at the boundaries --------------------------------------------

    def _hook(self, name: str, fn: Callable) -> Optional[Callable]:
        """Cheap per-call bookkeeping; anything costly is deferred to counts()."""
        if name == "exppoly.ExpKernel.mul":

            def hook(args, kwargs, result):
                other = args[1]
                if isinstance(other, type(args[0])):
                    self.term_pairs += len(args[0].terms) * len(other.terms)

            return hook
        if name == "exppoly.exact_div":
            return lambda args, kwargs, result: self.div_operands.append((args[0], args[1]))
        if name == "moduli.verify_boundary_value_lemmas":
            sig = inspect.signature(fn)

            def hook(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self.lemma_calls.append((a["p"], a["t_max"], a["box"]))

            return hook
        if name in _RESTRICTING:
            inputs = _RESTRICTING[name]

            def hook(args, kwargs, result):
                self.restrict_inputs += inputs(args)
                if name == "transform.taut_blowdown":
                    self.class_records.extend(rec.status for rec in result.class_map)

            return hook
        return None

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[float]]:
        """Per traced name: call count and summed self time of the recorded spans."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += self.ends[i] - self.starts[i] - child[i]
        return calls, self_s

    def counts(self, dropped: int) -> dict[str, float]:
        """The derived counts and ratios of the recorded pass."""
        from blowdown.exppoly import _collinear_multiples

        calls, _ = self.self_times()
        steps = 0
        for a, b in self.div_operands:
            pool = list(a.terms) + list(b.terms)
            if not a.terms or not b.terms or not any(any(v) for v in pool):
                continue
            _, mult = _collinear_multiples(pool)
            span_a = max(mult[k] for k in a.terms) - min(mult[k] for k in a.terms)
            span_b = max(mult[k] for k in b.terms) - min(mult[k] for k in b.terms)
            steps += max(0, span_a - span_b + 1)
        restrict_calls = calls[NAMES.index("transform.restrict_class")]
        records = len(self.class_records)
        return {
            "exppoly.ExpKernel.mul.term_pairs": self.term_pairs,
            "exppoly.exact_div.steps": steps,
            "transform.taut_blowdown.kept_ratio":
                self.class_records.count("kept") / records if records else 0.0,
            "transform.restrict_class.per_class":
                restrict_calls / self.restrict_inputs if self.restrict_inputs else 0.0,
            "moduli.lemma_vectors": sum(lemma_vectors(*c) for c in self.lemma_calls),
            "swinv.sw_taut_blowdown.dropped": dropped,
        }

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as gzipped tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tinvocation\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{NAMES[self.name_ids[i]]}\t{self.invocations[i]}\t{self.parents[i]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )


def lemma_vectors(p: int, t_max: int, box: int) -> int:
    """Vectors the lemma verifier scans for one p: every coordinate multiset in
    the box, plus the parity-constrained box of each canonical class.  Computed
    from the arguments, not counted inside the verifier."""
    from blowdown.moduli import CanonicalClass

    total = comb(2 * box + 1 + p - 2, p - 1)
    for t in range(t_max + 1):
        for b in range(1, p):
            if 2 * ((p - 1) * t + b) > p * p:
                continue
            size = 1
            for c in CanonicalClass(p, t, b).rel_class().coeffs:
                size *= sum(1 for v in range(-box, box + 1) if (v - c) % 2 == 0)
            total += size
    return total
