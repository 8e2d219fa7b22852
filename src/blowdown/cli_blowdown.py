"""The blowdown verb: W, Y and H's chain blowdowns replayed with their class
maps, in the text rendering of .cli_calculus."""

from __future__ import annotations

from .reporting import emit


def cmd_blowdown(args) -> int:
    from .catalog import EllipticSpec, HSpec, WSpec, YSpec, parse_spec, render, run, surgery_plan
    from .cli_calculus import class_text, series_lines

    spec = parse_spec(args.spec)
    if args.sections is not None:
        if spec != EllipticSpec(4):
            raise ValueError("--sections requires the spec E(4): the disjoint square -4 sections live there")
        n = args.sections
        if not 1 <= n <= 8:
            raise ValueError("section count must be between 1 and 8 (simple connectivity bound)")
        plan = surgery_plan(WSpec(n))
    else:
        if not isinstance(spec, EllipticSpec) or spec.pairs:
            raise ValueError("--horikawa requires a plain E(n) spec")
        n = spec.n
        if n < 4:
            raise ValueError("Horikawa-type blowdowns need n >= 4 (chain order n-2 >= 2)")
        plan = surgery_plan(YSpec(n) if args.horikawa == 1 else HSpec(n))
    final, steps = run(plan, "pipeline")

    def obj():
        from .serialize import blowdown_to_obj, series_to_obj

        return {
            "spec": render(spec),
            "steps": [
                {
                    "order": step.n,
                    "chain": list(step.spheres),
                    "basis": list(pre.basis_names),
                    **blowdown_to_obj(result, step.n**2),
                }
                for step, pre, result in steps
            ],
            "series": series_to_obj(final),
        }

    def text():
        yield f"spec: {render(spec)}"
        for i, (step, pre, result) in enumerate(steps, start=1):
            yield f"step {i}: blow down order-{step.n} chain ending at {step.spheres[-1]}"
            for rec in result.class_map:
                src = class_text(pre, rec.source)
                line = f"  {src}: {rec.status} (boundary {rec.residue} mod {step.n**2})"
                if rec.status == "kept":
                    line += f" -> {class_text(result.result.lattice, rec.image)}"
                yield line
        yield from series_lines(final)

    emit(args, obj, text)
    return 0
