"""The printed closed forms of the catalog's family leaves (E, W, Y and H),
which only the closed route loads, to seed its plan."""

from __future__ import annotations

from math import lcm

from .catalog import EllipticSpec, ManifoldSpec, WSpec, YSpec
from .exppoly import cosh_c, exact_div, power, sinh_c
from .lattice import IntersectionLattice
from .transform import ManifoldSeries


def _y_lattice(n: int) -> IntersectionLattice:
    """Carrier after blowing down one of the two chains: the image class lam
    of square n-3 meeting the remaining section t in n-2, next to the intact
    second chain (the order n-2 plumbing on b1, ..., t)."""
    from .plumbing import chain_plumbing

    p = n - 2
    names = ["lam"] + [f"b{i}" for i in range(1, p - 1)] + ["t"]
    gram = chain_plumbing(p).entries(1)
    gram[0, 0] = n - 3
    gram[0, p - 1] = gram[p - 1, 0] = n - 2
    return IntersectionLattice(names, gram)


def closed_family(spec: ManifoldSpec) -> ManifoldSeries:
    """The printed closed form of a family leaf (E, W, Y or H).  E(n) with
    multiple fibers divides its sinh power by one sinh factor at a time, so
    each long-division step of exact_div clears one tail term."""
    if isinstance(spec, EllipticSpec):
        orders = [o for pair in spec.pairs for o in pair]
        n_total = lcm(*orders) if orders else 1
        name = "f" if n_total == 1 else f"f_{n_total}"
        lat = IntersectionLattice([name], [[0]])
        u = lat.basis_class(name)
        kernel = power(sinh_c(u * n_total), spec.n - 2 + len(orders))
        for o in orders:
            kernel = exact_div(kernel, sinh_c(u * (n_total // o)))
        return ManifoldSeries(kernel, 12 * spec.n, -8 * spec.n)
    n = spec.n
    if isinstance(spec, WSpec):
        lat = IntersectionLattice(["k"], [[n]])
        kernel = cosh_c(lat.basis_class("k")).scale(2 ** (n - 1))
        return ManifoldSeries(kernel, 48 - n, -32 + n)
    wave = cosh_c if n % 2 == 0 else sinh_c
    if isinstance(spec, YSpec):
        lat = _y_lattice(n)
        kernel = wave(lat.basis_class("lam"))
        return ManifoldSeries(kernel, 11 * n + 3, -7 * n - 3)
    lat = IntersectionLattice(["k"], [[2 * n - 6]])
    kernel = wave(lat.basis_class("k")).scale(2 ** (n - 3))
    return ManifoldSeries(kernel, 10 * n + 6, -6 * n - 6)
