"""The nodal models built on the chain blowdown: p2_blowdown (by the
coefficient twist), nodal_log_pipeline and connected_sum_hp, which a plan
loads only for an hpsum step.  They push each basic class and exceptional
direction off their chain once (_check_nodal_chain); restriction is affine,
so that covers all 2^(p-1) sign patterns, whose enumeration
tests/test_nodal_check.py keeps."""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

from .chain_surgery import BlowdownResult, ChainConfig, _square, _support
from .chain_surgery import chain_pushoff, restrict_class
from .exppoly import ExpKernel, exact_div, sinh_c
from .lattice import HClass, IntersectionLattice, pairing
from .plumbing import chain_plumbing, scaled_plumbing_inverse
from .transform import ManifoldSeries, blown_up_lattice


def twist(k: ExpKernel, c: HClass) -> ExpKernel:
    """Coefficient twist a_s -> a_s (-1)^{(c^2 + kappa_s . c)/2}.

    Every exponent (c^2 + kappa_s . c) must be an even integer.
    """
    if c.lattice != k.lattice:
        raise ValueError("lattice mismatch: twisting class not in the kernel lattice")
    csq = pairing(c, c)
    out = {}
    for key, a in k.num.items():
        kc = pairing(HClass(k.lattice, key), c)
        val = csq + kc
        if val.denominator != 1 or int(val) % 2:
            raise ValueError(f"twist undefined for class {key}: exponent {val} is not even")
        out[key] = a if (int(val) // 2) % 2 == 0 else -a
    return ExpKernel._from_ints(k.lattice, out, k.den)


def p2_blowdown(
    m: ManifoldSeries, sigma: HClass, image_names: Optional[Sequence[str]] = None
) -> BlowdownResult:
    """Blowdown of a single square -4 sphere via the coefficient twist:
    the new kernel is K - twist(K, sigma), classes then pushed off the sphere.

    Agrees with taut_blowdown whenever the sphere is taut (|class.sigma| <= 2),
    but is defined without that hypothesis.
    """
    if sigma.lattice != m.lattice:
        raise ValueError("lattice mismatch: sphere class not in the series lattice")
    if _square(m.lattice, sigma.coeffs) != -4 * m.lattice.den:
        raise ValueError("the sphere class must have square -4")
    k2 = m.kernel - twist(m.kernel, sigma)
    classes = m.basic_classes()
    keep = [bool(k2.coeff(kappa)) for kappa in classes]
    lat, records = chain_pushoff(ChainConfig(2, m.lattice, [sigma]), classes, keep, image_names)
    terms = [(r.image, k2.num[r.source]) for r in records if r.status == "kept"]
    kernel = ExpKernel._from_ints(lat, dict(ExpKernel(lat, terms).num), k2.den)  # sum, then / den
    series = ManifoldSeries(kernel, m.euler - 1, m.signature + 1)
    return BlowdownResult(series, tuple(records))


def formal_log_coefficients(p: int) -> list[tuple[int, int]]:
    """Coefficients of sinh(p*u)/sinh(u) as (exponent, coefficient) pairs,
    exponent descending.  Computed by exact Laurent division on a scratch
    rank-1 lattice, not written down: the all-ones answer is a theorem here.
    The coefficients are ints; a non-integral quotient raises ValueError."""
    if p < 1:
        raise ValueError("order must be >= 1")
    scratch = IntersectionLattice(["u"], [[0]])
    u = scratch.basis_class("u")
    q = exact_div(sinh_c(u * p), sinh_c(u))
    if q.den != 1:
        raise ValueError(f"sinh({p}u)/sinh(u) has a non-integral coefficient")
    return sorted(((key[0], c) for key, c in q.num.items()), reverse=True)


def _exceptional_chain_spheres(
    lat: IntersectionLattice, exc_names: Sequence[str], s_coeffs: tuple[int, ...]
) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero entries of the chain of length p-1 carried by p-1
    exceptional directions: sphere i has row i of _nodal_rows(p) as its
    coordinates along them, and the end sphere also carries the fiber class
    s_coeffs (zero for no fiber)."""
    where = {name: i for i, name in enumerate(lat.basis_names)}
    at = [where[name] for name in exc_names]
    spheres = [{at[k]: a for k, a in row} for row in _nodal_rows(len(exc_names) + 1)]
    for i, a in _support(s_coeffs):
        spheres[-1][i] = spheres[-1].get(i, 0) + a
    return [tuple(sorted((i, a) for i, a in sphere.items() if a)) for sphere in spheres]


def _nodal_rows(p: int) -> list[tuple[tuple[int, int], ...]]:
    """A by its rows' nonzero entries (k, a): row i holds the coordinates of
    the i-th sphere of the exceptional chain (no fiber) in the exceptional
    directions e_1, ..., e_{p-1}, counted from 0."""
    rows = [((p - i - 2, 1), (p - i - 1, -1)) for i in range(1, p - 1)]
    return rows + [((0, -2),) + tuple((k, -1) for k in range(1, p - 1))]


def verify_nodal_matrix_identity(p: int) -> bool:
    """Exact integer checks of the linear algebra behind the nodal-chain
    extension.  With A the change-of-basis matrix of the exceptional chain
    and S = p^2 P^{-1} (scaled_plumbing_inverse): P = -A A^t, which is
    P (A^t)^{-1} = -A; A^t S A = -p^2 I; and the end coordinate of
    S A (1,...,1) equals p(p-1), that is (p-1)/p over p^2.  A wrong A gives
    False, never an error."""
    from .linalg import mat_vec

    if p < 2:
        raise ValueError("need p >= 2")
    n, p2 = p - 1, p * p
    a = [[dict(row).get(k, 0) for k in range(n)] for row in _nodal_rows(p)]
    s = scaled_plumbing_inverse(p)
    if chain_plumbing(p).matrix() != [[-x for x in mat_vec(a, row)] for row in a]:
        return False
    at = list(zip(*a))
    for j, col in enumerate(at):
        if mat_vec(at, mat_vec(s, col)) != [-p2 if i == j else 0 for i in range(n)]:
            return False
    return mat_vec(s, mat_vec(a, [1] * n))[n - 1] == p * (p - 1)


def _check_nodal_chain(m: ManifoldSeries, p: int, s: Optional[HClass]) -> None:
    """Blow up p-1 times, form the exceptional chain (ending on the fiber s
    when given) and check that every kappa + eps, eps a sign vector on the
    exceptional directions, pushes off to kappa + (sum(eps) / p) * s with
    boundary p * sum(eps) mod p^2.  Restriction is affine in the class, so
    it is enough that each basic class extends to itself with boundary 0
    and each exceptional direction to s/p (0 without a fiber) with boundary
    p, compared as integer numerators over det = p^2.  Raises RuntimeError
    on a mismatch."""
    up = blown_up_lattice(m.lattice, p - 1)
    pad, det = (0,) * (p - 1), p * p
    s_up = (s.coeffs if s is not None else (0,) * m.lattice.rank) + pad
    exc_names = up.basis_names[m.lattice.rank :]
    config = ChainConfig(p, up, _exceptional_chain_spheres(up, exc_names, s_up))
    step = tuple(p * a for a in s_up)  # det * s / p
    checks = [(HClass(up, key + pad), tuple(det * a for a in key + pad), 0) for key in m.kernel.num]
    for kappa, want, b in chain(checks, ((up.basis_class(nm), step, p) for nm in exc_names)):
        r = restrict_class(config, kappa)
        if r.extension != want or r.boundary.value != b:
            raise RuntimeError(
                f"nodal push-off of {kappa.coeffs}: got extension {r.extension}/{det} with "
                f"boundary {r.boundary.value}, expected {want}/{det} with boundary {b}"
            )


def nodal_log_pipeline(m: ManifoldSeries, s: HClass, p: int) -> ManifoldSeries:
    """Order-p log transform built the long way: blow up p-1 times, check
    the push-offs off the exceptional chain ending on the fiber
    (_check_nodal_chain), and reassemble with the division-derived ladder
    coefficients.  Must agree with log_transform exactly."""
    from .placement import log_placement

    if p < 2:
        raise ValueError("need p >= 2")
    place = log_placement(m.lattice, m.kernel.num, s, p)
    _check_nodal_chain(m, p, s)
    ladder = formal_log_coefficients(p)
    terms = [(place.image(key, j), a * b) for key, a in m.kernel.num.items() for j, b in ladder]
    num = dict(ExpKernel(place.lattice, terms).num)  # sum, then / den
    kernel = ExpKernel._from_ints(place.lattice, num, m.kernel.den)
    return ManifoldSeries(kernel, m.euler, m.signature)


def connected_sum_hp(m: ManifoldSeries, p: int) -> ManifoldSeries:
    """Connected sum with the homology ball double H_p, realized as blowing up
    p-1 times and blowing down the exceptional chain that misses the fiber.
    Every extension equals its source class, so the kernel just scales by the
    ladder total p; euler and signature are unchanged."""
    if p < 1:
        raise ValueError("order must be >= 1")
    if p == 1:
        return m
    _check_nodal_chain(m, p, None)
    total = sum(c for _, c in formal_log_coefficients(p))
    return ManifoldSeries(m.kernel.scale(total), m.euler, m.signature)
