"""The block Hermite basis and the sparse chain against the dense construction.

`chain_surgery._blown_down_lattice` reduces the extensions modulo p^2 off the
chain and runs `hnf_rows` on the chain's own coordinates.  The oracle here is
the construction it replaced: `hnf_rows` on every generator at the ambient
rank (the nonzero extensions, and p^2 e_i for each direction that dense Gram
products show orthogonal to the chain), and the dense Gram B G B^t of that
basis.  The last test counts what a chain step builds, so that rank^2 work
coming back fails without timing anything.
"""

import random
from math import gcd
from operator import mul

import pytest

import blowdown.linalg as linalg
from blowdown.catalog import SERIES_RULES, donaldson_closed_form, run, surgery_plan, walk
from blowdown.chain_surgery import ChainConfig, _blown_down_lattice, restrict_class
from blowdown.lattice import HClass, IntersectionLattice
from blowdown.linalg import hnf_rows
from blowdown.nodal import _exceptional_chain_spheres
from blowdown.transform import blown_up_lattice

SPECS = (
    [f"W({n})" for n in range(1, 9)]
    + [f"Y({n})" for n in range(4, 11)]
    + [f"H({n})" for n in range(4, 15)]
)


def _dense(support, rank):
    row = [0] * rank
    for i, a in support:
        row[i] = a
    return row


def _dense_blown_down(config, extensions):
    """hnf_rows of every generator at the ambient rank, and the Gram of that
    basis over the ambient numerators, both from full dense products."""
    amb, p2 = config.ambient, config.p**2
    num, n = amb.num, amb.rank
    spheres = [_dense(s, n) for s in config.supports]
    held = {i for u in spheres for i, row in enumerate(num) if sum(map(mul, row, u))}
    gens = [list(e) for e in extensions if any(e)]
    gens += [[p2 if j == i else 0 for j in range(n)] for i in range(n) if i not in held]
    basis = hnf_rows(gens)
    gram = [[sum(a * sum(map(mul, row, v)) for a, row in zip(u, num)) for v in basis] for u in basis]
    return basis, gram


def _assert_matches_oracle(config, extensions, image_names):
    lat, rows = _blown_down_lattice(config, extensions, image_names)
    basis, gram = _dense_blown_down(config, extensions)
    assert [_dense(r, config.ambient.rank) for r in rows] == basis
    assert lat == IntersectionLattice(lat.basis_names, gram, config.ambient.den * config.p**4)
    return lat


@pytest.mark.parametrize("spec", SPECS)
def test_chain_steps_match_the_dense_hermite_basis(spec):
    plan = surgery_plan(spec)
    _, chains = run(plan, "pipeline")
    assert len(chains) == len(plan.steps) >= 1
    for step, pre, res in chains:
        extensions = [r.extension for r in res.class_map if r.status == "kept"]
        lat = _assert_matches_oracle(step.config(pre), extensions, [step.image])
        assert lat == res.result.lattice


@pytest.mark.parametrize("p", range(2, 10))
def test_nodal_chains_match_the_dense_hermite_basis(p):
    """The exceptional chains of hpsum (no fiber) and logt (ending on f),
    with the extensions of each basic class and each exceptional direction:
    with a fiber those touch f, a direction off the chain, so f's p^2 e_f
    joins the block that hnf_rows sees."""
    touched = 0
    for spec in ("E(2)", "E(3)", "blowup(E(3),1)"):
        m = donaldson_closed_form(spec)
        up = blown_up_lattice(m.lattice, p - 1)
        pad = (0,) * (p - 1)
        for s in (m.lattice.basis_class("f").coeffs, (0,) * m.lattice.rank):
            exc = up.basis_names[m.lattice.rank :]
            config = ChainConfig(p, up, _exceptional_chain_spheres(up, exc, s + pad))
            classes = [HClass(up, key + pad) for key in m.kernel.num]
            classes += [up.basis_class(name) for name in exc]
            extensions = [restrict_class(config, kappa).extension for kappa in classes]
            _assert_matches_oracle(config, extensions, None)
            off = [i for i, held in enumerate(config.index) if not held]
            touched += any(ext[i] % (p * p) for ext in extensions for i in off)
    assert touched == 3  # once per model, with the fiber


def test_random_classes_touching_a_direction_off_the_chain():
    """Extensions of arbitrary classes on an exceptional chain whose end
    sphere carries c times f, f of zero Gram row and so off the chain: they
    touch f with residues mod p^2 that need p^2 e_f beside them, and the
    block must hold it.  x, of nonzero square but on no sphere, keeps its
    own row."""
    rng = random.Random(38)
    base = IntersectionLattice(["f", "x"], [[0, 0], [0, -3]])
    needed = 0
    for p in range(2, 8):
        up = blown_up_lattice(base, p - 1)
        for c in (1, 2, 3):
            fiber = (c, 0) + (0,) * (p - 1)
            config = ChainConfig(p, up, _exceptional_chain_spheres(up, up.basis_names[2:], fiber))
            for _ in range(4):
                coords = [tuple(rng.randint(-3, 3) for _ in up.basis_names) for _ in range(3)]
                classes = [HClass(up, v) for v in coords[: rng.randint(1, 3)]]
                extensions = [restrict_class(config, kappa).extension for kappa in classes]
                _assert_matches_oracle(config, extensions, None)
                # the residues on f alone span r Z, which holds p^2 e_f only when r divides p^2
                r = gcd(*(ext[0] % (p * p) for ext in extensions))
                needed += r > 0 and (p * p) % r > 0
    assert needed > 10


def test_a_chain_step_builds_linearly_in_n(monkeypatch):
    """Per chain step of H(n): the entries of the rows hnf_rows receives and
    the Gram entries handed to the lattice constructor.  A step linear in n
    builds a n - b of each, so doubling n from 40 to 80 adds at most twice
    what doubling it from 20 to 40 added; rank^2 work adds four times."""
    tally = {"hnf": 0, "gram": 0}
    real_hnf, real_init = linalg.hnf_rows, IntersectionLattice.__init__

    def hnf(rows):
        tally["hnf"] += sum(map(len, rows))
        return real_hnf(rows)

    def init(self, names, gram, den=1):
        tally["gram"] += len(gram) if isinstance(gram, dict) else sum(map(len, gram))
        real_init(self, names, gram, den)

    monkeypatch.setattr(linalg, "hnf_rows", hnf)
    monkeypatch.setattr(IntersectionLattice, "__init__", init)

    def step_counts(n):
        plan = surgery_plan(f"H({n})")
        steps = walk(plan.seed_series(), plan.steps, SERIES_RULES)
        next(steps)  # the seed, built before any step
        out = []
        for _ in plan.steps:
            tally.update(hnf=0, gram=0)
            next(steps)
            out.append((tally["hnf"], tally["gram"]))
        return out

    c20, c40, c80 = map(step_counts, (20, 40, 80))
    for s20, s40, s80 in zip(c20, c40, c80):
        for a, b, c in zip(s20, s40, s80):
            assert 0 < a <= b and c - b <= 2 * (b - a), (c20, c40, c80)
