"""Lattices the tests build over and over.

Imported by the test modules as `from lattices import ...`; pytest puts this
directory on sys.path because the tests are not a package.
"""

from blowdown.lattice import IntersectionLattice
from blowdown.plumbing import chain_plumbing


def diagonal_lattice(names, squares) -> IntersectionLattice:
    n = len(names)
    gram = [[squares[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return IntersectionLattice(names, gram)


def chain_lattice(p: int) -> IntersectionLattice:
    """The chain's own second homology in the sphere basis u_1, ..., u_{p-1}."""
    names = [f"u{i}" for i in range(1, p)]
    return IntersectionLattice(names, chain_plumbing(p).matrix())
