"""The affine nodal push-off check against the full sign-vector enumeration.

`nodal._check_nodal_chain` restricts each basic class and each of the p-1
exceptional directions once.  `_enumerated_check` below is the enumeration
it replaced: it pushes every blown-up class kappa + eps, over all 2^(p-1)
sign vectors eps, off the exceptional chain.  Kept here as an oracle for
small p only.
"""

from fractions import Fraction

import pytest

from blowdown import chain_surgery, nodal
from blowdown.catalog import donaldson_closed_form, donaldson_pipeline
from blowdown.chain_surgery import ChainConfig, restrict_class
from blowdown.nodal import (
    _check_nodal_chain,
    _exceptional_chain_spheres,
    connected_sum_hp,
    nodal_log_pipeline,
)
from blowdown.lattice import HClass, QClass
from blowdown.transform import blown_up_lattice, log_transform

MODELS = ("E(2)", "E(3)", "blowup(E(3),1)")


def _sign_vectors(n):
    for bits in range(1 << n):
        yield tuple(1 if bits & (1 << i) else -1 for i in range(n))


def _enumerated_check(m, p, s):
    """Every kappa + eps must push off to kappa + (sum(eps) / p) * s with
    boundary p * sum(eps) mod p^2, in the index-p subgroup."""
    up = blown_up_lattice(m.lattice, p - 1)
    pad = (0,) * (p - 1)
    s_up = (s.coeffs if s is not None else (0,) * m.lattice.rank) + pad
    config = ChainConfig(
        p, up, _exceptional_chain_spheres(up, up.basis_names[m.lattice.rank :], s_up)
    )
    for kappa in m.basic_classes():
        base = kappa.coeffs + pad
        for eps in _sign_vectors(p - 1):
            total = sum(eps)
            r = restrict_class(config, HClass(up, kappa.coeffs + eps))
            want = QClass(up, [a + Fraction(total * b, p) for a, b in zip(base, s_up)])
            if QClass(up, [Fraction(a, p * p) for a in r.extension]) != want:
                raise RuntimeError(f"extension mismatch at {kappa.coeffs} + {eps}")
            if r.boundary.value != (p * total) % (p * p) or not r.boundary.in_subgroup(p):
                raise RuntimeError(f"boundary mismatch at {kappa.coeffs} + {eps}")


def _cases():
    for spec in MODELS:
        m = donaldson_closed_form(spec)
        for s in (m.lattice.basis_class("f"), None):
            for p in range(2, 8):
                yield spec, m, s, p


def test_affine_check_and_enumeration_both_pass():
    for _, m, s, p in _cases():
        _enumerated_check(m, p, s)
        _check_nodal_chain(m, p, s)


def test_perturbed_exceptional_direction_fails_both(monkeypatch):
    """Shift the extension linearly in the last exceptional coordinate, so
    that direction alone extends to the wrong class: both checks must raise.
    The shift is kappa's last coordinate over p, so p times it on the
    integer numerators over p^2."""
    original = chain_surgery._extension

    def perturbed(c, kappa, g):
        ext = original(c, kappa, g)
        return ext[:-1] + (ext[-1] + kappa.coeffs[-1] * c.p,)

    monkeypatch.setattr(chain_surgery, "_extension", perturbed)
    for spec, m, s, p in _cases():
        with pytest.raises(RuntimeError):
            _enumerated_check(m, p, s)
        with pytest.raises(RuntimeError, match="nodal push-off"):
            _check_nodal_chain(m, p, s)


def test_nodal_surgeries_restrict_each_direction_once(monkeypatch):
    calls = []

    def counting(c, kappa):
        calls.append(kappa)
        return restrict_class(c, kappa)

    monkeypatch.setattr(nodal, "restrict_class", counting)
    p = 8
    m = donaldson_closed_form("blowup(E(3),1)")
    f = m.lattice.basis_class("f")
    assert connected_sum_hp(m, p).kernel == m.kernel * p
    assert len(calls) <= p - 1 + len(m.kernel.num)
    calls.clear()
    assert nodal_log_pipeline(m, f, p) == log_transform(m, f, p)
    assert len(calls) <= p - 1 + len(m.kernel.num)


def test_hpsum_at_order_50():
    e2 = donaldson_closed_form("E(2)")
    assert donaldson_pipeline("hpsum(E(2),50)").kernel == e2.kernel * 50
