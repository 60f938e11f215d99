"""Conjugator synthesis and the conjugacy / cycle-type-isomorphism bridge.

Two permutations with the same cycle partition are conjugate by the
expression-level ConjugatorSamePartition node; when the partitions differ
but an isomorphism theta between them is supplied, the conjugator is theta
composed with the same-partition conjugator of f and theta^-1 g theta.
"""

from __future__ import annotations

from typing import Optional

from .equivalence import EqExpr
from .permutation import (
    Compose,
    ConjugatorSamePartition,
    Inverse,
    PermExpr,
)
from . import cycles as cyc
from .normalform import witness_to_eq


def conjugator_same_partition(f: PermExpr, g: PermExpr, w: cyc.CycleWitness,
                              eq: Optional[EqExpr] = None) -> PermExpr:
    """h with f = h^-1 g h, given that f and g share the cycle partition
    decided by w.  A violated precondition surfaces as fuel exhaustion."""
    if eq is None:
        eq = witness_to_eq(w)
    return ConjugatorSamePartition(f, g, eq)


def conjugator_from_isomorphism(f: PermExpr, g: PermExpr, theta: PermExpr,
                                w: cyc.CycleWitness,
                                eq: Optional[EqExpr] = None) -> PermExpr:
    """Conjugator for f and g from a cycle-partition isomorphism theta.

    theta^-1 g theta shares f's partition, so the same-partition conjugator
    applies; composing theta back on gives f = c^-1 g c.
    """
    pulled_back = Compose(Inverse(theta), Compose(g, theta))
    h = conjugator_same_partition(f, pulled_back, w, eq=eq)
    return Compose(theta, h)


def conjugate_perm(f: PermExpr, h: PermExpr) -> PermExpr:
    """h f h^-1, whose cycle partition is the image of f's under h."""
    return Compose(h, Compose(f, Inverse(h)))
