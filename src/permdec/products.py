"""Cycle deciders and cycle-finiteness procedures for products with
finitary permutations, by one arc surgery.

Orientation is fixed throughout: a product applies its right factor first.
For g = a*f*b with finitary a and b, conjugating by b gives b g b^-1 =
sigma*f with sigma = b*a.  So u and v share a g-cycle exactly when b(u) and
b(v) share a sigma*f-cycle, and the g-cycle of u is finite exactly when the
sigma*f-cycle of b(u) is.

sigma moves a finite set S.  Every f-cycle that meets S is cut into arcs:
the arc of s in S runs from s up to the next point of S on the cycle.  On an
infinite cycle the arc of the last point of S runs on forever, and a ray
runs up to the first point of S.  sigma*f agrees with f except at the end
of an arc: the arc of s runs into the arc of sigma(s'), where s' is the
point of S after s, and the ray runs into the arc of sigma of the first
point.  The sigma*f-cycles through S are the chains of arcs these joins
link, and such a cycle is infinite exactly when its chain holds an arc
that runs on forever.  An f-cycle that misses S is a sigma*f-cycle as it
stands.

The paper shows that cycle deciders of such products cannot be computed
from a decider of f alone; with cycle finiteness of f they can, and that is
what this module builds.  The caller's finiteness procedure is asked once
per f-cycle through S.  A cycle it calls finite is walked once, one unit of
fuel per step, so calling an infinite cycle finite ends in FuelExhausted
instead of a wrong answer.  Calling a finite cycle infinite is not
detected.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from .core import Fuel
from .permutation import (
    Compose,
    FinitaryProduct,
    OrbitCache,
    PermExpr,
    TranspositionTimes,
    eta_decode,
)
from . import cycles as cyc

Decider = Callable[..., bool]
CFProc = Callable[..., bool]


def _as_decider(w: cyc.CycleWitness) -> Decider:
    return cyc.witness_convert(w, cyc.DECIDER).payload


def _product_parts(sigma: dict[int, int], f: PermExpr, pi: Decider,
                   cf: Callable[[int], bool]) -> tuple[Decider, CFProc]:
    """Decider and finiteness procedure for sigma*f, given sigma's finite
    table, a decider pi of f's cycles and f's one-argument finiteness
    procedure cf; both results take an optional fuel.

    The arcs are cut on the first query, so a product that is only built
    asks nothing of pi or cf.
    """
    sigma = {s: t for s, t in sigma.items() if s != t}
    orbits = OrbitCache(f)
    # once cut: one (first point, index on a finite cycle or None, sorted
    # positions of the points of S, those points) per f-cycle through S,
    # and the chain of each arc and ray, as (its root, whether it is finite)
    cut: list = []
    chain_of: dict[int, Optional[tuple]] = {}    # point -> its chain, None off S

    def cut_arcs(fu: Fuel) -> tuple:
        groups: list[list[int]] = []
        for s in sigma:
            for g in groups:
                if pi(g[0], s, fu):
                    g.append(s)
                    break
            else:
                groups.append([s])
        cycles, joins, endless = [], [], []
        for g in groups:
            first = g[0]
            if cf(first):
                index, v = {}, first
                while v not in index:
                    fu.spend()
                    index[v] = len(index)
                    v = f.fwd(v, fu)
                pos = index
            else:
                index = None
                pos = {s: orbits.find_k(first, s, fu) for s in g}
            order = sorted(g, key=pos.__getitem__)
            cycles.append((first, index, [pos[s] for s in order], order))
            joins += [(s, sigma[t]) for s, t in zip(order, order[1:])]
            if index is None:
                joins.append((("ray", first), sigma[order[0]]))
                endless.append(order[-1])
            else:
                joins.append((order[-1], sigma[order[0]]))
        parent: dict = {}

        def root(n):
            while n in parent:
                n = parent[n]
            return n

        for n, m in joins:
            rn, rm = root(n), root(m)
            if rn != rm:
                parent[rn] = rm
        ends = {root(n) for n in endless}
        return cycles, {n: (root(n), root(n) not in ends) for j in joins for n in j}

    def locate(x: int, fu: Fuel) -> Optional[tuple]:
        if not cut:
            cut.append(cut_arcs(fu))
        cycles, chains = cut[0]
        for first, index, ks, order in cycles:
            if pi(first, x, fu):
                k = index[x] if index is not None else orbits.find_k(first, x, fu)
                i = bisect_right(ks, k) - 1
                # a finite cycle is indexed from a point of S, so only an
                # infinite one has points before its first point of S: its ray
                return chains[("ray", first) if i < 0 else order[i]]
        return None

    def chain(x: int, fu: Fuel) -> Optional[tuple]:
        if x not in chain_of:
            chain_of[x] = locate(x, fu)
        return chain_of[x]

    def decider(u: int, v: int, fu: Optional[Fuel] = None) -> bool:
        if u == v:
            return True
        fu = fu or Fuel()
        cu, cv = chain(u, fu), chain(v, fu)
        if cu is None and cv is None:
            return pi(u, v, fu)
        return cu == cv

    def cf_out(u: int, fu: Optional[Fuel] = None) -> bool:
        c = chain(u, fu or Fuel())
        return cf(u) if c is None else c[1]

    return decider, cf_out


def transposition_times_cf(x: int, y: int, f: PermExpr, w: cyc.CycleWitness,
                           cf: Callable[[int], bool]) -> tuple[cyc.CycleWitness, CFProc]:
    """Decider and finiteness procedure for the product (x y) after f."""
    decider, cf_out = _product_parts({x: y, y: x}, f, _as_decider(w), cf)
    return cyc.CycleWitness(cyc.DECIDER, decider, TranspositionTimes(x, y, f)), cf_out


def finitary_product(a_code: int, f: PermExpr, b_code: int,
                     w: cyc.CycleWitness,
                     cf: Callable[[int], bool]) -> tuple[PermExpr, cyc.CycleWitness, CFProc]:
    """Decider and finiteness procedure for a*f*b with finitary a, b given
    by their eta codes: the parts of sigma*f with sigma = b*a, asked at b(u)."""
    a = eta_decode(a_code)
    b = eta_decode(b_code)
    sigma = FinitaryProduct(b.transpositions + a.transpositions).support_mapping()
    parts_decider, parts_cf = _product_parts(sigma, f, _as_decider(w), cf)
    to_b = b.support_mapping()

    def decider(u: int, v: int, fu: Optional[Fuel] = None) -> bool:
        return parts_decider(to_b.get(u, u), to_b.get(v, v), fu)

    def cf_out(u: int, fu: Optional[Fuel] = None) -> bool:
        return parts_cf(to_b.get(u, u), fu)

    expr = Compose(a, Compose(f, b))
    return expr, cyc.CycleWitness(cyc.DECIDER, decider, expr), cf_out


def cf_from_product_deciders(f: PermExpr, w: cyc.CycleWitness,
                             uniform: Callable[[int, int], Decider],
                             y0: Optional[int]) -> CFProc:
    """Recover a cycle-finiteness procedure from a family of product
    deciders: with y0 on an infinite cycle, the cycle of x is finite
    exactly when multiplying by (x y0) fuses it with the cycle of y0.
    y0 = None asserts f has no infinite cycles at all."""
    if y0 is None:
        return lambda x: True
    pi = _as_decider(w)

    def cf(x: int, fu: Optional[Fuel] = None) -> bool:
        fu = fu or Fuel()
        if x == y0 or pi(x, y0, fu):
            return False
        return uniform(x, y0)(x, y0, fu)

    return cf
