"""Propagating cycle deciders and cycle-finiteness procedures through
products with finitary permutations.

Orientation is fixed throughout: the product of the transposition (x y)
with f means "apply f first, then swap x and y".  Multiplying by one
transposition does exactly one of three things to the cycle structure:

  (a) x and y on the same f-cycle: the cycle splits along the segment
      x, f(x), ..., f^(i-1)(x) (or the mirrored segment from y);
  (b) different cycles, at least one finite: the two cycles fuse;
  (c) different cycles, both infinite: the four half-rays recombine, and
      membership is decided by the sign of the power reaching a point.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import Fuel
from .permutation import (
    Compose,
    Inverse,
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


def _with_fuel(cf: CFProc) -> CFProc:
    """A caller's one-argument finiteness procedure, taking a fuel too."""
    return lambda u, fu=None: cf(u)


def _product_parts(x: int, y: int, f: PermExpr, pi: Decider,
                   cf: CFProc) -> tuple[Decider, CFProc]:
    """Decider and finiteness procedure for (x y) applied after f; cf takes
    (u, fuel), and both results take an optional fuel.

    The case analysis is resolved lazily on first use so that building a
    long chain of products stays cheap until queried.
    """
    if x == y:
        return pi, cf

    orbits = OrbitCache(f)
    state: dict = {}

    def resolve(fu: Fuel) -> None:
        if state:
            return
        if pi(x, y, fu):
            # (a) split: walk both points forward until one meets the other
            i = 1
            while True:
                fu.spend()
                if orbits.value(x, i, fu) == y:
                    lower = x
                    break
                if orbits.value(y, i, fu) == x:
                    lower = y
                    break
                i += 1
            state["case"] = "a"
            state["seg"] = {orbits.value(lower, t, fu) for t in range(i)}
            return
        fx, fy = cf(x, fu), cf(y, fu)
        if fx or fy:
            state["case"] = "b"
            state["fused_finite"] = fx and fy
            return
        state["case"] = "c"
        state["labels"] = {}

    def in_union(u: int, fu: Fuel) -> bool:
        return pi(u, x, fu) or pi(u, y, fu)

    def ray_label(u: int, fu: Fuel) -> Optional[str]:
        # (c): nonnegative powers of x and negative powers of y land in one
        # product cycle, the mirrored half-rays in the other.
        labels = state["labels"]
        if u not in labels:
            if pi(u, x, fu):
                labels[u] = "x" if orbits.find_k(x, u, fu) >= 0 else "y"
            elif pi(u, y, fu):
                labels[u] = "y" if orbits.find_k(y, u, fu) >= 0 else "x"
            else:
                labels[u] = None
        return labels[u]

    pair_memo: dict[tuple[int, int], bool] = {}
    cf_memo: dict[int, bool] = {}

    def decider(u: int, v: int, fu: Optional[Fuel] = None) -> bool:
        if u == v:
            return True
        key = (u, v) if u < v else (v, u)
        hit = pair_memo.get(key)
        if hit is not None:
            return hit
        ans = _decide(u, v, fu or Fuel())
        pair_memo[key] = ans
        return ans

    def _decide(u: int, v: int, fu: Fuel) -> bool:
        resolve(fu)
        case = state["case"]
        if case == "a":
            iu, iv = pi(u, x, fu), pi(v, x, fu)
            if iu and iv:
                seg = state["seg"]
                return (u in seg) == (v in seg)
            if iu or iv:
                return False
            return pi(u, v, fu)
        if case == "b":
            iu, iv = in_union(u, fu), in_union(v, fu)
            if iu and iv:
                return True
            if iu or iv:
                return False
            return pi(u, v, fu)
        lu, lv = ray_label(u, fu), ray_label(v, fu)
        if lu is None and lv is None:
            return pi(u, v, fu)
        return lu == lv

    def cf_out(u: int, fu: Optional[Fuel] = None) -> bool:
        hit = cf_memo.get(u)
        if hit is not None:
            return hit
        ans = _cf(u, fu or Fuel())
        cf_memo[u] = ans
        return ans

    def _cf(u: int, fu: Fuel) -> bool:
        resolve(fu)
        case = state["case"]
        if case == "a":
            if pi(u, x, fu):
                return u in state["seg"] or cf(x, fu)
            return cf(u, fu)
        if case == "b":
            if in_union(u, fu):
                return state["fused_finite"]
            return cf(u, fu)
        if ray_label(u, fu) is not None:
            return False
        return cf(u, fu)

    return decider, cf_out


def transposition_times_cf(x: int, y: int, f: PermExpr, w: cyc.CycleWitness,
                           cf: CFProc) -> tuple[cyc.CycleWitness, CFProc]:
    """Decider and finiteness procedure for the product (x y) after f."""
    expr = TranspositionTimes(x, y, f)
    decider, cf_out = _product_parts(x, y, f, _as_decider(w), _with_fuel(cf))
    return cyc.CycleWitness(cyc.DECIDER, decider, expr), cf_out


def transposition_times(x: int, y: int, f: PermExpr, w: cyc.CycleWitness,
                        cf: CFProc) -> cyc.CycleWitness:
    return transposition_times_cf(x, y, f, w, cf)[0]


def finitary_product(a_code: int, f: PermExpr, b_code: int,
                     w: cyc.CycleWitness,
                     cf: CFProc) -> tuple[PermExpr, cyc.CycleWitness, CFProc]:
    """Decider and finiteness procedure for a*f*b with finitary a, b given
    by their eta codes.

    Two passes: fold a's transpositions onto f one at a time, then invert
    (cycles are unchanged) and fold b's transpositions, which multiplies by
    b inverse on the left; a final inversion yields a*f*b itself.
    """
    a = eta_decode(a_code)
    b = eta_decode(b_code)

    cur: PermExpr = f
    decider = _as_decider(w)
    cur_cf = _with_fuel(cf)
    for (u, v) in reversed(a.transpositions):
        if u == v:
            continue
        decider, cur_cf = _product_parts(u, v, cur, decider, cur_cf)
        cur = TranspositionTimes(u, v, cur)

    cur = Inverse(cur)
    for (u, v) in b.transpositions:
        if u == v:
            continue
        decider, cur_cf = _product_parts(u, v, cur, decider, cur_cf)
        cur = TranspositionTimes(u, v, cur)

    expr = Compose(a, Compose(f, b))
    witness = cyc.CycleWitness(cyc.DECIDER, decider, expr)
    return expr, witness, cur_cf


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
