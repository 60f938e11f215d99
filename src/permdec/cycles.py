"""Cycle-decidability witnesses and the conversions between them.

A permutation's cycle partition can be certified by five interchangeable
kinds of evidence.  Conversions run along two loops:

    decider -> min-rep -> transversal -> decider
    min-rep -> unique-rep -> char-value -> min-rep

Only transversal -> decider genuinely searches (it dovetails the orbits of
all enumerated representatives) and hence consumes fuel.  Every payload
takes the caller's fuel as an optional last argument, and makes a Fuel()
when called without one; a converted payload passes its caller's fuel on
to the payload it was converted from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Optional

from .core import Exhausted, Found, Fuel, delta_inv, unpair
from .permutation import OrbitCache, PermExpr

DECIDER = "decider"
MIN_REP = "min_rep"
UNIQUE_REP = "unique_rep"
CHAR_VALUE = "char_value"
TRANSVERSAL = "transversal"

KINDS = (DECIDER, MIN_REP, UNIQUE_REP, CHAR_VALUE, TRANSVERSAL)


@dataclass
class CycleWitness:
    kind: str
    payload: Callable
    subject: PermExpr
    label: str = ""


def _edges():
    return {
        DECIDER: (MIN_REP,),
        MIN_REP: (UNIQUE_REP, TRANSVERSAL),
        UNIQUE_REP: (CHAR_VALUE,),
        CHAR_VALUE: (MIN_REP,),
        TRANSVERSAL: (DECIDER,),
    }


def _convert_step(w: CycleWitness, target: str) -> CycleWitness:
    f = w.subject
    if w.kind == DECIDER and target == MIN_REP:
        pi = w.payload

        def min_rep(x: int, fu: Optional[Fuel] = None) -> int:
            fu = fu or Fuel()
            for y in range(x + 1):
                if pi(y, x, fu):
                    return y
            raise AssertionError("decider not reflexive")  # pragma: no cover

        return CycleWitness(MIN_REP, min_rep, f)

    # a minimum is a unique representative, a characteristic value, and
    # the representative of the e-th cycle when e enumerates the naturals
    if (w.kind, target) in ((MIN_REP, UNIQUE_REP), (UNIQUE_REP, CHAR_VALUE),
                            (MIN_REP, TRANSVERSAL)):
        return CycleWitness(target, w.payload, f)

    if w.kind == CHAR_VALUE and target == MIN_REP:
        chi = w.payload

        def min_rep(x: int, fu: Optional[Fuel] = None) -> int:
            fu = fu or Fuel()
            cx = chi(x, fu)
            for y in range(x + 1):
                if chi(y, fu) == cx:
                    return y
            raise AssertionError("unreachable")  # pragma: no cover

        return CycleWitness(MIN_REP, min_rep, f)

    if w.kind == TRANSVERSAL and target == DECIDER:
        rho = w.payload
        orbits = OrbitCache(f)
        reps: dict[int, int] = {}          # enumeration index -> representative
        found: dict[int, int] = {}         # value -> its cycle's representative
        state = {"n": 0}

        def locate(x: int, fu: Fuel) -> int:
            # Dovetail representatives against delta-indexed orbit positions
            # until x shows up; every natural is in some enumerated orbit.
            while x not in found:
                fu.spend()
                n = state["n"]
                e, j = unpair(n)
                if e not in reps:
                    reps[e] = rho(e, fu)
                found.setdefault(orbits.value(reps[e], delta_inv(j), fu), reps[e])
                state["n"] = n + 1
            return found[x]

        def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
            fu = fu or Fuel()
            return locate(x, fu) == locate(y, fu)

        return CycleWitness(DECIDER, decider, f)

    raise ValueError(f"no single conversion {w.kind} -> {target}")


def witness_convert(w: CycleWitness, target: str) -> CycleWitness:
    """Convert along the shortest path of single-step conversions."""
    if target not in KINDS:
        raise ValueError(f"unknown witness kind {target!r}")
    # breadth-first search over the fixed conversion edges
    frontier = [(w.kind, [])]
    seen = {w.kind}
    while frontier:
        kind, path = frontier.pop(0)
        if kind == target:
            out = w
            for step_target in path:
                out = _convert_step(out, step_target)
            return out
        for nxt in _edges()[kind]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, path + [nxt]))
    raise ValueError(f"no conversion path {w.kind} -> {target}")  # pragma: no cover


def reachability_semidecider(f: PermExpr, x: int, x2: int, fuel: Fuel):
    """Search f^k(x) = x2 in xi order; Found(k) proves reachability,
    Exhausted proves nothing."""
    orbits = OrbitCache(f)
    probes = 0
    j = 0
    while True:
        if not fuel.try_spend():
            return Exhausted(probes)
        probes += 1
        k = delta_inv(j)
        if orbits.value(x, k, fuel) == x2:
            return Found(k, probes)
        j += 1


def decider_one_infinite(f: PermExpr) -> CycleWitness:
    """Cycle decider valid when f has at most one infinite cycle.

    Both orbits are walked forward in lockstep until one revisits the pair
    {x, y}, one unit of fuel per step; under the precondition this always
    happens.  A violated precondition surfaces as fuel exhaustion, never as
    a wrong answer.
    """
    orbits = OrbitCache(f)

    def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
        if x == y:
            return True
        fu = fu or Fuel()
        for i in count(1):
            fu.spend()
            vx = orbits.value(x, i, fu)
            vy = orbits.value(y, i, fu)
            if vx in (x, y) or vy in (x, y):
                return vx == y or vy == x

    return CycleWitness(DECIDER, decider, f)


def decider_few_infinite(f: PermExpr, reps: list[int]) -> CycleWitness:
    """Cycle decider valid when reps holds exactly one member of every
    infinite cycle of f.  Each orbit is walked in xi order, one unit of fuel
    per step, until it hits itself (finite cycle) or a listed representative
    (infinite cycle); a listed representative lands at once.  A violated
    precondition surfaces as fuel exhaustion."""
    orbits = OrbitCache(f)
    repset = set(reps)

    def land(x: int, other: int, fu: Fuel) -> tuple[str, int]:
        if x in repset:
            return ("rep", x)
        targets = {x, other} | repset
        for j in count(1):
            fu.spend()
            v = orbits.value(x, delta_inv(j), fu)
            if v in targets:
                if v == other:
                    return ("other", v)
                if v == x:
                    return ("self", v)
                return ("rep", v)

    def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
        if x == y:
            return True
        fu = fu or Fuel()
        how_x, vx = land(x, y, fu)
        if how_x == "other":
            return True
        if how_x == "self":
            return False
        how_y, vy = land(y, x, fu)
        if how_y == "other":
            return True
        if how_y == "self":
            return False
        return vx == vy

    return CycleWitness(DECIDER, decider, f)
