"""Cycle-decidability witnesses and the conversions between them.

A permutation's cycle partition can be certified by five interchangeable
kinds of evidence: a decider of "x and y share a cycle"; a label of x's
cycle, which is its minimum (min-rep), one fixed member (unique-rep) or
any value that tells cycles apart (char-value); and a transversal, whose
values at 0, 1, 2, ... meet every cycle.  witness_convert goes by fixed
routes of at most three single steps:

    to a decider      one step: two labels are compared, x == y or
                      p(x) == p(y); a transversal is dovetailed
    to a min-rep      a decider, unique-rep or char-value is scanned over
                      0..x; a transversal becomes a decider first
    to the others     a min-rep is already each of them, and a unique-rep
                      is already a char-value; any other source becomes
                      a min-rep first

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

from .core import Exhausted, Found, Fuel, FuelExhausted, delta_inv, unpair
from .equivalence import EqExpr, eq_decide
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


def eq_witness(eq: EqExpr, f: PermExpr) -> CycleWitness:
    """The decider witness of f read from eq, a relation the caller knows
    to be f's cycle partition."""
    return CycleWitness(DECIDER, lambda x, y, fu=None: eq_decide(eq, x, y, fu), f)


# what a payload of each kind already is, unchanged: a minimum is a unique
# representative, a characteristic value, and the representative of the
# e-th cycle when e enumerates the naturals; a unique representative is a
# characteristic value
_RELABELS = {MIN_REP: (UNIQUE_REP, CHAR_VALUE, TRANSVERSAL),
             UNIQUE_REP: (CHAR_VALUE,)}


def _convert_step(w: CycleWitness, target: str) -> CycleWitness:
    f = w.subject
    p = w.payload
    if target in _RELABELS.get(w.kind, ()):
        return CycleWitness(target, p, f)

    if target == DECIDER and w.kind in (MIN_REP, UNIQUE_REP, CHAR_VALUE):
        def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
            if x == y:
                return True
            fu = fu or Fuel()
            return p(x, fu) == p(y, fu)

        return CycleWitness(DECIDER, decider, f)

    if target == MIN_REP and w.kind == DECIDER:
        def min_rep(x: int, fu: Optional[Fuel] = None) -> int:
            fu = fu or Fuel()
            for y in range(x + 1):
                if p(y, x, fu):
                    return y
            raise AssertionError("decider not reflexive")  # pragma: no cover

        return CycleWitness(MIN_REP, min_rep, f)

    if target == MIN_REP and w.kind in (UNIQUE_REP, CHAR_VALUE):
        def min_rep(x: int, fu: Optional[Fuel] = None) -> int:
            fu = fu or Fuel()
            cx = p(x, fu)
            for y in range(x + 1):
                if p(y, fu) == cx:
                    return y
            raise AssertionError("unreachable")  # pragma: no cover

        return CycleWitness(MIN_REP, min_rep, f)

    if target == DECIDER and w.kind == TRANSVERSAL:
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
                    reps[e] = p(e, fu)
                found.setdefault(orbits.value(reps[e], delta_inv(j), fu), reps[e])
                state["n"] = n + 1
            return found[x]

        def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
            if x == y:
                return True
            fu = fu or Fuel()
            return locate(x, fu) == locate(y, fu)

        return CycleWitness(DECIDER, decider, f)

    raise ValueError(f"no single conversion {w.kind} -> {target}")


def _route(source: str, target: str) -> tuple[str, ...]:
    """The kinds a conversion steps through, target last."""
    if source == target:
        return ()
    if target == DECIDER or target in _RELABELS.get(source, ()):
        return (target,)
    to_min = (DECIDER, MIN_REP) if source == TRANSVERSAL else (MIN_REP,)
    return to_min if target == MIN_REP else to_min + (target,)


def witness_convert(w: CycleWitness, target: str) -> CycleWitness:
    """Convert by the fixed route of the module docstring; a witness of the
    target kind comes back unchanged."""
    if target not in KINDS:
        raise ValueError(f"unknown witness kind {target!r}")
    for step_target in _route(w.kind, target):
        w = _convert_step(w, step_target)
    return w


def reachability_semidecider(f: PermExpr, x: int, x2: int, fuel: Fuel):
    """Search f^k(x) = x2 in xi order; Found(k) proves reachability,
    Exhausted proves nothing."""
    probes = 0

    def hit(v: int) -> bool:
        nonlocal probes
        probes += 1
        return v == x2

    try:
        return Found(OrbitCache(f).find(x, hit, fuel), probes)
    except FuelExhausted:
        return Exhausted(probes)


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

    def land(x: int, other: int, fu: Fuel) -> Optional[int]:
        # the first of other or a listed representative on x's orbit (x
        # itself when listed), or None when the orbit closes on x first
        if x in repset:
            return x
        targets = {x, other} | repset
        v = orbits.value(x, orbits.find(x, targets.__contains__, fu, first=1), fu)
        return None if v == x else v

    def decider(x: int, y: int, fu: Optional[Fuel] = None) -> bool:
        if x == y:
            return True
        fu = fu or Fuel()
        vx = land(x, y, fu)
        if vx is None or vx == y:
            return vx == y
        vy = land(y, x, fu)
        if vy is None or vy == x:
            return vy == x
        return vx == vy

    return CycleWitness(DECIDER, decider, f)
