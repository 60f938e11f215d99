"""Decidable equivalence relations on N as a closed expression algebra.

An EqExpr is a serializable constructor tree; deciding x ~ x' is total for
every constructor except CycleEqOf, whose decider comes from an attached
cycle witness and may therefore consume fuel.

Four interchangeable views of the same relation are offered: the pair
decider itself, per-block membership deciders, the enumeration of blocks in
least-representative order, and the least-representative labeling.  A kind
that knows the last two cheaply answers them itself through two optional
hooks, _least_rep(x, fuel) and _next_member(x, fuel); BlockCache reads a
hook first and rediscovers blocks with the decider only where one is
missing (OpaqueEq, ImageEq, a CycleEqOf with an attached decider) or where
_least_rep returns None, which means "not known cheaply".

A cycle relation's block of x is x's orbit.  Whether that orbit is finite
is undecidable in general, so CycleEqOf with a decider-only strategy
("one_infinite", "few_infinite") probes it: its _least_rep walks at most
_PROBE_STEPS steps of the permutation from x, one unit of fuel each.  A
closed orbit is the whole block, listed at once; an open one gives None,
and BlockCache scans with the decider.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Union

from .core import (
    Exhausted,
    Fuel,
    FuelExhausted,
    PreconditionViolation,
    pair,
    unpair,
)
from . import machine

# orbit steps a cycle relation's probe walks before it leaves x to the scan
_PROBE_STEPS = 16


# ---------------------------------------------------------------------------
# total computable functions N -> N


class FunExpr:
    """A function whose fibres FibersOf turns into blocks.  _fibre_least and
    _fibre_next, when a kind has them, are FibersOf's closed forms: the least
    point of x's fibre, and the least point of it above x (None if none).
    fuel pays for a label that costs work: HaltingLabel's simulation."""

    kind = "fun"
    _fibre_least = None
    _fibre_next = None

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        raise NotImplementedError


class ConstFun(FunExpr):
    kind = "const"

    def __init__(self, c: int):
        self.c = c

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return self.c


class IdentityFun(FunExpr):
    kind = "identity_fun"

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return x


class ModFun(FunExpr):
    kind = "mod"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self.m = m

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return x % self.m


class TableThenIdentity(FunExpr):
    """Finite override table; identity outside its domain."""

    kind = "table_then_identity"
    # label -> sorted fibre, for the labels of keys; built on first use
    _fibres: Optional[dict[int, list[int]]] = None

    def __init__(self, table: dict[int, int]):
        self.table = dict(table)

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return self.table.get(x, x)

    def _fibre(self, x: int) -> list[int]:
        # the keys with x's label, and the label itself unless it is a key
        if self._fibres is None:
            fibres: dict[int, list[int]] = {}
            for k, v in self.table.items():
                fibres.setdefault(v, []).append(k)
            for v, ks in fibres.items():
                if v not in self.table:
                    ks.append(v)
                ks.sort()
            self._fibres = fibres
        return self._fibres.get(self.table.get(x, x), [x])

    def _fibre_least(self, x: int, fuel: Fuel) -> int:
        return self._fibre(x)[0]

    def _fibre_next(self, x: int, fuel: Fuel) -> Optional[int]:
        fib = self._fibre(x)
        i = bisect.bisect_right(fib, x)
        return fib[i] if i < len(fib) else None


def _halting_variant(variant: str) -> str:
    if variant not in ("cf", "nonpermutable"):
        raise ValueError("variant must be 'cf' or 'nonpermutable'")
    return variant


class HaltingLabel(FunExpr):
    """Step-indexed halting labels for one toy program.

    variant "cf": label(n) = [program halts within n steps].
    variant "nonpermutable": the same labels shifted by one, with label(0)
    pinned true, so that 0 is always alone or grouped differently; this is
    the variant whose coproduct admits no permutation with matching cycles.
    """

    kind = "halting_label"

    def __init__(self, variant: str, code: int):
        self.variant = _halting_variant(variant)
        self.code = code
        self._run = machine.Run(code)

    def __call__(self, n: int, fuel: Optional[Fuel] = None) -> int:
        if self.variant == "cf":
            return 1 if self._run.halts_within(n, fuel) else 0
        if n == 0:
            return 1
        return 1 if self._run.halts_within(n - 1, fuel) else 0

    def _fibre_least(self, n: int, fuel: Fuel) -> int:
        # with h the halting step (h >= 1, or never), the "cf" fibres are
        # {0, ..., h-1} and {h, h+1, ...}; the "nonpermutable" ones are
        # {1, ..., h} and {0, h+1, h+2, ...}
        run = self._run
        if self.variant == "cf":
            return run.halted_at if run.halts_within(n, fuel) else 0
        return 1 if n > 0 and not run.halts_within(n - 1, fuel) else 0


# ---------------------------------------------------------------------------
# equivalence expressions


class EqExpr:
    """A decidable equivalence on N.

    Optional hooks, None at class level where a kind has none (BlockCache
    then scans with _decide):
      _least_rep(x, fuel)    the least member of x's block, or None when it
                             is not known cheaply (BlockCache then scans)
      _next_member(x, fuel)  the least member of x's block above x, or None
                             when the block has none
    """

    kind = "eq"
    _least_rep = None
    _next_member = None
    # (members, scanned, reps, rep_of), shared by every BlockCache over this
    # node: lr -> sorted members listed so far; lr -> first natural a scan
    # has not tested, absent once the whole block is listed; the reps a scan
    # found; point -> least representative.  Ints only: a cache stored here
    # would point back at the node, a cycle that only the collector frees.
    # A class-level None, because reading self.__dict__ instead slows every
    # attribute load of the node.
    _blocks = None

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        raise NotImplementedError

    def _block_state(self) -> tuple:
        if self._blocks is None:
            self._blocks = ({}, {}, [], {})
        return self._blocks

    def _list_whole_block(self, block: list[int]) -> int:
        """Record block as the whole of one block; return its least member."""
        block.sort()
        members, scanned, _, rep_of = self._block_state()
        lr = block[0]
        members[lr] = block
        scanned.pop(lr, None)
        for y in block:
            rep_of[y] = lr
        return lr


class Singletons(EqExpr):
    kind = "singletons"

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return x == y

    def _least_rep(self, x: int, fuel: Fuel) -> int:
        return x

    def _next_member(self, x: int, fuel: Fuel) -> Optional[int]:
        return None


class Full(EqExpr):
    kind = "full"

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return True

    def _least_rep(self, x: int, fuel: Fuel) -> int:
        return 0

    def _next_member(self, x: int, fuel: Fuel) -> Optional[int]:
        return x + 1


class Modulo(EqExpr):
    kind = "modulo"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self.m = m

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return x % self.m == y % self.m

    def _least_rep(self, x: int, fuel: Fuel) -> int:
        return x % self.m

    def _next_member(self, x: int, fuel: Fuel) -> Optional[int]:
        return x + self.m


class FibersOf(EqExpr):
    kind = "fibers_of"

    def __init__(self, fun: FunExpr):
        self.fun = fun

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return self.fun(x, fuel) == self.fun(y, fuel)

    @property
    def _least_rep(self):
        return self.fun._fibre_least

    @property
    def _next_member(self):
        return self.fun._fibre_next


class OpaqueEq(EqExpr):
    """Escape hatch wrapping an arbitrary total decider; not serializable."""

    kind = "opaque"

    def __init__(self, fn: Callable[[int, int], bool], label: str = "opaque"):
        self.fn = fn
        self.label = label

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return bool(self.fn(x, y))


class CycleEqOf(EqExpr):
    """The cycle partition of a permutation; decidable only through a witness.

    strategy selects the witness, which is also how it is recovered when the
    expression is rebuilt from serialized form:
      "one_infinite"        at most one infinite cycle (caller obligation)
      "few_infinite"        finitely many infinite cycles, reps supplied
      "normal"              the subject is in normal form (a min-rep witness)
      "attached"            a runtime CycleWitness was attached directly
    witness is the attached one, or else the strategy's, built on first
    use.  _decide asks its decider, and a min-rep witness is also the
    _least_rep closed form.  "one_infinite" and "few_infinite" have no
    min-rep witness; their _least_rep is the orbit probe of the module
    docstring.  "attached" without a min-rep witness has no _least_rep: its
    subject may read this relation's own blocks (ConjReductionPerm), so a
    probe could recurse without end.  An unknown strategy, or "attached"
    without a CycleWitness, is refused at construction.
    """

    kind = "cycle_eq_of"

    def __init__(self, perm, strategy: str = "one_infinite",
                 reps: Optional[list[int]] = None, witness=None):
        from .cycles import CycleWitness
        if strategy not in ("one_infinite", "few_infinite", "normal", "attached"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "attached" and not isinstance(witness, CycleWitness):
            raise TypeError("strategy 'attached' needs a CycleWitness")
        self.perm = perm
        self.strategy = strategy
        self.reps = list(reps) if reps else []
        self.witness = witness
        self._decider = None

    def _get_witness(self):
        if self.witness is None:
            from . import cycles as cyc
            if self.strategy == "one_infinite":
                self.witness = cyc.decider_one_infinite(self.perm)
            elif self.strategy == "few_infinite":
                self.witness = cyc.decider_few_infinite(self.perm, self.reps)
            else:  # "normal"; an attached witness is never None
                from .normalform import decider_from_normal
                self.witness = decider_from_normal(self.perm)
        return self.witness

    def _get_decider(self):
        if self._decider is None:
            from . import cycles as cyc
            self._decider = cyc.witness_convert(self._get_witness(), cyc.DECIDER).payload
        return self._decider

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        return self._get_decider()(x, y, fuel)

    @property
    def _least_rep(self):
        if self.strategy in ("one_infinite", "few_infinite"):
            return self._orbit_least
        from .cycles import MIN_REP
        w = self._get_witness()
        return w.payload if w.kind == MIN_REP else None

    def _orbit_least(self, x: int, fuel: Fuel) -> Optional[int]:
        # the orbit is recorded only once it closes, so a probe cut short by
        # fuel leaves no partial block
        fwd = self.perm.fwd
        orbit = [x]
        v = x
        for _ in range(_PROBE_STEPS):
            fuel.spend()
            v = fwd(v, fuel)
            if v == x:
                return self._list_whole_block(orbit)
            orbit.append(v)
        return None


class ImageEq(EqExpr):
    """The pushforward of a relation along a permutation h."""

    kind = "image"

    def __init__(self, base: EqExpr, h):
        self.base = base
        self.h = h

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        # h.bwd directly: the points are naturals, so perm_eval_inv's sign
        # check has nothing to catch, and equivalence cannot import it
        return self.base._decide(self.h.bwd(x, fuel), self.h.bwd(y, fuel), fuel)


class CoproductEq(EqExpr):
    """Pair codes related iff indices match and components relate at the index.

    pair(z, .) is increasing, so the least representative of pair(z, a) is
    pair(z, r) with r the member's least representative of a: _least_rep
    reads the member's hook, and is None where the member's is.  There is
    no _next_member: its None would mean "no member above", which a member
    without that hook cannot promise."""

    kind = "coproduct"

    def __init__(self, family: "FamilyExpr"):
        self.family = family

    def _decide(self, x: int, y: int, fuel: Fuel) -> bool:
        z, a = unpair(x)
        z2, b = unpair(y)
        if z != z2:
            return False
        return self.family.member(z)._decide(a, b, fuel)

    def _least_rep(self, x: int, fuel: Fuel) -> Optional[int]:
        z, a = unpair(x)
        least = self.family.member(z)._least_rep
        r = None if least is None else least(a, fuel)
        return None if r is None else pair(z, r)


class PiXY(EqExpr):
    """i ~ j iff i = j or no power f^k with |k| <= max(i,j) maps x to y.

    The search walks f^k(x) and f^-k(x) together, k = 1, 2, ...  Whether
    it ever hits y is undecidable in general, but a closed orbit settles
    it: f is a bijection, so the forward walk first returns to x at x's
    period p, and by then every |k| <= p is checked.  Each point of the
    orbit is f^k(x) for some |k| <= p/2, so a y on it was already hit.
    From then on every question about the member is answered with no
    permutation step.  Each power the walk tries costs one unit of fuel,
    so a large index cannot outrun the caller's budget."""

    kind = "pi_xy"

    def __init__(self, f, x: int, y: int):
        self.f = f
        self.x = x
        self.y = y
        self._fwd = [x]   # f^0(x), f^1(x), ...
        self._bwd = [x]   # f^0(x), f^-1(x), ...
        self._hit: Optional[int] = None  # least |k| with f^k(x) = y, once known
        self._checked = 0  # bound up to which absence is known; inf once closed

    def _reaches_within(self, bound: int, fuel: Fuel) -> bool:
        if self._hit is not None:
            return self._hit <= bound
        while self._checked < bound:
            fuel.spend()
            k = self._checked + 1
            while len(self._fwd) <= k:
                self._fwd.append(self.f.fwd(self._fwd[-1], fuel))
            while len(self._bwd) <= k:
                self._bwd.append(self.f.bwd(self._bwd[-1], fuel))
            if self._fwd[k] == self.y or self._bwd[k] == self.y:
                self._hit = k
                return True
            self._checked = math.inf if self._fwd[k] == self.x else k
        return False

    def _decide(self, i: int, j: int, fuel: Fuel) -> bool:
        if i == j:
            return True
        if self.x == self.y:
            return False  # k = 0 already maps x to y
        return not self._reaches_within(max(i, j), fuel)

    # With h the least |k| with f^k(x) = y (h >= 1 when x != y, or never),
    # the blocks are {0, ..., h-1} and the singletons {i} for i >= h.

    def _least_rep(self, i: int, fuel: Fuel) -> int:
        if self.x == self.y or self._reaches_within(i, fuel):
            return i
        return 0

    def _next_member(self, i: int, fuel: Fuel) -> Optional[int]:
        if self.x == self.y or self._reaches_within(i + 1, fuel):
            return None
        return i + 1


# ---------------------------------------------------------------------------
# uniformly decidable families


class FamilyExpr:
    kind = "family"

    def member(self, z: int) -> EqExpr:
        raise NotImplementedError


class ConstantFamily(FamilyExpr):
    kind = "constant_family"

    def __init__(self, eq: EqExpr):
        self.eq = eq

    def member(self, z: int) -> EqExpr:
        return self.eq


class HaltingFamily(FamilyExpr):
    kind = "halting_family"

    def __init__(self, variant: str):
        self.variant = _halting_variant(variant)
        self._memo: dict[int, EqExpr] = {}

    def member(self, z: int) -> EqExpr:
        if z not in self._memo:
            self._memo[z] = FibersOf(HaltingLabel(self.variant, z))
        return self._memo[z]


class PiXYFamily(FamilyExpr):
    kind = "pi_xy_family"

    def __init__(self, f):
        self.f = f
        self._memo: dict[int, EqExpr] = {}

    def member(self, z: int) -> EqExpr:
        if z not in self._memo:
            x, y = unpair(z)
            self._memo[z] = PiXY(self.f, x, y)
        return self._memo[z]


# ---------------------------------------------------------------------------
# operations


class BlockDecider:
    """Membership test for one block, tagged with where it came from.  fn
    takes the point and a Fuel; a call that brings no Fuel pays with the
    one the decider was made with, or else with a fresh Fuel()."""

    __slots__ = ("fn", "source", "eq", "fuel")

    def __init__(self, fn: Callable[[int, Fuel], bool], source: int,
                 eq: Optional[EqExpr], fuel: Optional[Fuel] = None):
        self.fn = fn
        self.source = source
        self.eq = eq
        self.fuel = fuel

    def __call__(self, y: int, fuel: Optional[Fuel] = None) -> bool:
        return self.fn(y, fuel or self.fuel or Fuel())


def eq_decide(eq: EqExpr, x: int, y: int, fuel: Optional[Fuel] = None) -> bool:
    return eq._decide(x, y, fuel or Fuel())


def block_decider(eq: EqExpr, x: int, fuel: Optional[Fuel] = None) -> BlockDecider:
    return BlockDecider(lambda y, fu: eq._decide(x, y, fu), x, eq, fuel)


def least_representative(eq: EqExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    f = fuel or Fuel()
    for y in range(x + 1):
        if eq._decide(y, x, f):
            return y
    raise AssertionError("relation not reflexive")  # pragma: no cover


def nth_block_decider(eq: EqExpr, i: int, fuel: Fuel) -> Union[BlockDecider, Exhausted]:
    """Decider of the i-th block in least-representative order, or Exhausted
    when the search runs past the last block (it would otherwise diverge).
    The decider goes on paying with fuel when called without a Fuel."""
    reps: list[int] = []
    candidate = 0
    while len(reps) <= i:
        if not fuel.try_spend():
            return Exhausted(fuel.used)
        if all(not eq._decide(r, candidate, fuel) for r in reps):
            reps.append(candidate)
        candidate += 1
    return block_decider(eq, reps[i], fuel)


def block_index(eq: EqExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    """Position of x's block in least-representative enumeration order."""
    f = fuel or Fuel()
    r = least_representative(eq, x, f)
    count = 0
    for y in range(r):
        f.spend()
        if least_representative(eq, y, f) == y:
            count += 1
    return count


def enumerate_block(eq: EqExpr, i: int, count: int, fuel: Fuel) -> Union[list[int], Exhausted]:
    bd = nth_block_decider(eq, i, fuel)
    if isinstance(bd, Exhausted):
        return bd
    out: list[int] = []
    y = 0
    while len(out) < count:
        if not fuel.try_spend():
            return Exhausted(fuel.used)
        if eq._decide(bd.source, y, fuel):
            out.append(y)
        y += 1
    return out


def is_isomorphism_on_window(theta, a: EqExpr, b: EqExpr, window: int,
                             fuel: Optional[Fuel] = None) -> bool:
    from .permutation import perm_eval
    f = fuel or Fuel()
    image = [perm_eval(theta, x, f) for x in range(window)]
    for x in range(window):
        for y in range(x + 1, window):
            if a._decide(x, y, f) != b._decide(image[x], image[y], f):
                return False
    return True


# ---------------------------------------------------------------------------
# shared incremental block enumeration used by the normal-form machinery


class BlockCache:
    """Block questions about one relation: least representatives and the
    increasing enumeration of each block.

    A kind's hooks (_least_rep, _next_member) answer first.  Where one is
    missing, or _least_rep returns None, the cache scans with _decide;
    _find_least_rep is that one fallback.  A point -> least representative
    memo is filled by least_rep and by the block scans; it is sound because
    the relation is fixed, so a point's least representative never changes,
    and a point seen once costs no further work.  The memo, the listed
    members of each block and the scan state live on the relation node, so
    every BlockCache over one node shares them.  A hook may list a block
    whole (a cycle relation's closed orbit): it needs no scan, and
    next_greater above its last member fails at once.

    Fuel: every decide a scan makes, every orbit step a probe walks, and
    every member a closed form lists, costs one unit of the caller's fuel.
    So a scan that would only end under a violated caller obligation
    (next_greater on a finite block) raises FuelExhausted; where a hook
    proves there is no larger member, the rest of the budget is spent at
    once, or PreconditionViolation is raised under an unbounded Fuel.  The
    public methods make a Fuel() when called without one.
    """

    def __init__(self, eq: EqExpr):
        self.eq = eq
        self._least = eq._least_rep
        self._next = eq._next_member
        self._members, self._scanned, self._reps, self._rep_of = eq._block_state()

    def least_rep(self, x: int, fuel: Optional[Fuel] = None) -> int:
        r = self._rep_of.get(x)
        if r is None:
            fuel = fuel or Fuel()
            if self._least is not None:
                r = self._least(x, fuel)
            if r is None:
                r = self._find_least_rep(x, fuel)
            elif r not in self._members:
                self._members[r] = [r]
                self._scanned[r] = r + 1
            self._rep_of[x] = r
        return r

    def _find_least_rep(self, x: int, fuel: Fuel) -> int:
        # x's least representative is a known rep <= x, or else the least
        # point <= x whose own least representative is not known yet
        for r in self._reps:
            if r <= x:
                fuel.spend()
                if self.eq._decide(r, x, fuel):
                    return r
        for y in range(x + 1):
            if y not in self._rep_of:
                fuel.spend()
                if self.eq._decide(y, x, fuel):
                    self._reps.append(y)
                    self._members[y] = [y]
                    self._scanned[y] = y + 1
                    self._rep_of[y] = y
                    return y
        raise AssertionError("relation not reflexive")  # pragma: no cover

    def _extend_to(self, lr: int, bound: int, fuel: Fuel) -> None:
        mem = self._members[lr]
        if self._next is not None:
            # list members until one reaches the bound or the block ends
            while mem[-1] < bound:
                y = self._next(mem[-1], fuel)
                if y is None:
                    return
                fuel.spend()
                mem.append(y)
                self._rep_of[y] = lr
            return
        y = self._scanned.get(lr)
        if y is None:
            return  # listed whole
        try:
            while y <= bound:
                fuel.spend()
                if self.eq._decide(lr, y, fuel):
                    mem.append(y)
                    self._rep_of[y] = lr
                y += 1
        finally:
            self._scanned[lr] = y

    def _position(self, x: int, fuel: Fuel) -> tuple[list[int], int]:
        """The cache's own sorted member list of x's block, listed at least
        up to x, and x's index in it, with no copy.  The list is shared
        block state: callers read it and never change it.  The cache only
        appends to it or lists the block anew, so its entries up to x's
        index stay valid."""
        lr = self.least_rep(x, fuel)
        self._extend_to(lr, x, fuel)
        mem = self._members[lr]
        return mem, bisect.bisect_right(mem, x) - 1

    def members_le(self, x: int, fuel: Optional[Fuel] = None) -> list[int]:
        """Sorted members of x's block that are <= x (a fresh list)."""
        mem, i = self._position(x, fuel or Fuel())
        return mem[: i + 1]

    def next_greater(self, x: int, fuel: Optional[Fuel] = None) -> int:
        """Least block member strictly above x; the caller must know one exists."""
        fuel = fuel or Fuel()
        lr = self.least_rep(x, fuel)
        self._extend_to(lr, x, fuel)
        mem = self._members[lr]
        idx = bisect.bisect_right(mem, x)
        if idx < len(mem):
            return mem[idx]
        if self._next is not None:
            y = self._next(x, fuel)
            if y is None:
                self._none_above(x, fuel)
            fuel.spend()
            mem.append(y)
            self._rep_of[y] = lr
            return y
        y = self._scanned.get(lr)
        if y is None:
            self._none_above(x, fuel)  # listed whole
        while True:
            fuel.spend()
            if self.eq._decide(lr, y, fuel):
                mem.append(y)
                self._rep_of[y] = lr
                self._scanned[lr] = y + 1
                return y
            y += 1

    def _none_above(self, x: int, fuel: Fuel) -> None:
        # the scan this replaces would test every point above x and find
        # nothing: it spends the whole budget, or never returns
        what = f"{self.eq.kind}: the block of {x} has no member above it"
        if fuel.budget is None:
            raise PreconditionViolation(what)
        fuel.used = max(fuel.used, fuel.budget)
        raise FuelExhausted(f"probe budget of {fuel.budget} exhausted ({what})")

    def member_index(self, x: int, fuel: Optional[Fuel] = None) -> int:
        """Index of x in the increasing enumeration of its block."""
        return self._position(x, fuel or Fuel())[1]

    def nth_member(self, lr: int, j: int, fuel: Optional[Fuel] = None) -> int:
        """j-th member (0-based, increasing) of the block with least rep lr."""
        fuel = fuel or Fuel()
        self.least_rep(lr, fuel)
        mem = self._members[lr]
        while len(mem) <= j:
            self.next_greater(mem[-1], fuel)
        return mem[j]
