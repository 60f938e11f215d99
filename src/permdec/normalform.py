"""Normal and semi-normal forms of computable permutations.

A cycle with least element a0 and increasing member enumeration a0 < a1 < ...
is normal when the delta-indexed powers of a0 walk the members in increasing
order: f^{delta_inv(j)}(a0) = a_j.  A permutation is normal when every cycle
is; semi-normal relaxes finite cycles to plain increasing order
a0 -> a1 -> ... -> a_{n-1} -> a0.  Cycles of length at most 2 count as
normal (the two definitions coincide there).  permutation.normal_index
states the normal order once; RhoFromNormal and the semi-normal minimum
search an orbit in xi order through OrbitCache.find.

A cycle minimum is read from the permutation's _cycle_min hook first: a
member of Perm(eq) built here from a rho has eq's blocks as its cycles, so
eq's least representative is the answer, found with no orbit step.  Only a
kind without the hook is searched along its orbit, where normal_min's
probes stay logarithmic in the distance to the minimum.

The rho functions ("does my block hold a larger element" and "how big is my
block, 0 meaning infinite") are what make normal members of Perm(eq)
constructible; both directions of that correspondence live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import Fuel, PreconditionViolation, delta, delta_inv
from .equivalence import (
    BlockCache,
    BlockDecider,
    CycleEqOf,
    EqExpr,
    OpaqueEq,
)
from .permutation import (
    FromRho,
    NormalFromSet,
    OrbitCache,
    PermExpr,
    RhoExpr,
    SeminormalFromRho,
    normal_index,
    perm_eval,
    perm_eval_inv,
)
from . import cycles as cyc


# ---------------------------------------------------------------------------
# rho expressions (the RhoExpr base lives beside FromRho, which asks them)


class RhoConst(RhoExpr):
    """Constant greater-element predicate: every block infinite (true) or
    every block a singleton (false)."""

    kind = "rho_const"
    rho_kind = "greater"

    def __init__(self, value: bool):
        # the integers 0 and 1 read as false and true; nothing else does
        if not isinstance(value, int) or value not in (0, 1):
            raise ValueError(f"rho_const value must be a boolean, got {value!r}")
        self.value = bool(value)

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return self.value


class RhoClosure(RhoExpr):
    """Greater-element predicate computed from a member permutation f of
    Perm(eq): the block members <= x are closed under f exactly when they
    already form a whole cycle, i.e. when nothing larger is related.

    Closure is maintained incrementally per block (one image evaluation per
    member, ever): a prefix is closed iff no processed member's image still
    waits outside the prefix."""

    kind = "rho_closure"
    rho_kind = "greater"

    def __init__(self, f: PermExpr, eq: EqExpr):
        self.f = f
        self.eq = eq
        self._cache = BlockCache(eq)
        # lr -> [members processed, those members, their images not
        # among them]
        self._state: dict[int, list] = {}
        self._memo: dict[int, bool] = {}

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> bool:
        memo = self._memo
        if x in memo:
            return memo[x]
        fuel = fuel or Fuel()
        members, i = self._cache._position(x, fuel)
        st = self._state.get(members[0])
        if st is None:
            st = self._state[members[0]] = [0, set(), set()]
        _, seen, waiting = st
        while st[0] <= i:
            m = members[st[0]]
            seen.add(m)
            fm = self.f.fwd(m, fuel)
            if fm not in seen:
                waiting.add(fm)
            waiting.discard(m)
            st[0] += 1
            memo[m] = bool(waiting)
        return memo[x]


class RhoFromNormal(RhoExpr):
    """Greater-element predicate read off a normal member: x has a larger
    blockmate iff the next delta-indexed power after x's position still
    increases."""

    kind = "rho_from_normal"
    rho_kind = "greater"

    def __init__(self, fprime: PermExpr):
        self.fprime = fprime
        self._orbits = OrbitCache(fprime)

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> bool:
        fuel = fuel or Fuel()
        m = normal_min(self.fprime, x, fuel)
        k = self._orbits.find_k(m, x, fuel)
        return self._orbits.value(m, delta_inv(delta(k) + 1), fuel) > x


class RhoCardConst(RhoExpr):
    kind = "rho_card_const"
    rho_kind = "cardinality"

    def __init__(self, c: int):
        self.c = int(c)

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        return self.c


class RhoCardForBlocks(RhoExpr):
    """Cardinality function for a relation with finitely many blocks, given
    one representative and the cardinality (0 = infinite) of each."""

    kind = "rho_card_for_blocks"
    rho_kind = "cardinality"

    def __init__(self, eq: EqExpr, reps_with_cards: list[tuple[int, int]]):
        self.eq = eq
        self.reps_with_cards = [(int(r), int(c)) for r, c in reps_with_cards]

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        fuel = fuel or Fuel()
        for rep, card in self.reps_with_cards:
            if self.eq._decide(rep, x, fuel):
                return card
        raise PreconditionViolation("representative table does not cover all blocks")


# ---------------------------------------------------------------------------
# building cycles


def build_cycle_from_set(member: BlockDecider) -> PermExpr:
    """One normal cycle supported on the infinite decidable set described by
    a block decider; identity elsewhere."""
    eq = member.eq
    if eq is None:
        eq = OpaqueEq(lambda a, b: a == b or (member(a) and member(b)),
                      label="block-decider")
    return NormalFromSet(eq, member.source)


@dataclass(frozen=True)
class Closed:
    pass


@dataclass(frozen=True)
class Escape:
    witness: int


def finite_union_check(f: PermExpr, A: list[int]) -> Union[Closed, Escape]:
    """Is the finite set A a union of cycles of f?  If not, return the least
    image point that escapes A."""
    base = set(A)
    if len(base) != len(A):
        raise ValueError("A must be duplicate-free")
    escapes = sorted(perm_eval(f, a) for a in A if perm_eval(f, a) not in base)
    if escapes:
        return Escape(escapes[0])
    return Closed()


# ---------------------------------------------------------------------------
# normalization


def witness_to_eq(w: cyc.CycleWitness) -> EqExpr:
    """View a cycle witness as the cycle partition of its subject."""
    return CycleEqOf(w.subject, "attached", witness=w)


def normalize(f: PermExpr, w: cyc.CycleWitness, eq: Optional[EqExpr] = None) -> PermExpr:
    """The unique normal permutation with the same cycle partition as f."""
    if eq is None:
        eq = witness_to_eq(w)
    return FromRho(eq, RhoClosure(f, eq))


# the paper's names for the two constructions; each constructor checks rho
def perm_from_rho(eq: EqExpr, rho) -> PermExpr:
    return FromRho(eq, rho)


def seminormal_from_rho(eq: EqExpr, rho) -> PermExpr:
    return SeminormalFromRho(eq, rho)


def rho_from_perm(f: PermExpr, w: cyc.CycleWitness) -> RhoExpr:
    """Greater-element predicate for Part f, routed through the normal form."""
    return RhoFromNormal(normalize(f, w))


# ---------------------------------------------------------------------------
# minimum finding on normal permutations


class _Wrapped(Exception):
    def __init__(self, length: int):
        self.length = length


def normal_min_with_probes(fprime: PermExpr, x: int,
                           fuel: Optional[Fuel] = None) -> tuple[int, int]:
    """Least element of x's cycle, assuming fprime is normal.

    Returns (minimum, probes).  A kind whose cycles are a relation's blocks
    by construction answers through its _cycle_min hook, the block's least
    representative, with 0 probes: no orbit value is inspected.  Any other
    kind is searched along the orbit (_normal_min_search).
    """
    f = fuel or Fuel()
    if fprime._cycle_min is not None:
        return fprime._cycle_min(x, f), 0
    return _normal_min_search(fprime, x, f)


def _normal_min_search(fprime: PermExpr, x: int, fuel: Fuel) -> tuple[int, int]:
    """normal_min_with_probes by walking the orbit, for any normal fprime.

    A probe is one value inspection of the search: the two initial
    neighbour looks, one per galloping step, one per bisection step.
    Walking the orbit to reach an inspected offset is cached and not itself
    counted, so the probe count is the length of the derivation,
    logarithmic in the distance to the minimum.  The hook-free path is also
    the oracle selfcheck holds the hooks' permutations to.
    """
    xp = fprime.fwd(x, fuel)
    xm = fprime.bwd(x, fuel)
    probes = 2
    if x <= xp and x <= xm:
        return x, probes
    direction = 1 if xp <= xm else -1

    vals = [x]

    def v(j: int) -> int:
        while len(vals) <= j:
            nxt = (fprime.fwd(vals[-1], fuel) if direction > 0
                   else fprime.bwd(vals[-1], fuel))
            if nxt == x:
                raise _Wrapped(len(vals))
            vals.append(nxt)
        return vals[j]

    try:
        prev, cur = 1, 2
        v(1)
        while True:
            probes += 1
            if v(cur) >= v(prev):
                break
            prev, cur = cur, cur * 2
        lo, hi = prev // 2, cur - 1
        # least offset m in (lo, hi] where the value stops decreasing
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            if v(mid) < v(mid + 1):
                hi = mid
            else:
                lo = mid
        return v(hi), probes
    except _Wrapped as wrap:
        # finite cycle: the whole orbit is cached, take the minimum directly
        return min(vals[:wrap.length]), probes + wrap.length


def normal_min(fprime: PermExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    return normal_min_with_probes(fprime, x, fuel)[0]


def decider_from_normal(fprime: PermExpr) -> cyc.CycleWitness:
    def min_rep(x: int, fu: Optional[Fuel] = None) -> int:
        return normal_min(fprime, x, fu)

    return cyc.CycleWitness(cyc.MIN_REP, min_rep, fprime)


# ---------------------------------------------------------------------------
# semi-normal recognition and repair


def _cycle_min_seminormal(f: PermExpr, x: int, orbits: OrbitCache,
                          fuel: Fuel) -> int:
    """Least element of x's cycle for semi-normal f, by alternating search
    for the unique local minimum, one unit of fuel per orbit point."""
    k = orbits.find(x, lambda c: c <= perm_eval(f, c, fuel)
                    and c <= perm_eval_inv(f, c, fuel), fuel)
    return orbits.value(x, k, fuel)


def seminormal_cf_decider(f: PermExpr) -> Callable[..., bool]:
    """Cycle-finiteness decider valid for semi-normal f."""
    orbits = OrbitCache(f)

    def finite(x: int, fuel: Optional[Fuel] = None) -> bool:
        fuel = fuel or Fuel()
        x0 = _cycle_min_seminormal(f, x, orbits, fuel)
        up = perm_eval(f, x0, fuel)
        if up == x0 or perm_eval(f, up, fuel) == x0:
            return True
        down = perm_eval_inv(f, x0, fuel)
        if x0 < down < up:
            return False
        if x0 < up < down:
            return True
        raise PreconditionViolation("minimum neighbourhood malformed: not semi-normal?")

    return finite


class SeminormalToNormal(PermExpr):
    """Rearrange every finite cycle of a semi-normal permutation into its
    normal zig-zag order; infinite cycles pass through unchanged."""

    kind = "seminormal_to_normal"

    def __init__(self, f: PermExpr):
        self.f = f
        self._orbits = OrbitCache(f)
        self._finite = seminormal_cf_decider(f)

    def fwd(self, x: int, fuel: Fuel) -> int:
        if not self._finite(x, fuel):
            return self.f.fwd(x, fuel)
        members = sorted(self._orbits.cycle(x, fuel))
        return members[normal_index(members.index(x), len(members), 1)]

    def bwd(self, x: int, fuel: Fuel) -> int:
        if not self._finite(x, fuel):
            return self.f.bwd(x, fuel)
        members = sorted(self._orbits.cycle(x, fuel))
        return members[normal_index(members.index(x), len(members), -1)]


# ---------------------------------------------------------------------------
# recognition report


@dataclass(frozen=True)
class CycleVerdict:
    minimum: int
    verdict: str                      # "normal" | "seminormal-finite" | "violation"
    witness: Optional[tuple] = None   # (start, delta_index, value, prev_value)


@dataclass(frozen=True)
class NormalityReport:
    window: int
    entries: tuple[CycleVerdict, ...]

    @property
    def clean(self) -> bool:
        return all(e.verdict != "violation" for e in self.entries)

    @property
    def all_normal(self) -> bool:
        return all(e.verdict == "normal" for e in self.entries)


def normality_report(f: PermExpr, window: int,
                     fuel: Optional[Fuel] = None) -> NormalityReport:
    """Inspect every cycle whose minimum lies in the window.

    Cycle minima are spotted by the local test x <= min(x+, x-); from each
    one the delta-indexed power sequence is checked for increase as far as
    the window allows.  Finite cycles that fail the zig-zag order but list
    their members in plain increasing order are reported seminormal-finite.
    """
    fuel = fuel or Fuel()
    orbits = OrbitCache(f)
    entries: list[CycleVerdict] = []
    cap = 2 * window + 4
    for x in range(window):
        if not (x <= perm_eval(f, x, fuel) and x <= perm_eval_inv(f, x, fuel)):
            continue
        # finite? walk forward looking for a return
        members = orbits.cycle(x, fuel, cap + 1)
        if members is not None:
            n = len(members)
            srt = sorted(members)
            if srt[0] != x:
                # x is not actually its cycle's minimum: skip, the true
                # minimum reports this cycle (or lies outside the window)
                continue
            zig = [orbits.value(x, delta_inv(j), fuel) for j in range(n)]
            if zig == srt or n <= 2:
                entries.append(CycleVerdict(x, "normal"))
            elif members == srt:
                entries.append(CycleVerdict(x, "seminormal-finite"))
            else:
                bad = next(j for j in range(n) if zig[j] != srt[j])
                entries.append(CycleVerdict(
                    x, "violation", (x, bad, zig[bad], srt[bad])))
        else:
            # treated as infinite within this window
            prev = x
            verdict: Optional[CycleVerdict] = None
            for j in range(1, cap):
                b = orbits.value(x, delta_inv(j), fuel)
                if b <= prev:
                    verdict = CycleVerdict(x, "violation", (x, j, b, prev))
                    break
                prev = b
                if b >= window:
                    break
            entries.append(verdict or CycleVerdict(x, "normal"))
    return NormalityReport(window, tuple(entries))
