"""Hardness gadgets over the bundled register machine, plus the structural
reductions between cycle decidability and cycle finiteness.

The halting-label coproducts turn "program x halts on its own code" into
block-finiteness questions; the odd-length gadget and its square transfer
hardness between the two cycle problems; the parity-block construction
turns a cycle decider into a conjugacy question.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import Fuel, pack3, pair, unpack3
from . import machine
from .equivalence import (
    BlockCache,
    CoproductEq,
    CycleEqOf,
    EqExpr,
    FibersOf,
    HaltingFamily,
    PiXY,
    PiXYFamily,
)
from .permutation import (
    Compose,
    CoproductPerm,
    FromRho,
    OrbitCache,
    PermExpr,
    perm_eval,
)
from .normalform import RhoClosure, RhoExpr, witness_to_eq
from . import cycles as cyc


# ---------------------------------------------------------------------------
# halting equivalences and the cycle-finiteness-hard permutation


def halting_equivalence(variant: str = "cf") -> EqExpr:
    return CoproductEq(HaltingFamily(variant))


class RhoHaltingCF(RhoExpr):
    """Greater-element predicate for a member FibersOf(HaltingLabel("cf",
    x)) of the step-label coproduct, decided by simulating one step past
    the queried index: the not-yet-halted block of a halting program is
    exactly {0, ..., h-1}, so index i has a larger blockmate iff the run is
    still going at i+1.

    The answers come from the member's own resumable machine.Run, so a walk
    over indices 0..n of one code costs about n machine transitions in
    all, and the block enumeration and the rho simulate each transition
    once between them, each paid from the fuel of the query that needs it."""

    kind = "rho_halting_cf"
    rho_kind = "coproduct_greater"

    def __call__(self, eq: FibersOf, i: int, fuel: Optional[Fuel] = None) -> bool:
        run = eq.fun._run
        if run.halts_within(i, fuel):
            return True          # halted block is the infinite tail
        return not run.halts_within(i + 1, fuel)


def cf_hard_perm() -> PermExpr:
    """Permutation whose cycles are the step-label blocks; the cycle of
    <x, 0> is finite exactly when program x halts on its own code."""
    return CoproductPerm(HaltingFamily("cf"), RhoHaltingCF())


# ---------------------------------------------------------------------------
# labeled fixture programs

_P = machine.program
_I, _D, _H = machine.INC, machine.DECJZ, machine.HALT


def halting_fixtures() -> list[tuple[str, int]]:
    """Ten programs that provably halt on their own code."""
    progs = [
        ("halt-first", _P((_H,))),
        ("empty", _P()),
        ("inc-falls-off", _P((_I, 0))),
        ("inc-then-halt", _P((_I, 1), (_H,))),
        ("drain-own-code", _P((_D, 0, 1))),
        ("jump-off-end", _P((_D, 1, 1))),
        ("pulse-then-drain", _P((_I, 1), (_D, 1, 2))),
        ("two-incs-halt", _P((_I, 0), (_I, 0), (_H,))),
        ("jump-over-inc", _P((_D, 1, 2), (_I, 0))),
        ("double-pulse-drain", _P((_I, 1), (_I, 1), (_D, 1, 3))),
    ]
    return [(label, machine.encode_program(p)) for label, p in progs]


def looping_fixtures() -> list[tuple[str, int]]:
    """Ten programs that provably loop forever: none of them ever drains
    register 0, so the reachable configuration set is tiny and a revisit
    certifies divergence."""
    progs = [
        ("spin", _P((_D, 1, 0))),
        ("pulse-spin", _P((_I, 1), (_D, 1, 0))),
        ("pingpong", _P((_D, 1, 1), (_D, 1, 0))),
        ("pulse-selfjump", _P((_I, 1), (_D, 1, 1))),
        ("spin-before-halt", _P((_D, 1, 0), (_H,))),
        ("double-pulse-spin", _P((_I, 1), (_I, 1), (_D, 1, 0))),
        ("spin-shadowed-inc", _P((_D, 1, 0), (_I, 0))),
        ("selfjump-before-halt", _P((_I, 1), (_D, 1, 1), (_H,))),
        ("jump-to-selfjump", _P((_D, 1, 1), (_D, 1, 1))),
        ("pulse-spin-dead-halt", _P((_I, 1), (_D, 1, 0), (_H,))),
    ]
    return [(label, machine.encode_program(p)) for label, p in progs]


# ---------------------------------------------------------------------------
# odd-length gadget


class OddLengthGadget(PermExpr):
    """Stretch every cycle of g through triple codes: a finite cycle of
    length n becomes one of length 2n+1 through <x,x,0>, an infinite cycle
    stays infinite, and triples matching no pattern are fixed."""

    kind = "odd_length_gadget"

    def __init__(self, g: PermExpr):
        self.g = g

    def fwd(self, z: int, fuel: Fuel) -> int:
        x, y, c = unpack3(z)
        if y == x:
            if c == 0:
                return pack3(x, x, 1)
            if c == 1:
                return pack3(x, x, 2)
            if c == 2:
                return pack3(x, self.g.fwd(x, fuel), 0)
            return z
        if c == 0:
            return pack3(x, y, 1)
        if c == 1:
            return pack3(x, self.g.fwd(y, fuel), 0)
        return z

    def bwd(self, z: int, fuel: Fuel) -> int:
        x, y, c = unpack3(z)
        if c == 1:
            return pack3(x, x, 0) if y == x else pack3(x, y, 0)
        if c == 2:
            return pack3(x, x, 1) if y == x else z
        if c == 0:
            w = self.g.bwd(y, fuel)
            return pack3(x, x, 2) if w == x else pack3(x, w, 1)
        return z


def odd_length_embed(x: int) -> int:
    return pack3(x, x, 0)


def odd_length_gadget(g: PermExpr) -> tuple[PermExpr, Callable[[int], int]]:
    return OddLengthGadget(g), odd_length_embed


# ---------------------------------------------------------------------------
# reductions between cycle decidability and cycle finiteness


class RhoPiXY(RhoExpr):
    """Coproduct greater-element rule for the power-window family: index i
    of a member PiXY(f, x, y) has a larger blockmate iff i+1 is still
    related to i, i.e. no power within the widened window maps x to y.
    Once x's orbit under f has closed without a hit, the member answers
    True for every i with no further step of f."""

    kind = "rho_pi_xy"
    rho_kind = "coproduct_greater"

    def __init__(self, f: PermExpr):
        self.f = f

    def __call__(self, eq: PiXY, i: int, fuel: Optional[Fuel] = None) -> bool:
        if fuel is None:
            fuel = Fuel()
        return eq._decide(i + 1, i, fuel)


class InterredCFPerm(CoproductPerm):
    """The coproduct permutation whose cycle at <<x,y>, 0> is finite exactly
    when some power of f maps x to y.  That search is undecidable in
    general, but a closed orbit settles it: once the walk of a member
    PiXY(f, x, y) returns to x without meeting y, its one block is known to
    be infinite, and later steps there take no further step of f."""

    kind = "interred_cf"

    def __init__(self, f: PermExpr):
        super().__init__(PiXYFamily(f), RhoPiXY(f))
        self.f = f


def cd_embed(x: int, y: int) -> int:
    return pair(pair(x, y), 0)


def reduce_cd_to_cf(f: PermExpr) -> tuple[PermExpr, Callable[[int, int], int]]:
    """Map cycle-decidability questions about f to cycle-finiteness
    questions: x and y share an f-cycle iff the cycle of cd_embed(x, y) in
    the returned permutation is finite."""
    return InterredCFPerm(f), cd_embed


def reduce_cf_to_cd(g: PermExpr) -> tuple[PermExpr, Callable[[int, int], int] | Callable[[int], int], Callable[[int], int]]:
    """Map cycle-finiteness questions about g to cycle-decidability ones:
    the gadget's odd cycle lengths make its square a single generator on
    each finite cycle, so [x]_g is finite iff j(x) and j'(x) share a cycle
    of the square."""
    gp, j = odd_length_gadget(g)
    f = Compose(gp, gp)

    def jprime(x: int) -> int:
        return perm_eval(gp, j(x))

    return f, j, jprime


# ---------------------------------------------------------------------------
# the conjugacy-hardness reduction


class ConjReductionPerm(FromRho):
    """From a cycle decider for f and a base point x, build the permutation
    whose partition keeps the even-power orbit points of x together and
    isolates everything else.  Its cycle type collapses the cycle
    finiteness of [x]_f: all cycles finite iff [x]_f is finite, otherwise
    one infinite cycle plus fixed points.

    It is the FromRho of that parity partition, decided by pi_prime, and
    of rho_prime.  f's own cycle relation is `base` (serialized as "eq");
    FromRho's eq is the parity relation."""

    kind = "conj_reduction"

    def __init__(self, f: PermExpr, eq: EqExpr, x: int):
        self.f = f
        self.base = eq
        self.x = x
        self._base_cache = BlockCache(eq)
        self._rho_f = RhoClosure(f, eq)
        self._forb = OrbitCache(f)
        self._kmemo: dict[int, int] = {}
        # the parity blocks are this node's own cycles, decided by pi_prime
        parity = cyc.CycleWitness(cyc.DECIDER, self.pi_prime, self)
        super().__init__(CycleEqOf(self, "attached", witness=parity), self.rho_prime)
        self._rho = self.rho_prime   # asked with the caller's fuel

    def _related(self, u: int, fuel: Fuel) -> bool:
        return self.base._decide(self.x, u, fuel)

    def _k(self, u: int, fuel: Fuel) -> int:
        if u not in self._kmemo:
            self._kmemo[u] = self._forb.find_k(self.x, u, fuel)
        return self._kmemo[u]

    def pi_prime(self, u: int, v: int, fuel: Optional[Fuel] = None) -> bool:
        if u == v:
            return True
        fuel = fuel or Fuel()
        return (self._related(u, fuel) and self._related(v, fuel)
                and self._k(u, fuel) % 2 == 0 and self._k(v, fuel) % 2 == 0)

    def rho_prime(self, y: int, fuel: Fuel) -> bool:
        if not self._related(y, fuel) or self._k(y, fuel) % 2 != 0:
            return False
        cur = y
        while True:
            fuel.spend()
            if not self._rho_f(cur, fuel):
                return False
            cur = self._base_cache.next_greater(cur, fuel)
            if self._k(cur, fuel) % 2 == 0:
                return True


def conj_reduction_perm(f: PermExpr, w: cyc.CycleWitness, x: int,
                        eq: Optional[EqExpr] = None) -> tuple[PermExpr, cyc.CycleWitness]:
    if eq is None:
        eq = witness_to_eq(w)
    node = ConjReductionPerm(f, eq, x)
    return node, node.eq.witness
