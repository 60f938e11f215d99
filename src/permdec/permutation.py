"""Computable permutations of N as lazily evaluated expression trees.

Every constructor evaluates in both directions directly; searching for an
inverse is only done where the underlying construction itself is a search.
Constructors whose semantics depend on an equivalence relation keep a
per-node member cache; caches are invisible to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from typing import Callable, Optional

from .core import (
    Fuel,
    PreconditionViolation,
    delta,
    delta_inv,
    pair,
    unpair,
    unpair_sequence,
)
from .equivalence import BlockCache, EqExpr, FamilyExpr


class PermExpr:
    """A permutation of N, evaluated in both directions with fwd and bwd.

    Optional hook, None at class level where a kind has none:
      _cycle_min(x, fuel)    the least element of x's cycle, answered
                             without walking the orbit.  A kind has it where
                             its cycles are a relation's blocks by
                             construction, so that the block's least
                             representative is the answer.
                             normalform.normal_min reads it first, and
                             searches the orbit only where it is missing.

    A node keeps the memo of its own answers, ints only, as a relation keeps
    its blocks (EqExpr._blocks): _orbit_lists, base -> its forward and
    backward orbit listed so far.  OrbitCache is a view over it, as
    BlockCache is over the blocks, so every consumer shares one walk.
    """

    kind = "perm"
    _cycle_min = None
    _orbit_lists = None

    def fwd(self, x: int, fuel: Fuel) -> int:
        raise NotImplementedError

    def bwd(self, x: int, fuel: Fuel) -> int:
        raise NotImplementedError

    def _orbit_state(self) -> dict:
        if self._orbit_lists is None:
            self._orbit_lists = {}
        return self._orbit_lists


def perm_eval(p: PermExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    if x < 0:
        raise ValueError("permutations act on naturals")
    return p.fwd(x, fuel or Fuel())


def perm_eval_inv(p: PermExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    if x < 0:
        raise ValueError("permutations act on naturals")
    return p.bwd(x, fuel or Fuel())


def perm_power(p: PermExpr, x: int, k: int, fuel: Optional[Fuel] = None) -> int:
    if x < 0:
        raise ValueError("permutations act on naturals")
    f = fuel or Fuel()
    v = x
    if k >= 0:
        for _ in range(k):
            v = p.fwd(v, f)
    else:
        for _ in range(-k):
            v = p.bwd(v, f)
    return v


class Identity(PermExpr):
    kind = "identity"

    def fwd(self, x: int, fuel: Fuel) -> int:
        return x

    bwd = fwd


class Transposition(PermExpr):
    kind = "transposition"

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0:
            raise ValueError("transposition of naturals only")
        self.a = a
        self.b = b

    def fwd(self, x: int, fuel: Fuel) -> int:
        if x == self.a:
            return self.b
        if x == self.b:
            return self.a
        return x

    bwd = fwd


class FinitaryProduct(PermExpr):
    """Product of transpositions, rightmost applied first."""

    kind = "finitary_product"

    def __init__(self, transpositions: list[tuple[int, int]]):
        self.transpositions = [(int(a), int(b)) for a, b in transpositions]

    def fwd(self, x: int, fuel: Fuel) -> int:
        for a, b in reversed(self.transpositions):
            if x == a:
                x = b
            elif x == b:
                x = a
        return x

    def bwd(self, x: int, fuel: Fuel) -> int:
        for a, b in self.transpositions:
            if x == a:
                x = b
            elif x == b:
                x = a
        return x

    def support_mapping(self) -> dict[int, int]:
        """Finite forward table on the union of the transpositions' points."""
        pts = {p for t in self.transpositions for p in t}
        fuel = Fuel()
        return {p: self.fwd(p, fuel) for p in pts}


def normal_index(k: int, n: Optional[int], step: int) -> int:
    """The normal cycle order: the index of the member `step` (+1 or -1)
    powers away from member k, in a cycle of n members (None: infinite)
    indexed increasingly.  Member k is the power delta_inv(k) of the
    minimum; a finite cycle's powers fill the interval from -(n // 2) on,
    and a step wraps inside it."""
    p = delta_inv(k) + step
    if n is not None:
        lo = -(n // 2)
        p = lo + (p - lo) % n
    return delta(p)


class DeltaSucc(PermExpr):
    """Conjugate of the successor on Z: one cycle ...,5,3,1,0,2,4,6,...,
    the normal cycle on N itself."""

    kind = "delta_succ"

    def fwd(self, x: int, fuel: Fuel) -> int:
        return normal_index(x, None, 1)

    def bwd(self, x: int, fuel: Fuel) -> int:
        return normal_index(x, None, -1)


@dataclass(frozen=True)
class Rule:
    """One branch of a PiecewiseResidue map.

    modulus == 0 selects the single point x == residue, a natural; otherwise
    the branch matches x % modulus == residue, with 0 <= residue < modulus.
    kind is "affine" (a*x + b, a != 0) or "const" (value b, with
    modulus == 0 only); the constructor refuses anything else, so every
    rule matches some natural.
    """

    modulus: int
    residue: int
    kind: str
    a: int = 1
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("affine", "const"):
            raise ValueError(f"rule kind must be 'affine' or 'const', got {self.kind!r}")
        if self.kind == "const" and self.modulus != 0:
            raise ValueError("const branch over a residue class is not injective")
        if self.kind == "affine" and self.a == 0:
            raise ValueError("affine branch needs a != 0")
        if self.modulus < 0:
            raise ValueError(f"rule modulus must be >= 0, got {self.modulus}")
        if self.modulus and not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} is no class mod {self.modulus}")
        if not self.modulus and self.residue < 0:
            raise ValueError(f"point rule at {self.residue}, not a natural")

    def matches(self, x: int) -> bool:
        if self.modulus == 0:
            return x == self.residue
        return x % self.modulus == self.residue

    def image(self, x: int) -> int:
        if self.kind == "const":
            return self.b
        return self.a * x + self.b


class PiecewiseResidue(PermExpr):
    """First-matching-rule piecewise map, identity where nothing matches.

    Construction decides exactly whether the map is a bijection of N, and
    raises ValueError where it is not.  Let L be the lcm of the nonzero
    moduli and P the points of the point rules.  Off P, x is mapped by the
    first class rule matching x mod L, or fixed.  Under a*x + b the images
    of a class mod L have density 1/(|a| L), so the classes cover N only if
    every class is translated, x -> x + b_c (a = 1); with a < 0 the images
    also fall below 0.  The classes c + b_c must then be a permutation of
    Z/L, which makes T(x) = x + b_(x mod L) a bijection of Z.  The rest is
    finite: T keeps each natural off P natural (only x below max -b_c can
    fail), and the rules on P map P one-to-one onto the naturals that T
    leaves unhit, N minus T(N \\ P): the y below max b_c whose T-preimage is
    negative, and the natural T-images of P.  These maps are the
    residue-class-wise affine (RCWA) permutations of S. Kohl, "Algorithms
    for a class of infinite permutation groups", J. Symb. Comput. 43 (2008).

    The decision builds the tables fwd and bwd read: the shift of each
    class, the shift by which each class is reached, and the images of P
    both ways.  The L classes are charged to a Fuel of the default budget
    before they are listed, so an lcm above the budget fails at once with
    FuelExhausted; the rest of the work grows with the rules and P only,
    however far the shifts reach.  check_window is kept as a field of the
    saved form only; nothing reads it.
    """

    kind = "piecewise_residue"

    def __init__(self, rules: list[Rule], check_window: int = 10_000):
        self.rules = list(rules)
        self.check_window = check_window
        L = self._L = math.lcm(*(r.modulus for r in self.rules if r.modulus))
        Fuel().spend_many(L, f"{self.kind}: the lcm of the moduli is {L}")
        first: list[Optional[Rule]] = [None] * L  # first class rule of each class
        for r in reversed(self.rules):
            if r.modulus:
                first[r.residue::r.modulus] = [r] * (L // r.modulus)
        for c, r in enumerate(first):
            if r is not None and r.a != 1:
                raise ValueError(f"the class {c} mod {L} is mapped with a = {r.a}: "
                                 f"only a translation (a = 1) of every class can cover N")
        shift = self._shift = [0 if r is None else r.b for r in first]
        ishift: list[Optional[int]] = [None] * L  # the shift that reaches each class
        for c, b in enumerate(shift):
            d = (c + b) % L
            if ishift[d] is not None:
                raise ValueError(f"not injective: the classes {(d - ishift[d]) % L} and {c} "
                                 f"mod {L} are both shifted onto the class {d}")
            ishift[d] = b
        self._ishift = ishift

        points = self._points = {r.residue: self._first_match(r.residue)
                                 for r in self.rules if r.modulus == 0}
        # T sends x below 0 only where x < -b: each such x must be a point,
        # so this loop stops within len(points) + 1 rounds
        for c, b in enumerate(shift):
            for x in range(c, -b, L):
                if x not in points:
                    raise ValueError(f"rule maps {x} below zero")
        # N minus T(N \ P): the y < b in each class reached by b, whose
        # preimage is negative, and the natural T-images of P; counted
        # before they are listed, so that a far shift is refused at once
        lost = sum(len(range(d, b, L)) for d, b in enumerate(ishift))
        if lost > len(points):
            raise ValueError(f"not surjective: no class reaches {lost} of the naturals, "
                             f"and only {len(points)} points are left to map onto them")
        unhit = {y for d, b in enumerate(ishift) for y in range(d, b, L)}
        unhit.update(t for p in points if (t := p + shift[p % L]) >= 0)
        self._ipoints: dict[int, int] = {}
        for p, y in points.items():
            if y < 0:
                raise ValueError(f"rule maps {p} below zero")
            if y in self._ipoints:
                raise ValueError(f"not injective: {self._ipoints[y]} and {p} both map to {y}")
            if y not in unhit:
                raise ValueError(f"not injective: {y - ishift[y % L]} and {p} "
                                 f"both map to {y}")
            self._ipoints[y] = p
        if len(self._ipoints) < len(unhit):
            y = min(unhit - self._ipoints.keys())
            raise ValueError(f"not surjective: nothing maps to {y}")

    def _first_match(self, x: int) -> int:
        for r in self.rules:
            if r.matches(x):
                return r.image(x)
        return x

    def fwd(self, x: int, fuel: Fuel) -> int:
        if x in self._points:
            return self._points[x]
        return x + self._shift[x % self._L]

    def bwd(self, y: int, fuel: Fuel) -> int:
        if y in self._ipoints:
            return self._ipoints[y]
        return y - self._ishift[y % self._L]


class Compose(PermExpr):
    """(f o g)(x) = f(g(x))."""

    kind = "compose"

    def __init__(self, f: PermExpr, g: PermExpr):
        self.f = f
        self.g = g

    def fwd(self, x: int, fuel: Fuel) -> int:
        return self.f.fwd(self.g.fwd(x, fuel), fuel)

    def bwd(self, x: int, fuel: Fuel) -> int:
        return self.g.bwd(self.f.bwd(x, fuel), fuel)


class TranspositionTimes(Compose):
    """Literal product (x y) o f: apply f, then swap x and y."""

    kind = "transposition_times"

    def __init__(self, x: int, y: int, f: PermExpr):
        super().__init__(Transposition(x, y), f)
        self.x = x
        self.y = y
        self.base = f


class Inverse(PermExpr):
    kind = "inverse"

    def __init__(self, f: PermExpr):
        self.f = f

    def fwd(self, x: int, fuel: Fuel) -> int:
        return self.f.bwd(x, fuel)

    def bwd(self, x: int, fuel: Fuel) -> int:
        return self.f.fwd(x, fuel)


class NormalFromSet(PermExpr):
    """One normal cycle whose support is an infinite decidable set A, the
    block of `rep` in `eq`; everything outside A is fixed.

    With a(j) the increasing enumeration of A, the image of a(i) is
    a(normal_index(i, None, 1)): the cycle visits A in the zig-zag order
    that makes successive delta-indexed powers of the minimum increase.
    """

    kind = "normal_from_set"

    def __init__(self, eq: EqExpr, rep: int):
        self.eq = eq
        self.rep = rep
        self._cache = BlockCache(eq)

    def _map(self, x: int, step: int, fuel: Fuel) -> int:
        if not self.eq._decide(self.rep, x, fuel):
            return x
        lr = self._cache.least_rep(x, fuel)
        i = self._cache.member_index(x, fuel)
        return self._cache.nth_member(lr, normal_index(i, None, step), fuel)

    def fwd(self, x: int, fuel: Fuel) -> int:
        return self._map(x, 1, fuel)

    def bwd(self, x: int, fuel: Fuel) -> int:
        return self._map(x, -1, fuel)


class RhoExpr:
    """A rho query, asked per point with the caller's fuel: "does x's block
    hold a larger element" (rho_kind "greater") or "how big is x's block, 0
    meaning infinite" ("cardinality").  A "coproduct_greater" rho answers
    the first question about one member relation of a coproduct, and is
    asked rho(eq, x, fuel) with that member as eq."""

    kind = "rho"
    rho_kind = "greater"  # or "cardinality", "coproduct_greater"

    def __call__(self, x: int, fuel: Optional[Fuel] = None) -> int:
        raise NotImplementedError


class _MemberRho(partial, RhoExpr):
    """_MemberRho(rho, eq) asks the "coproduct_greater" rho about one member
    relation eq of its coproduct: a greater-element rho of that member."""


def _rho_query(rho) -> Callable[[int, Fuel], int]:
    """rho as a (point, fuel) query.  A RhoExpr takes the fuel; any other
    callable is a plain predicate of the point."""
    if isinstance(rho, RhoExpr):
        return rho
    return lambda x, fuel: rho(x)


class FromRho(PermExpr):
    """Normal member of Perm(eq), built from the greater-element predicate.

    On a block enumerated increasingly as a_0 < a_1 < ..., the element of
    index k maps to index normal_index(k, n, 1) for the block's unknown
    size n: k+2 / k-2 along parity.  The order is written out here rather
    than called, so that rho is asked only where a step can wrap (does a
    larger member exist above me / above my successor).
    """

    kind = "from_rho"

    def __init__(self, eq: EqExpr, rho):
        if isinstance(rho, RhoExpr) and rho.rho_kind != "greater":
            raise ValueError("FromRho needs a greater-element rho")
        self.eq = eq
        self.rho = rho
        self._rho = _rho_query(rho)
        self._cache = BlockCache(eq)

    def fwd(self, x: int, fuel: Fuel) -> int:
        members, k = self._cache._position(x, fuel)
        if k % 2 == 0:
            if self._rho(x, fuel):
                x1 = self._cache.next_greater(x, fuel)
                if self._rho(x1, fuel):
                    return self._cache.next_greater(x1, fuel)
                return x1
            return x if k == 0 else members[k - 1]
        return members[0] if k == 1 else members[k - 2]

    def bwd(self, m: int, fuel: Fuel) -> int:
        members, t = self._cache._position(m, fuel)
        if t % 2 == 0:
            if t >= 2:
                return members[t - 2]
            return self._cache.next_greater(m, fuel) if self._rho(m, fuel) else m
        if self._rho(m, fuel):
            n1 = self._cache.next_greater(m, fuel)
            if self._rho(n1, fuel):
                return self._cache.next_greater(n1, fuel)
            return n1
        return members[t - 1]

    def _cycle_min(self, x: int, fuel: Fuel) -> int:
        # where the relation's hook says x's block is {lr} alone, a rho that
        # claims a larger member there makes no permutation: fwd(lr) would
        # look for that member forever
        lr = self._cache.least_rep(x, fuel)
        nxt = self._cache._next
        if nxt is not None and nxt(lr, fuel) is None and self._rho(lr, fuel):
            raise PreconditionViolation(
                f"{self.kind}: rho claims a member above {lr}, which is alone "
                f"in its {self.eq.kind} block")
        return lr


class SeminormalFromRho(PermExpr):
    """Semi-normal member of Perm(eq) from the block-cardinality function
    (0 encodes an infinite block).  Finite blocks become plain increasing
    cycles; infinite blocks get the normal zig-zag cycle."""

    kind = "seminormal_from_rho"

    def __init__(self, eq: EqExpr, rho):
        if isinstance(rho, RhoExpr) and rho.rho_kind != "cardinality":
            raise ValueError("SeminormalFromRho needs a cardinality rho")
        self.eq = eq
        self.rho = rho
        self._rho = _rho_query(rho)
        self._cache = BlockCache(eq)

    def _map(self, x: int, step: int, fuel: Fuel) -> int:
        n = int(self._rho(x, fuel))
        lr = self._cache.least_rep(x, fuel)
        if n == 0:
            i = self._cache.member_index(x, fuel)
            return self._cache.nth_member(lr, normal_index(i, None, step), fuel)
        self._cache.nth_member(lr, n - 1, fuel)
        members, i = self._position_within(x, n, fuel)
        return members[(i + step) % n]

    def _position_within(self, x: int, n: int,
                         fuel: Fuel) -> tuple[list[int], int]:
        """x's block members and x's index among them, checked against
        rho's count n of the block."""
        members, i = self._cache._position(x, fuel)
        if i >= n:
            raise PreconditionViolation(
                f"{self.kind}: rho gives the block of {x} {n} members, "
                f"but {x} is its member of index {i}")
        return members, i

    def fwd(self, x: int, fuel: Fuel) -> int:
        return self._map(x, 1, fuel)

    def bwd(self, x: int, fuel: Fuel) -> int:
        return self._map(x, -1, fuel)

    def _cycle_min(self, x: int, fuel: Fuel) -> int:
        # a rho that undercounts x's block is caught here as in _map
        n = int(self._rho(x, fuel))
        if n:
            self._position_within(x, n, fuel)
        return self._cache.least_rep(x, fuel)


class CoproductPerm(PermExpr):
    """Glue per-index normal permutations over pair codes: <z, x> maps to
    <z, f_z(x)>, with f_z the FromRho of member z and the coproduct rho
    asked about that member."""

    kind = "coproduct_perm"

    def __init__(self, family: FamilyExpr, rho: RhoExpr):
        if not isinstance(rho, RhoExpr) or rho.rho_kind != "coproduct_greater":
            raise ValueError("CoproductPerm needs a coproduct_greater rho")
        self.family = family
        self.rho = rho
        self._parts: dict[int, FromRho] = {}

    def _part(self, z: int) -> FromRho:
        part = self._parts.get(z)
        if part is None:
            member = self.family.member(z)
            part = self._parts[z] = FromRho(member, _MemberRho(self.rho, member))
        return part

    def fwd(self, n: int, fuel: Fuel) -> int:
        z, x = unpair(n)
        return pair(z, self._part(z).fwd(x, fuel))

    def bwd(self, n: int, fuel: Fuel) -> int:
        z, x = unpair(n)
        return pair(z, self._part(z).bwd(x, fuel))


class OrbitCache:
    """Incremental two-sided orbit walker: a view of the orbit lists a
    permutation node keeps, ints only, shared by every view of that node."""

    def __init__(self, perm: PermExpr):
        self.perm = perm
        self._orb = perm._orbit_state()

    def value(self, base: int, k: int, fuel: Optional[Fuel] = None) -> int:
        f = fuel or Fuel()
        orb = self._orb.get(base)
        if orb is None:
            orb = self._orb[base] = ([base], [base])
        fwd, bwd = orb
        if k >= 0:
            while len(fwd) <= k:
                fwd.append(self.perm.fwd(fwd[-1], f))
            return fwd[k]
        while len(bwd) <= -k:
            bwd.append(self.perm.bwd(bwd[-1], f))
        return bwd[-k]

    def cycle(self, x: int, fuel: Fuel, limit: Optional[int] = None) -> Optional[list[int]]:
        """x's forward orbit up to its return to x, as a fresh list, one
        unit of fuel per step whether listed before or not; None when it
        has not returned within limit steps."""
        for k in islice(count(1), limit):
            fuel.spend()
            if self.value(x, k, fuel) == x:
                return self._orb[x][0][:k]
        return None

    def find(self, base: int, hit: Callable[[int], bool], fuel: Fuel,
             first: int = 0) -> int:
        """The xi-order orbit search (k = 0, -1, 1, -2, ...) the cycle
        searches share: the least k, from the first-th in that order on,
        with hit(perm^k(base)), one unit of fuel per power tried.  With no
        such k the search runs until the fuel is gone."""
        for j in count(first):
            fuel.spend()
            k = delta_inv(j)
            if hit(self.value(base, k, fuel)):
                return k

    def find_k(self, base: int, target: int, fuel: Optional[Fuel] = None) -> int:
        """Least k in xi order with perm^k(base) = target; the caller must
        know base and target share a cycle."""
        return self.find(base, lambda v: v == target, fuel or Fuel())


class ConjugatorSamePartition(PermExpr):
    """The conjugator h with f = h^-1 g h for f, g sharing cycle partition eq.

    h sends the k-th f-power of each block's least element to the k-th
    g-power of the same element (k resolved in xi order); the inverse
    direction uses the mirrored formula with the roles of f and g swapped.
    """

    kind = "conjugator_same_partition"

    def __init__(self, f: PermExpr, g: PermExpr, eq: EqExpr):
        self.f = f
        self.g = g
        self.eq = eq
        self._cache = BlockCache(eq)
        self._forb = OrbitCache(f)
        self._gorb = OrbitCache(g)

    def fwd(self, x: int, fuel: Fuel) -> int:
        y = self._cache.least_rep(x, fuel)
        k = self._forb.find_k(y, x, fuel)
        return self._gorb.value(y, k, fuel)

    def bwd(self, z: int, fuel: Fuel) -> int:
        y = self._cache.least_rep(z, fuel)
        k = self._gorb.find_k(y, z, fuel)
        return self._forb.value(y, k, fuel)


# ---------------------------------------------------------------------------
# eta numbering of finitary permutations


def _encode_tuple(xs: list[int]) -> int:
    if not xs:
        return 0
    acc = xs[-1]
    for v in reversed(xs[:-1]):
        acc = pair(v, acc)
    return acc


def eta_encode(ts: list[tuple[int, int]]) -> int:
    codes = [pair(a, b) for a, b in ts]
    return pair(len(codes), _encode_tuple(codes))


def eta_decode(z: int, fuel: Optional[Fuel] = None) -> FinitaryProduct:
    """The finitary product coded by z; its length is charged to the fuel
    before any transposition is listed."""
    n, codes = unpair_sequence(z)
    (fuel or Fuel()).spend_many(n, "eta length")
    codes[-1:-1] = [0] * (n - len(codes))
    return FinitaryProduct([unpair(c) for c in codes])


# ---------------------------------------------------------------------------
# window utilities


def orbit_window(p: PermExpr, x: int, steps: int,
                 fuel: Optional[Fuel] = None) -> list[tuple[int, int]]:
    f = fuel or Fuel()
    walker = OrbitCache(p)
    return [(delta_inv(j), walker.value(x, delta_inv(j), f)) for j in range(steps)]


def window_bijection_check(p: PermExpr, window: int,
                           fuel: Optional[Fuel] = None) -> bool:
    f = fuel or Fuel()
    seen = set()
    for x in range(window):
        y = p.fwd(x, f)
        if y < 0 or y in seen:
            return False
        seen.add(y)
        if p.bwd(y, f) != x:
            return False
    return True


def even_zigzag() -> PiecewiseResidue:
    """The reference permutation with one infinite normal cycle on the evens
    (...,6,2,0,4,8,...) and every odd number fixed."""
    return PiecewiseResidue([
        Rule(2, 1, "affine", 1, 0),
        Rule(0, 2, "const", 0, 0),
        Rule(4, 2, "affine", 1, -4),
        Rule(4, 0, "affine", 1, 4),
    ])
