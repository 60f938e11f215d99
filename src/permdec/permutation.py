"""Computable permutations of N as lazily evaluated expression trees.

Every constructor evaluates in both directions directly; searching for an
inverse is only done where the underlying construction itself is a search.
Constructors whose semantics depend on an equivalence relation keep a
per-node member cache; caches are invisible to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Optional

from .core import (
    Fuel,
    PreconditionViolation,
    delta,
    delta_inv,
    pair,
    unpair,
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
    """

    kind = "perm"
    _cycle_min = None

    def fwd(self, x: int, fuel: Fuel) -> int:
        raise NotImplementedError

    def bwd(self, x: int, fuel: Fuel) -> int:
        raise NotImplementedError


def perm_eval(p: PermExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    if x < 0:
        raise ValueError("permutations act on naturals")
    return p.fwd(x, fuel or Fuel())


def perm_eval_inv(p: PermExpr, x: int, fuel: Optional[Fuel] = None) -> int:
    if x < 0:
        raise ValueError("permutations act on naturals")
    return p.bwd(x, fuel or Fuel())


def perm_power(p: PermExpr, x: int, k: int, fuel: Optional[Fuel] = None) -> int:
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

    modulus == 0 selects the single point x == residue; otherwise the branch
    matches x % modulus == residue.  kind is "affine" (a*x + b, a != 0) or
    "const" (value b, with modulus == 0 only); the constructor refuses
    anything else.
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

    Bijectivity on the whole of N is the caller's obligation; construction
    checks it on a finite window and rejects visible violations.
    """

    kind = "piecewise_residue"

    def __init__(self, rules: list[Rule], check_window: int = 10_000):
        self.rules = list(rules)
        self.check_window = check_window
        if check_window:
            self._check(check_window)

    def _check(self, window: int) -> None:
        fuel = Fuel()
        seen: dict[int, int] = {}
        for x in range(window):
            y = self.fwd(x, fuel)
            if y < 0:
                raise ValueError(f"rule maps {x} below zero")
            if y in seen:
                raise ValueError(f"not injective: {seen[y]} and {x} both map to {y}")
            seen[y] = x
            if self.bwd(y, fuel) != x:
                raise ValueError(f"inverse mismatch at {x}")

    def fwd(self, x: int, fuel: Fuel) -> int:
        for r in self.rules:
            if r.matches(x):
                return r.image(x)
        return x

    def bwd(self, y: int, fuel: Fuel) -> int:
        candidates = []
        for r in self.rules:
            if r.kind == "const":
                if y == r.b:
                    candidates.append(r.residue)
            else:
                num = y - r.b
                if num % r.a == 0:
                    x = num // r.a
                    if x >= 0 and r.matches(x):
                        candidates.append(x)
        candidates.append(y)  # identity fallback
        hits = [x for x in dict.fromkeys(candidates) if self.fwd(x, fuel) == y]
        if len(hits) != 1:
            raise PreconditionViolation(
                f"piecewise map is not a bijection at {y} (preimages: {hits})")
        return hits[0]


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
        return self._cache.least_rep(x, fuel)


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
    """Incremental two-sided orbit walker for one permutation."""

    def __init__(self, perm: PermExpr):
        self.perm = perm
        self._orb: dict[int, tuple[list[int], list[int]]] = {}

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


def _decode_tuple(z: int, n: int) -> list[int]:
    out = []
    for _ in range(max(n - 1, 0)):
        v, z = unpair(z)
        out.append(v)
    if n > 0:
        out.append(z)
    return out


def eta_encode(ts: list[tuple[int, int]]) -> int:
    codes = [pair(a, b) for a, b in ts]
    return pair(len(codes), _encode_tuple(codes))


def eta_decode(z: int) -> FinitaryProduct:
    n, payload = unpair(z)
    return FinitaryProduct([unpair(c) for c in _decode_tuple(payload, n)])


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
