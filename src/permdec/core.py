"""Integer plumbing: the signed/natural bijection, pair coding, bounded searches.

Everything here is exact big-integer arithmetic; nothing wraps or rounds.
Searches carry an explicit probe budget so that semi-decidable questions
surface "ran out of budget" as a value instead of hanging or lying.

unpair(z) needs w = (isqrt(8z + 1) - 1) // 2, and math.isqrt costs
O(n**2) in the bit length n of z (it ends in schoolbook division).  Below
_UNPAIR_GATE it is used as is.  Above, an approximate root comes from a
coupled Newton iteration on root and reciprocal that uses only
multiplications and shifts (Brent and Zimmermann, Modern Computer
Arithmetic, 2010, sections 1.5 and 3.5), and w is then made exact by a
correction loop on z - w(w+1)/2, one linear step per unit of error.  The
answer rests on that loop alone; the approximation only decides its speed,
and it is off by at most one in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union


class FuelExhausted(Exception):
    """Raised by evaluation paths that cannot return a partial answer."""


class PreconditionViolation(Exception):
    """A documented caller obligation was provably not met."""


DEFAULT_BUDGET = 10_000_000


class Fuel:
    """Budget of probes, the one ceiling on every search. budget=None means
    unbounded.

    A probe is one step of a search whose end rests on a caller obligation:
    an orbit step of a cycle search, a candidate of a block scan.  The
    counter is shared: nested searches fed the same Fuel draw from one
    budget.  A Fuel is single-use state; a public entry point called without
    one makes one at the top, and passes it down to everything it calls.
    """

    __slots__ = ("budget", "used")

    def __init__(self, budget: Optional[int] = DEFAULT_BUDGET):
        if budget is not None and budget < 0:
            raise ValueError("fuel budget must be >= 0")
        self.budget = budget
        self.used = 0

    @classmethod
    def unbounded(cls) -> "Fuel":
        return cls(None)

    def try_spend(self) -> bool:
        """Consume one probe; False when the budget is gone (nothing consumed)."""
        if self.budget is not None and self.used >= self.budget:
            return False
        self.used += 1
        return True

    def spend(self) -> None:
        if self.budget is not None and self.used >= self.budget:
            raise FuelExhausted(f"probe budget of {self.budget} exhausted")
        self.used += 1

    def spend_many(self, n: int, what: str) -> None:
        """Consume n probes at once, for a loop whose length is known before
        it starts; raise FuelExhausted naming `what` when the budget cannot
        cover them (nothing consumed)."""
        if self.budget is not None and self.used + n > self.budget:
            raise FuelExhausted(f"probe budget of {self.budget} exhausted ({what})")
        self.used += n

    @property
    def remaining(self) -> Optional[int]:
        return None if self.budget is None else self.budget - self.used


@dataclass(frozen=True)
class Found:
    value: int
    probes: int


@dataclass(frozen=True)
class Exhausted:
    probes: int


SearchOutcome = Union[Found, Exhausted]


def delta(k: int) -> int:
    """Bijection from signed integers onto naturals: 0,-1,1,-2,2,... -> 0,1,2,3,4,..."""
    if k == 0:
        return 0
    if k < 0:
        return -2 * k - 1
    return 2 * k


def delta_inv(j: int) -> int:
    if j < 0:
        raise ValueError("delta_inv takes a natural number")
    if j % 2 == 0:
        return j // 2
    return -((j + 1) // 2)


def pair(x: int, y: int) -> int:
    """Quadratic pair coding, a bijection N x N -> N increasing in y for fixed x."""
    if x < 0 or y < 0:
        raise ValueError("pair takes naturals")
    return (x * x + 2 * x * y + y * y + 3 * x + y) // 2


# unpair uses math.isqrt below this, the multiplication-only root above
_UNPAIR_GATE = 1 << 16000
# operand width at which the root recursion bottoms out in math.isqrt
_ISQRT_BASE_BITS = 4096
# extra bits carried by each level of the root recursion
_GUARD_BITS = 32


def _root(n: int, with_reciprocal: bool) -> tuple[int, int, int]:
    """(s, r, e) with s ~ sqrt(n) to within a unit or so and r ~ 2**e / s
    to about as many bits as s has; above the base, r = e = 0 unless
    with_reciprocal, which only the recursion needs.

    The root of the top half of n, with its reciprocal, has half the bits;
    one Newton step s + (n - s*s) * r / 2 doubles them, and one step
    r + r * (1 - s * r) makes the reciprocal fit the new root.  Each
    product is truncated to the bits its result needs."""
    b = n.bit_length()
    if b <= _ISQRT_BASE_BITS:
        s = math.isqrt(n)
        e = 2 * s.bit_length() + _GUARD_BITS
        return s, (1 << e) // s, e
    k = (b - b // 2 - 2 * _GUARD_BITS) // 2
    s, r, e = _root(n >> 2 * k, True)
    keep = s.bit_length() + 2 * _GUARD_BITS
    d = n - (s * s << 2 * k)
    j = max(0, d.bit_length() - keep)
    s = (s << k) + ((d >> j) * r >> (e + k + 1 - j))
    if not with_reciprocal:
        return s, 0, 0
    e0, e = e + k, 2 * s.bit_length() + _GUARD_BITS
    h = (1 << e0) - s * r
    j = max(0, h.bit_length() - keep)
    r = (r << (e - e0)) + (r * (h >> j) >> (2 * e0 - e - j))
    return s, r, e


def unpair(z: int) -> tuple[int, int]:
    if z < 0:
        raise ValueError("unpair takes a natural")
    # z = w(w+1)/2 + x with w = x + y
    if z < _UNPAIR_GATE:
        w = (math.isqrt(8 * z + 1) - 1) // 2
        x = z - w * (w + 1) // 2
        return x, w - x
    w = (_root(8 * z + 1, False)[0] - 1) // 2
    # w * w takes CPython's squaring path, ~30% faster than w * (w + 1)
    x = z - (w * w + w) // 2
    # exact w has 0 <= x <= w; w(w+1)/2 - (w-1)w/2 = w
    while x < 0:
        x += w
        w -= 1
    while x > w:
        w += 1
        x -= w
    return x, w - x


def pack3(x: int, y: int, z: int) -> int:
    return pair(x, pair(y, z))


def unpack3(n: int) -> tuple[int, int, int]:
    x, rest = unpair(n)
    y, z = unpair(rest)
    return x, y, z


def mu_search(pred: Callable[[int], bool], fuel: Fuel) -> SearchOutcome:
    """Least natural satisfying pred, probing 0,1,2,... One fuel unit per probe."""
    probes = 0
    x = 0
    while True:
        if not fuel.try_spend():
            return Exhausted(probes)
        probes += 1
        if pred(x):
            return Found(x, probes)
        x += 1


def xi_search(pred: Callable[[int], bool], fuel: Fuel) -> SearchOutcome:
    """Least (in the order 0,-1,1,-2,2,...) integer satisfying pred."""
    probes = 0
    j = 0
    while True:
        if not fuel.try_spend():
            return Exhausted(probes)
        probes += 1
        k = delta_inv(j)
        if pred(k):
            return Found(k, probes)
        j += 1
