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

Sequence codes nest pairs to the right, z = pair(x0, pair(x1, y1)) with
x0 and x1 small, and unpack3 reads two levels at once above the gate
without the full-width root.  With F(w) = w(w+1)/2, V1 = x1 + y1,
g = F(V1) and D = x0 + x1, pair(x1, y1) = g + x1, so

    z = F(g + D) + x0 = F(g) + D*g + F(D) + x0.

V1 has a quarter of z's bits and is F's root of V0 = g + D, which has
half, while D is small; so a root of the top half of z pins V0 to well
under V1, and a root of that pins V1: two roots of half width.
R = z - F(g) = D*g + F(D) + x0 then gives D as R // g, x0 as
R - D*g - F(D) and x1 as D - x0.  (R // g is D + 1 only when
x0 >= g - F(D), far above D, where x1 would be negative anyway.)  The
answer rests on the checks x0 >= 0 and 0 <= x1 <= V1 alone: with them
y1 = V1 - x1 >= 0 and x0 <= g + D, the identity gives
pair(x0, pair(x1, y1)) == z, and pairing is a bijection.  When a check
fails, or D has more than 64 bits, unpack3 falls back to two
plain unpairs.
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


# bits past its top half that the two-level step reads of a code
_TOP_EXTRA_BITS = 128
# bits of x0 + x1 past which the two-level step leaves a code to unpair
_SMALL_SUM_BITS = 64


def unpack3(n: int) -> tuple[int, int, int]:
    """(x0, x1, y1) with n = pair(x0, pair(x1, y1)): the first two levels of
    an unpairing chain.  Above _UNPAIR_GATE it tries the two-level step
    first, then two plain unpairs."""
    if n >= _UNPAIR_GATE:
        found = _unpack3_from_top(n)
        if found is not None:
            return found
    x, rest = unpair(n)
    y, z = unpair(rest)
    return x, y, z


def _unpack3_from_top(z: int) -> Optional[tuple[int, int, int]]:
    """unpack3(z) by the two-level step of the module docstring, or None
    when x0 + x1 is not small or a check fails."""
    b = z.bit_length()
    k = (b - b // 2 - _TOP_EXTRA_BITS) // 2
    # (8z + 1)**0.5 < (8(z >> 2k) + 8)**0.5 * 2**k, so with a root within a
    # unit, hi >= V0, and hi - V0 < 2**(k + 1), far below V1's ~2**(b/4)
    hi = (_root(8 * (z >> 2 * k) + 8, False)[0] + 2) << (k - 1)
    x, y = unpair(hi)
    if x >> (k + 2):
        # x = hi - g = D + (hi - V0), below 2**(k + 2) for a small D: this
        # D is not small, so spare the squaring
        return None
    v1 = x + y
    g = hi - x
    r = z - (g * g + g) // 2
    e = g.bit_length()
    if r < 0 or r >> (e + _SMALL_SUM_BITS):
        return None
    d, r = divmod(r, g)
    x0 = r - d * (d + 1) // 2
    x1 = d - x0
    if x0 < 0 or x1 < 0 or x1 > v1:
        return None
    return x0, x1, v1 - x1


def unpair_sequence(z: int) -> tuple[int, list[int]]:
    """(n, codes) for z = pair(n, pair(x_1, pair(x_2, ... pair(x_{n-1},
    x_n)))), with the run of zeros before x_n left out.  Once the rest is 0
    or 1 it is a fixed point of unpair's second half (unpair(0) is (0, 0),
    unpair(1) is (0, 1)), so every code before the last is 0 and the last is
    the rest itself.  codes holds the codes read before that point, then
    x_n; the n - len(codes) codes left out are zeros just before x_n.  Each
    step about halves the bit length of the rest, so the walk is short
    however large n is.

    Above _UNPAIR_GATE the walk reads two levels per step while the
    two-level step succeeds; after the first miss (codes that are not
    small, as in a random code) it only unpairs."""
    two = _unpack3_from_top(z) if z >= _UNPAIR_GATE else None
    if two is None:
        n, z = unpair(z)
        out = []
    else:
        n, x, z = two
        if n < 2:
            return n, [pair(x, z)] if n else []
        out = [x]
    left = n - 1 - len(out)
    while two is not None and left > 1 and z >= _UNPAIR_GATE:
        two = _unpack3_from_top(z)
        if two is not None:
            x0, x1, z = two
            out += (x0, x1)
            left -= 2
    while left > 0 and z > 1:
        x, z = unpair(z)
        out.append(x)
        left -= 1
    if n > 0:
        out.append(z)
    return n, out


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
