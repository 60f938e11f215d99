import math
import random
import types

import pytest
from hypothesis import given, strategies as st

from permdec import core, machine
from permdec.permutation import eta_decode, eta_encode
from permdec.core import (
    Exhausted,
    Found,
    Fuel,
    FuelExhausted,
    delta,
    delta_inv,
    mu_search,
    pack3,
    pair,
    unpack3,
    unpair,
    xi_search,
)


def test_delta_pinned_values():
    assert [delta(k) for k in (0, -1, 1, -2, 2, -3, 3)] == [0, 1, 2, 3, 4, 5, 6]
    assert [delta_inv(j) for j in range(7)] == [0, -1, 1, -2, 2, -3, 3]


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_delta_left_inverse(k):
    assert delta_inv(delta(k)) == k


@given(st.integers(min_value=0, max_value=10**9))
def test_delta_right_inverse(j):
    assert delta(delta_inv(j)) == j


def test_delta_inv_rejects_negatives():
    with pytest.raises(ValueError):
        delta_inv(-1)


def test_pair_pinned_values():
    assert pair(0, 0) == 0
    assert pair(0, 1) == 1
    assert pair(1, 0) == 2


@given(st.integers(min_value=0, max_value=10**8),
       st.integers(min_value=0, max_value=10**8))
def test_pair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(min_value=0, max_value=10**12))
def test_unpair_roundtrip(z):
    assert pair(*unpair(z)) == z


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_pack3_roundtrip(x, y, z):
    assert unpack3(pack3(x, y, z)) == (x, y, z)


def test_mu_search_counts_probes():
    out = mu_search(lambda x: x == 7, Fuel.unbounded())
    assert out == Found(7, 8)


def test_xi_search_signed_order():
    out = xi_search(lambda k: k == -2, Fuel.unbounded())
    assert out == Found(-2, 4)  # probed 0, -1, 1, -2


@given(st.sets(st.integers(min_value=-40, max_value=40), min_size=1))
def test_xi_equals_mu_through_delta(targets):
    pred = lambda k: k in targets
    xi = xi_search(pred, Fuel.unbounded())
    mu = mu_search(lambda i: pred(delta_inv(i)), Fuel.unbounded())
    assert isinstance(xi, Found) and isinstance(mu, Found)
    assert xi.value == delta_inv(mu.value)
    assert xi.probes == mu.probes


def test_search_exhaustion_is_a_value():
    out = mu_search(lambda x: False, Fuel(9))
    assert out == Exhausted(9)


def test_fuel_is_shared_state():
    f = Fuel(5)
    assert isinstance(mu_search(lambda x: x == 2, f), Found)
    assert f.remaining == 2
    assert mu_search(lambda x: False, f) == Exhausted(2)
    with pytest.raises(FuelExhausted):
        f.spend()


def test_unbounded_fuel_never_runs_out():
    f = Fuel.unbounded()
    for _ in range(1000):
        f.spend()
    assert f.remaining is None
    assert f.used == 1000


# ---------------------------------------------------------------------------
# unpair on big codes: the multiplication-only root and its correction loop


def _ref_unpair(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    x = z - w * (w + 1) // 2
    return x, w - x


def _tri(w):
    return w * (w + 1) // 2


def test_unpair_matches_the_isqrt_reference_on_big_codes():
    rng = random.Random(20261020)
    # bit lengths log-uniform in [16K, 1M]
    for bits in [16_000, 1_000_000] + [int(16_000 * 62.5 ** rng.random()) for _ in range(20)]:
        z = rng.getrandbits(bits) | 1 << (bits - 1)
        got = unpair(z)
        assert got == _ref_unpair(z), bits
        assert pair(*got) == z, bits


def test_unpair_at_triangular_edges():
    # z = T(w) + x is exact for 0 <= x <= w: the ends of that range and one
    # past them either way, where an approximate root is most likely to miss.
    # 8 T(w) + 1 = (2w + 1)**2 is a perfect square.
    rng = random.Random(7)
    for bits in (10_000, 16_001, 40_000, 100_000, 400_000):
        for w in (1 << bits, (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
            t = _tri(w)
            assert 8 * t + 1 == (2 * w + 1) ** 2
            for z, want in ((t - 1, (w - 1, 0)), (t, (0, w)), (t + w, (w, 0)),
                            (t + w + 1, (0, w + 1))):
                assert unpair(z) == want, (bits, z - t)
                assert pair(*want) == z


def test_unpair_at_the_size_gate():
    g = core._UNPAIR_GATE
    for z in (g - 1, g, g + 1):
        assert unpair(z) == _ref_unpair(z)
        assert pair(*unpair(z)) == z


@pytest.mark.parametrize("error", [-7, -2, -1, 1, 2, 7])
def test_unpair_is_exact_from_a_rough_root(monkeypatch, error):
    # exactness rests on the correction loop alone, not on the root
    root = core._root

    def rough(n, with_reciprocal):
        s, r, e = root(n, with_reciprocal)
        return (s, r, e) if with_reciprocal else (s + error, r, e)

    monkeypatch.setattr(core, "_root", rough)
    rng = random.Random(error)
    w = rng.getrandbits(20_000) | 1 << 19_999
    t = _tri(w)
    for z in (t - 1, t, t + 1, t + w - 1, t + w, t + w + 1, rng.getrandbits(40_001)):
        assert pair(*unpair(z)) == z
        assert unpair(z) == _ref_unpair(z)


def test_the_approximate_root_is_off_by_at_most_one():
    # the correction loop makes unpair exact whatever the root; this pins
    # its cost at one step or none
    rng = random.Random(3)
    for bits in (4_097, 5_000, 8_193, 16_385, 50_000, 131_073, 300_000):
        for n in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1,
                  1 << (bits - 1), ((1 << (bits // 2)) - 1) ** 2,
                  ((1 << (bits // 2)) - 1) ** 2 - 1):
            s = core._root(n, False)[0]
            assert abs(s - math.isqrt(n)) <= 1, bits


def test_big_codes_take_the_multiplication_only_root(monkeypatch):
    # math.isqrt sees the codes below the gate whole, and above it only the
    # recursion's base: no code above the gate falls back to the quadratic
    # root anywhere along the unpairing chain
    widths = []

    def isqrt(n):
        widths.append(n.bit_length())
        return math.isqrt(n)

    monkeypatch.setattr(core, "math", types.SimpleNamespace(isqrt=isqrt))
    rng = random.Random(18)
    ts = [(a, 88 - a) for a in (rng.randrange(44) for _ in range(18))]
    z = eta_encode(ts)
    assert z.bit_length() > 3_000_000
    assert eta_decode(z).transpositions == ts
    # a program code unpairs to a fixed point in O(log log code) steps
    p = machine.decode_program(rng.getrandbits(1_000_000) | 1 << 999_999)
    assert p.length.bit_length() > 400_000 and len(p.listed) < 40
    small = (8 * core._UNPAIR_GATE).bit_length()
    assert widths and max(widths) < small < 20_000
