import pytest
from hypothesis import given, strategies as st

from permdec import (
    BlockCache,
    CycleEqOf,
    Exhausted,
    FibersOf,
    FinitaryProduct,
    Full,
    Fuel,
    FuelExhausted,
    ImageEq,
    ModFun,
    Modulo,
    OpaqueEq,
    PermExpr,
    PiXY,
    Singletons,
    TableThenIdentity,
    block_decider,
    block_index,
    enumerate_block,
    eq_decide,
    even_zigzag,
    halting_equivalence,
    is_isomorphism_on_window,
    least_representative,
    nth_block_decider,
    pair,
    perm_eval,
    perm_eval_inv,
)
from permdec.equivalence import ConstantFamily, CoproductEq


def test_modulo_blocks():
    eq = Modulo(3)
    assert eq_decide(eq, 4, 10)
    assert not eq_decide(eq, 4, 9)
    assert least_representative(eq, 14) == 2
    assert block_index(eq, 14) == 2


def test_fibers_of_table():
    eq = FibersOf(TableThenIdentity({0: 9, 1: 9}))
    assert eq_decide(eq, 0, 1)
    assert eq_decide(eq, 0, 9)
    assert not eq_decide(eq, 0, 2)


def test_block_decider_matches_pair_decider():
    eq = Modulo(5)
    bd = block_decider(eq, 7)
    assert [y for y in range(15) if bd(y)] == [2, 7, 12]


def test_nth_block_decider_in_least_representative_order():
    eq = Modulo(4)
    found = []
    for i in range(4):
        bd = nth_block_decider(eq, i, Fuel(1000))
        assert not isinstance(bd, Exhausted)
        found.append(min(y for y in range(8) if bd(y)))
    assert found == [0, 1, 2, 3]


def test_a_block_decider_spends_the_callers_fuel():
    # 400 is 100 steps along the evens' cycle from 0
    eq = CycleEqOf(even_zigzag(), "one_infinite")
    with pytest.raises(FuelExhausted):
        eq_decide(eq, 0, 400, Fuel(5))
    bd = nth_block_decider(eq, 0, Fuel(5))
    with pytest.raises(FuelExhausted):
        bd(400)
    assert nth_block_decider(eq, 0, Fuel())(400)
    # a call that brings a Fuel pays with it; one without gets a Fuel()
    bd = block_decider(eq, 0)
    fuel = Fuel(5)
    with pytest.raises(FuelExhausted):
        bd(400, fuel)
    assert fuel.used == 5
    assert bd(400) and not bd(401)
    fuel = Fuel()
    assert bd(400, fuel) and fuel.used >= 100


def test_nth_block_decider_exhausts_past_last_block():
    eq = Modulo(2)
    out = nth_block_decider(eq, 5, Fuel(2000))
    assert isinstance(out, Exhausted)


def test_enumerate_block():
    eq = Modulo(3)
    assert enumerate_block(eq, 1, 4, Fuel(1000)) == [1, 4, 7, 10]


def test_full_and_singletons():
    assert eq_decide(Full(), 3, 1000)
    assert not eq_decide(Singletons(), 3, 4)
    assert block_index(Singletons(), 9) == 9


def test_image_relabels_blocks():
    h = FinitaryProduct([(0, 5)])
    eq = ImageEq(Modulo(2), h)
    # 0's block member status travels through h: 5 now sits where 0 was
    assert eq_decide(eq, 5, 2)
    assert not eq_decide(eq, 0, 2)


def test_coproduct_relates_only_matching_indices():
    eq = CoproductEq(ConstantFamily(Modulo(2)))
    assert eq_decide(eq, pair(3, 0), pair(3, 2))
    assert not eq_decide(eq, pair(3, 0), pair(4, 0))
    assert not eq_decide(eq, pair(3, 0), pair(3, 1))


def test_cycle_eq_of_even_cycle():
    eq = CycleEqOf(even_zigzag(), "one_infinite")
    assert eq_decide(eq, 0, 8)
    assert not eq_decide(eq, 0, 3)
    assert not eq_decide(eq, 3, 5)


def test_cycle_eq_few_infinite_strategy():
    eq = CycleEqOf(even_zigzag(), "few_infinite", reps=[0])
    assert eq_decide(eq, 2, 6)
    assert not eq_decide(eq, 2, 7)


def test_cycle_eq_of_checks_strategy_and_witness_at_construction():
    with pytest.raises(ValueError):
        CycleEqOf(even_zigzag(), "bogus")
    with pytest.raises(TypeError):
        CycleEqOf(even_zigzag(), "attached")
    with pytest.raises(TypeError):
        CycleEqOf(even_zigzag(), "attached", witness=lambda x, y, fu=None: True)


def test_halting_blocks_ground_truth():
    from permdec import machine
    from permdec.machine import DECJZ, HALT, program
    eq = halting_equivalence("cf")
    halting = machine.encode_program(program((HALT,)))   # halts at step 1
    spin = machine.encode_program(program((DECJZ, 1, 0)))
    # before/after the halting step are different blocks
    assert not eq_decide(eq, pair(halting, 0), pair(halting, 1))
    assert eq_decide(eq, pair(halting, 1), pair(halting, 5))
    # a looping program keeps every step index in one block
    assert eq_decide(eq, pair(spin, 0), pair(spin, 17))


def test_is_isomorphism_on_window():
    from permdec import Identity, Transposition
    assert is_isomorphism_on_window(Identity(), Modulo(2), Modulo(2), 40)
    assert not is_isomorphism_on_window(Transposition(0, 1), Modulo(2),
                                        Modulo(2), 40)


def test_block_cache_enumeration():
    bc = BlockCache(Modulo(3))
    assert bc.least_rep(7) == 1
    assert bc.members_le(7) == [1, 4, 7]
    assert bc.next_greater(7) == 10
    assert bc.member_index(10) == 3
    assert bc.nth_member(1, 5) == 16


def test_block_cache_cap_on_missing_greater():
    bc = BlockCache(OpaqueEq(lambda x, y: x == y))
    fuel = Fuel(1000)
    with pytest.raises(FuelExhausted):
        bc.next_greater(3, fuel)
    assert fuel.used == 1000


def test_block_cache_least_rep_matches_and_is_memoised():
    for eq in (Modulo(3), Singletons()):
        bc = BlockCache(eq)
        for x in range(200):
            assert bc.least_rep(x) == least_representative(eq, x)

    # a first lookup tests the known reps <= x, then only the points <= x
    # whose least representative is unknown: here x itself
    singles = []
    bc = BlockCache(OpaqueEq(lambda x, y: singles.append((x, y)) or x == y))
    assert [bc.least_rep(x) for x in range(200)] == list(range(200))
    assert len(singles) == 200 * 201 // 2

    calls = []

    def mod3(x, y):
        calls.append((x, y))
        return x % 3 == y % 3

    bc = BlockCache(OpaqueEq(mod3))
    first = [bc.least_rep(x) for x in range(60)]
    assert first == [x % 3 for x in range(60)]
    seen = len(calls)
    assert [bc.least_rep(x) for x in range(60)] == first
    assert len(calls) == seen
    # members found by a block scan are known without a further decide
    assert bc.members_le(90) == list(range(0, 91, 3))
    seen = len(calls)
    assert [bc.least_rep(x) for x in range(60, 91, 3)] == [0] * 11
    assert len(calls) == seen


@pytest.mark.parametrize("eq", [Modulo(3), OpaqueEq(lambda x, y: x % 3 == y % 3)],
                         ids=["closed_form", "scanned"])
def test_the_lists_members_le_returns_are_copies(eq):
    bc = BlockCache(eq)
    got = bc.members_le(9)
    assert got == [0, 3, 6, 9]
    got.append(100)
    got.sort(reverse=True)
    got[0] = 1
    assert bc.members_le(9) == [0, 3, 6, 9]
    assert bc.member_index(9) == 3
    assert bc.nth_member(0, 4) == 12
    assert bc.members_le(12) == [0, 3, 6, 9, 12]


def _power_distances(f, x, y, bound):
    """Every |k| <= bound with f^k(x) = y, by walking the cycle both ways."""
    out = set()
    fwd = bwd = x
    for k in range(bound + 1):
        if fwd == y or bwd == y:
            out.add(k)
        fwd, bwd = perm_eval(f, fwd), perm_eval_inv(f, bwd)
    return out


@pytest.mark.parametrize("x, y", [(4, 14), (0, 3)])
def test_pi_xy_matches_brute_force_on_even_zigzag(x, y):
    g = even_zigzag()
    hits = _power_distances(g, x, y, 19)
    # (4, 14) share the evens cycle at distance 5; 3 is odd, hence fixed
    assert hits == ({5} if y == 14 else set())
    pairs = [(i, j) for i in range(20) for j in range(20)]
    for order in (pairs, pairs[::-1]):
        eq = PiXY(g, x, y)
        for i, j in order:
            expected = i == j or not any(k <= max(i, j) for k in hits)
            assert eq_decide(eq, i, j) == expected, (i, j)


# the 5-cycle (0 1 2 3 4), the 3-cycle (6 8 10) and the 2-cycle (12 13);
# every other point fixed
CYCLES = FinitaryProduct([(0, 1), (1, 2), (2, 3), (3, 4), (6, 8), (8, 10), (12, 13)])


@pytest.mark.parametrize("x, y, hits", [
    (5, 7, set()),                   # x a fixed point
    (0, 8, set()),                   # x and y on different finite cycles
    (1, 4, {k for k in range(26) if k % 5 in (2, 3)}),  # one cycle
    (12, 13, set(range(1, 26, 2))),  # y = f(x) on a 2-cycle: hit as it closes
], ids=["fixed_point", "other_cycle", "one_cycle", "two_cycle"])
def test_pi_xy_matches_brute_force_on_closed_orbits(x, y, hits):
    assert _power_distances(CYCLES, x, y, 25) == hits
    pairs = [(i, j) for i in range(26) for j in range(26)]
    for order in (pairs, pairs[::-1]):
        eq = PiXY(CYCLES, x, y)
        for i, j in order:
            expected = i == j or not any(k <= max(i, j) for k in hits)
            assert eq_decide(eq, i, j) == expected, (i, j)


class _CountedSteps(PermExpr):
    """f, counting the fwd and bwd steps taken through it."""

    kind = "counted"

    def __init__(self, f):
        self.f = f
        self.steps = 0

    def fwd(self, x, fuel):
        self.steps += 1
        return self.f.fwd(x, fuel)

    def bwd(self, x, fuel):
        self.steps += 1
        return self.f.bwd(x, fuel)


def test_pi_xy_stops_walking_at_a_closed_orbit():
    f = _CountedSteps(CYCLES)
    eq = PiXY(f, 0, 8)  # 8 is off the 5-cycle of 0
    assert eq_decide(eq, 0, 500)
    # the walk closes at the period: one step each way per power
    assert f.steps <= 2 * 5
    seen = f.steps
    assert eq_decide(eq, 10**6, 3)
    assert eq._least_rep(10**6, Fuel()) == 0
    assert eq._next_member(10**6, Fuel()) == 10**6 + 1
    assert BlockCache(eq).nth_member(0, 300) == 300
    assert f.steps == seen


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=300))
def test_modulo_is_an_equivalence(m, x, y):
    eq = Modulo(m)
    assert eq_decide(eq, x, x)
    assert eq_decide(eq, x, y) == eq_decide(eq, y, x)
