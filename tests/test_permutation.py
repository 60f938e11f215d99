import dataclasses
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from permdec import (
    Compose,
    DeltaSucc,
    FibersOf,
    FinitaryProduct,
    FromRho,
    Fuel,
    FuelExhausted,
    Identity,
    Inverse,
    Modulo,
    NormalFromSet,
    OpaqueEq,
    OrbitCache,
    PiecewiseResidue,
    PreconditionViolation,
    Rule,
    SeminormalFromRho,
    TableThenIdentity,
    Transposition,
    TranspositionTimes,
    eta_decode,
    eta_encode,
    even_zigzag,
    normal_min,
    orbit_window,
    perm_eval,
    perm_eval_inv,
    perm_power,
    seminormal_from_rho,
    window_bijection_check,
)
from permdec.core import delta_inv
from permdec.permutation import normal_index


def test_even_zigzag_pinned_values():
    g = even_zigzag()
    assert perm_eval(g, 2) == 0
    assert perm_eval(g, 0) == 4
    assert perm_eval(g, 6) == 2
    assert perm_eval(g, 4) == 8
    assert all(perm_eval(g, x) == x for x in range(1, 40, 2))


def test_even_zigzag_orbit_rows():
    g = even_zigzag()
    assert orbit_window(g, 0, 5) == [(0, 0), (-1, 2), (1, 4), (-2, 6), (2, 8)]


def test_delta_succ_single_cycle():
    d = DeltaSucc()
    # one cycle visiting ..., 5, 3, 1, 0, 2, 4, 6, ...
    assert [perm_eval(d, x) for x in (1, 3, 5, 0, 2, 4)] == [0, 1, 3, 2, 4, 6]
    assert perm_eval_inv(d, 0) == 1
    assert perm_eval_inv(d, 3) == 5
    assert window_bijection_check(d, 500)


def test_perm_power_both_directions():
    g = even_zigzag()
    assert perm_power(g, 0, 2) == 8
    assert perm_power(g, 0, -2) == 6
    # all three refuse a point off the naturals, as they act on naturals only
    for call in (lambda: perm_power(Identity(), -5, 3), lambda: perm_eval(g, -5),
                 lambda: perm_eval_inv(g, -5)):
        with pytest.raises(ValueError, match="naturals"):
            call()


def test_finitary_product_rightmost_first():
    p = FinitaryProduct([(0, 1), (1, 2)])
    # apply (1 2) then (0 1): 1 -> 2, 2 -> 1 -> 0, 0 -> 1... check pointwise
    assert perm_eval(p, 1) == 2
    assert perm_eval(p, 2) == 0
    assert perm_eval(p, 0) == 1
    assert perm_eval_inv(p, perm_eval(p, 5)) == 5


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8),
       st.integers(0, 60))
def test_finitary_product_is_a_bijection(ts, x):
    p = FinitaryProduct(ts)
    assert perm_eval_inv(p, perm_eval(p, x)) == x


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=10))
def test_eta_roundtrip(ts):
    z = eta_encode(ts)
    assert eta_decode(z).transpositions == ts


@pytest.mark.parametrize("n", [17, 18])
def test_eta_roundtrip_of_long_products(n):
    # each transposition doubles the code: 18 of them make ~3.1 million bits
    ts = [(a, 89 - a) for a in range(n)]
    z = eta_encode(ts)
    assert z.bit_length() > 1_500_000
    assert eta_decode(z).transpositions == ts


def test_piecewise_rejects_visible_non_bijection():
    with pytest.raises(ValueError):
        # evens shift onto the odds, colliding with the identity default
        PiecewiseResidue([Rule(2, 0, "affine", 1, 1)])


def test_piecewise_const_needs_point_match():
    with pytest.raises(ValueError):
        PiecewiseResidue([Rule(2, 0, "const", 0, 7)])


@pytest.mark.parametrize("modulus, residue", [(-2, 0), (3, 3), (3, -1), (0, -1)])
def test_rule_refuses_a_branch_that_can_never_match(modulus, residue):
    with pytest.raises(ValueError):
        Rule(modulus, residue, "affine", 1, 0)


@pytest.mark.parametrize("rules, why", [
    # 20000 -> 20001, and 20001 fixed: a point far past a 10000-point window
    ([Rule(0, 20_000, "const", 0, 20_001)], "20001 and 20000 both map to 20001"),
    # a 3-cycle on 20000..20002 with one arrow bent back
    ([Rule(0, 20_000, "const", 0, 20_001), Rule(0, 20_001, "const", 0, 20_000),
      Rule(0, 20_002, "const", 0, 20_000)], "20001 and 20002 both map to 20000"),
    ([Rule(2, 0, "affine", 2, 0), Rule(2, 1, "affine", 2, 1)], "a = 2"),
    ([Rule(1, 0, "affine", 1, 1)], "no class reaches 1 of the naturals"),
    # a far shift: the naturals it leaves unhit are counted, not listed
    ([Rule(1, 0, "affine", 1, 10**15)], "no class reaches 1000000000000000 of"),
    ([Rule(0, 1, "const", 0, 0), Rule(1, 0, "affine", 1, 1)], "nothing maps to 2"),
    ([Rule(1, 0, "affine", 1, -1)], "0 below zero"),
    ([Rule(0, 3, "affine", -1, 0)], "3 below zero"),
    # the predecessor with 0 and 5 both sent to 4: as many points left
    # unhit (4) as there are points once the collision is counted once
    ([Rule(0, 0, "const", 0, 4), Rule(0, 5, "const", 0, 4), Rule(1, 0, "affine", 1, -1)],
     "0 and 5 both map to 4"),
], ids=["far_point", "far_swap_broken", "doubling", "successor", "far_shifts",
        "successor_with_a_point", "predecessor",
        "negative_point_image", "two_points_one_image"])
def test_piecewise_decision_is_exact(rules, why):
    with pytest.raises(ValueError, match=why):
        PiecewiseResidue(rules)


def test_piecewise_accepts_far_points_and_evaluates_both_ways():
    # a swap of two odd points far past 10000, beside the even zig-zag
    far = 10**12 + 1
    p = PiecewiseResidue([Rule(0, far, "const", 0, far + 6),
                          Rule(0, far + 6, "const", 0, far)] + even_zigzag().rules)
    assert perm_eval(p, far) == far + 6 and perm_eval(p, far + 6) == far
    assert perm_eval_inv(p, far) == far + 6
    assert perm_eval(p, far - 1) == far + 3
    assert perm_eval(p, 2) == 0 and perm_eval_inv(p, 0) == 2
    assert window_bijection_check(p, 500)


def test_piecewise_lcm_above_the_budget_fails_at_once():
    # 1009 * 1013 * 1019 classes: far above the default budget of 10**7
    rules = [Rule(m, 0, "affine", 1, 0) for m in (1009, 1013, 1019)]
    start = time.perf_counter()
    with pytest.raises(FuelExhausted, match="lcm of the moduli is 1041537223"):
        PiecewiseResidue(rules)
    assert time.perf_counter() - start < 1.0


def test_piecewise_check_window_is_kept_but_not_read():
    rules = [Rule(2, 0, "affine", 1, 1)]   # no bijection
    for window in (0, 1, 10_000):
        with pytest.raises(ValueError):
            PiecewiseResidue(rules, check_window=window)
    assert PiecewiseResidue(even_zigzag().rules, check_window=0).check_window == 0


def _first_match(rules):
    def f(x):
        for r in rules:
            if r.matches(x):
                return r.image(x)
        return x
    return f


@st.composite
def _rule_lists(draw):
    """A permutation of the classes mod m with shifts, the points it sends
    below 0 paired with the points it leaves unhit, then point swaps; some
    lists mutated after that.  The shifts sum to m times the number of
    points left unhit less the number sent below 0, so a drift of 0 lets
    the pairing close, and a drift of 1 or -1 leaves one point unpaired."""
    m = draw(st.integers(1, 6))
    target = draw(st.permutations(range(m)))
    laps = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    laps[-1] -= sum(laps) - draw(st.sampled_from([0, 0, 0, 1, -1]))
    shift = [target[c] - c + m * k for c, k in enumerate(laps)]
    ishift = {(c + b) % m: b for c, b in enumerate(shift)}
    reach = max(map(abs, shift))
    below = [x for x in range(reach) if x + shift[x % m] < 0]
    unhit = [y for y in range(reach) if y - ishift[y % m] < 0]
    rules = [Rule(m, c, "affine", 1, b) for c, b in enumerate(shift)]
    rules = [Rule(0, x, "const", 0, y) for x, y in zip(below, unhit)] + rules
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        f = _first_match(rules)
        rules = [Rule(0, p, "const", 0, f(q)),
                 Rule(0, q, "affine", 1, f(p) - q)] + rules
    for _ in range(draw(st.integers(0, 2))):
        if not rules:
            break
        i = draw(st.integers(0, len(rules) - 1))
        r = rules[i]
        how = draw(st.sampled_from(["shift", "scale", "drop", "insert", "alias"]))
        if how == "shift":
            rules[i] = dataclasses.replace(r, b=r.b + draw(st.sampled_from([-m, -1, 1, m])))
        elif how == "scale" and r.kind == "affine":
            rules[i] = dataclasses.replace(r, a=draw(st.sampled_from([-1, 2, 3])))
        elif how == "drop":
            del rules[i]
        elif how == "insert":
            mod = draw(st.integers(0, 6))
            res = draw(st.integers(0, mod - 1 if mod else 40))
            # at the end too, where the rules before it may shadow it
            rules.insert(draw(st.integers(i, len(rules))),
                         Rule(mod, res, "affine", 1, draw(st.integers(-6, 6)))
                         if mod else Rule(0, res, "const", 0, draw(st.integers(0, 40))))
        elif how == "alias":
            # one more point sent where a point rule already sends its point
            q = draw(st.sampled_from([r.residue for r in rules if not r.modulus] or [0]))
            rules.insert(0, Rule(0, draw(st.integers(0, 40)), "const", 0,
                                 _first_match(rules)(q)))
    return rules


@settings(max_examples=300, deadline=None)
@given(_rule_lists())
def test_piecewise_decision_agrees_with_brute_force(rules):
    f = _first_match(rules)
    L = math.lcm(*(r.modulus for r in rules if r.modulus))
    P = {r.residue for r in rules if r.modulus == 0}
    B = max((abs(r.b) for r in rules), default=0)
    top = max([0, *P, *map(f, P)])
    # a refused map breaks within these windows: a class under a != 1
    # leaves one of the first Y naturals unhit, and every preimage of
    # those lies below W; past P, the translations repeat with period L
    Y = top + 1 + 4 * L * (len(P) + L + B + 1)
    W = top + Y + B + 1
    images = [f(x) for x in range(W)]
    broken = (min(images) < 0 or len(set(images)) < W
              or not set(range(Y)) <= set(images))
    try:
        p = PiecewiseResidue(rules)
    except ValueError:
        assert broken
        return
    assert not broken
    fuel = Fuel()
    assert [p.fwd(x, fuel) for x in range(W)] == images
    assert window_bijection_check(p, W)


def test_compose_and_inverse():
    g = even_zigzag()
    c = Compose(g, Inverse(g))
    assert all(perm_eval(c, x) == x for x in range(50))
    t = TranspositionTimes(0, 4, g)
    assert perm_eval(t, 0) == 0  # g sends 0 to 4, the swap sends it back
    assert perm_eval(t, 2) == 4


def test_normal_from_set_zigzags_over_the_evens():
    evens = OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))
    p = NormalFromSet(evens, 0)
    assert perm_eval(p, 0) == 4
    assert perm_eval(p, 2) == 0
    assert perm_eval(p, 4) == 8
    assert perm_eval(p, 3) == 3
    assert perm_eval_inv(p, 0) == 2


def test_from_rho_infinite_block_matches_even_zigzag():
    evens = OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))
    p = FromRho(evens, lambda y: y % 2 == 0)
    g = even_zigzag()
    assert all(perm_eval(p, x) == perm_eval(g, x) for x in range(100))
    assert all(perm_eval_inv(p, x) == perm_eval_inv(g, x) for x in range(100))


def test_from_rho_three_element_block():
    block = (1, 3, 5)
    eq = OpaqueEq(lambda x, y: x == y or (x in block and y in block))
    p = FromRho(eq, lambda y: y in (1, 3))
    assert perm_eval(p, 1) == 5
    assert perm_eval(p, 5) == 3
    assert perm_eval(p, 3) == 1
    assert perm_eval(p, 7) == 7
    assert perm_eval_inv(p, 5) == 1


def test_from_rho_pairs_become_transpositions():
    eq = OpaqueEq(lambda x, y: x // 2 == y // 2)
    p = FromRho(eq, lambda y: y % 2 == 0)
    for k in range(0, 20, 2):
        assert perm_eval(p, k) == k + 1
        assert perm_eval(p, k + 1) == k
    assert window_bijection_check(p, 200)


def test_seminormal_from_rho_finite_blocks_increase():
    eq = OpaqueEq(lambda x, y: x // 3 == y // 3)
    p = SeminormalFromRho(eq, lambda x: 3)
    assert perm_eval(p, 0) == 1
    assert perm_eval(p, 1) == 2
    assert perm_eval(p, 2) == 0
    assert window_bijection_check(p, 120)


def test_seminormal_from_rho_walks_finite_blocks_as_increasing_cycles():
    # blocks {0, 1, 9}, {2, 12}, {20, 22}, {21, 30}; 3 <-> 5 swap labels
    table = {0: 9, 1: 9, 3: 5, 5: 3, 8: 8, 12: 2, 20: 21, 21: 30, 22: 21}
    label = TableThenIdentity(table)
    window = 40  # every label lies below it
    blocks: dict[int, list[int]] = {}
    for x in range(window):
        blocks.setdefault(label(x), []).append(x)
    size = {x: len(b) for b in blocks.values() for x in b}
    p = seminormal_from_rho(FibersOf(label), lambda x: size[x])
    for x in range(window):
        block = blocks[label(x)]
        cycle = [x]
        while perm_eval(p, cycle[-1]) != x:
            cycle.append(perm_eval(p, cycle[-1]))
        i = block.index(x)
        assert cycle == block[i:] + block[:i], x
        assert perm_eval_inv(p, x) == block[i - 1], x
    # a rho that undercounts a block is caught, not read past
    short = seminormal_from_rho(FibersOf(label), lambda x: size[x] - 1)
    assert perm_eval(short, 0) == 1
    with pytest.raises(PreconditionViolation):
        perm_eval(short, 9)
    # and so it is where the cycle minimum is read without a step
    assert normal_min(short, 1) == 0
    with pytest.raises(PreconditionViolation):
        normal_min(short, 9)


def test_seminormal_from_rho_infinite_block_is_normal():
    eq = Modulo(2)
    p = SeminormalFromRho(eq, lambda x: 0)
    evens = OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))
    q = FromRho(evens, lambda y: y % 2 == 0)
    assert all(perm_eval(p, x) == perm_eval(q, x) for x in range(0, 60, 2))


def test_orbit_cache_find_k():
    g = even_zigzag()
    oc = OrbitCache(g)
    assert oc.find_k(0, 8) == 2
    assert oc.find_k(0, 6) == -2
    with pytest.raises(FuelExhausted):
        OrbitCache(Identity()).find_k(0, 1, Fuel(50))


def test_orbit_cache_find_one_unit_per_power_and_first():
    oc = OrbitCache(even_zigzag())   # its steps spend no fuel
    fuel = Fuel(100)
    assert oc.find(0, lambda v: v == 8, fuel) == 2
    assert fuel.used == 5            # k = 0, -1, 1, -2, 2
    fuel = Fuel(4)
    with pytest.raises(FuelExhausted):
        oc.find(0, lambda v: v == 8, fuel)
    assert fuel.used == 4
    swap = OrbitCache(Transposition(0, 1))
    fuel = Fuel(100)
    assert swap.find(0, lambda v: v == 0, fuel) == 0
    assert fuel.used == 1
    fuel = Fuel(100)
    assert swap.find(0, lambda v: v == 0, fuel, first=1) == -2
    assert fuel.used == 3            # k = -1, 1, -2
    fuel = Fuel(100)
    assert oc.find(0, lambda v: v == 8, fuel, first=4) == 2
    assert fuel.used == 1


def _walk(k, n, steps):
    step = 1 if steps > 0 else -1
    for _ in range(abs(steps)):
        k = normal_index(k, n, step)
    return k


def test_normal_index_is_the_normal_order():
    # a normal cycle's minimum (index 0) reaches member j after
    # delta_inv(j) steps, and a step back undoes a step forward
    for n in range(1, 41):
        for j in range(n):
            assert _walk(0, n, delta_inv(j)) == j, (n, j)
            assert normal_index(normal_index(j, n, 1), n, -1) == j
    for j in range(200):
        assert _walk(0, None, delta_inv(j)) == j
        assert normal_index(normal_index(j, None, 1), None, -1) == j


def test_from_rho_follows_normal_index_on_finite_blocks():
    # blocks of sizes 1..12 laid out as consecutive intervals
    starts = [0]
    for n in range(1, 13):
        starts.append(starts[-1] + n)

    def block(x):
        return next((i for i in range(12) if x < starts[i + 1]), 12)

    eq = OpaqueEq(lambda x, y: block(x) == block(y))
    p = FromRho(eq, lambda x: block(x + 1) == block(x))
    for n in range(1, 13):
        a = list(range(starts[n - 1], starts[n]))
        for k, x in enumerate(a):
            assert perm_eval(p, x) == a[normal_index(k, n, 1)], (n, k)
            assert perm_eval_inv(p, x) == a[normal_index(k, n, -1)], (n, k)


def test_window_bijection_check_flags_bad_maps():
    class Broken(Identity):
        def fwd(self, x, fuel):
            return 0
    assert not window_bijection_check(Broken(), 10)
