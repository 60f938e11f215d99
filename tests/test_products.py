import pytest
from hypothesis import example, given, settings, strategies as st

from permdec import (
    FinitaryProduct,
    Fuel,
    FuelExhausted,
    Identity,
    Modulo,
    Singletons,
    Transposition,
    TranspositionTimes,
    eta_encode,
    even_zigzag,
    perm_eval,
    perm_eval_inv,
)
from permdec import cycles as cyc
from permdec import products as pr
from permdec import selfcheck as sc


def _truth_decider(p, steps=400):
    memo = {}

    def related(u, v):
        if u == v:
            return True
        if u not in memo:
            seen = {u}
            a = b = u
            for _ in range(steps):
                a = perm_eval(p, a)
                b = perm_eval_inv(p, b)
                seen.add(a)
                seen.add(b)
                if a == u:
                    break
            memo[u] = seen
        return v in memo[u]

    return related


def _zig_witness():
    return cyc.decider_one_infinite(even_zigzag())


def _zig_cf(x):
    return x % 2 == 1  # odds are fixed points, evens share the infinite cycle


def test_split_same_infinite_cycle():
    # (0 8) after the even cycle cuts out the finite segment between 0 and 8
    g = even_zigzag()
    w, cf = pr.transposition_times_cf(0, 8, g, _zig_witness(), _zig_cf)
    p = TranspositionTimes(0, 8, g)
    truth = _truth_decider(p)
    for u in range(0, 18):
        for v in range(0, 18):
            assert w.payload(u, v) == truth(u, v), (u, v)
    # the carved-out segment is finite, the remainder is not
    seg = {u for u in range(0, 200, 2) if w.payload(u, 4)}
    assert all(cf(u) for u in seg)
    assert not cf(0) or 0 in seg  # exactly one of the two pieces is infinite


def test_fuse_two_finite_cycles():
    f = FinitaryProduct([(0, 1), (1, 2), (5, 6)])  # 3-cycle and a 2-cycle
    base = cyc.decider_one_infinite(f)
    w, cf = pr.transposition_times_cf(0, 5, f, base, lambda x: True)
    p = TranspositionTimes(0, 5, f)
    truth = _truth_decider(p)
    for u in range(10):
        for v in range(10):
            assert w.payload(u, v) == truth(u, v), (u, v)
    assert all(cf(u) for u in range(10))


def test_fuse_fixed_point_into_infinite_cycle():
    g = even_zigzag()
    w, cf = pr.transposition_times_cf(0, 3, g, _zig_witness(), _zig_cf)
    p = TranspositionTimes(0, 3, g)
    truth = _truth_decider(p)
    for u in range(14):
        for v in range(14):
            assert w.payload(u, v) == truth(u, v), (u, v)
    assert not cf(3)   # 3 now rides the infinite cycle
    assert cf(5)


def test_finitary_product_identity_codes():
    g = even_zigzag()
    expr, w, cf = pr.finitary_product(
        eta_encode([]), g, eta_encode([]), _zig_witness(), _zig_cf)
    assert all(perm_eval(expr, x) == perm_eval(g, x) for x in range(30))
    assert w.payload(0, 8) and not w.payload(0, 3)
    assert cf(3) and not cf(0)


def test_finitary_product_cancelling_codes():
    code = eta_encode([(0, 1), (2, 3)])
    base = cyc.decider_one_infinite(Identity())
    expr, w, cf = pr.finitary_product(
        code, Identity(), code, base, lambda x: True)
    # a * id * a = id, so the cycle partition is all singletons
    for u in range(8):
        for v in range(8):
            assert w.payload(u, v) == (u == v), (u, v)
    assert all(cf(u) for u in range(8))
    assert all(perm_eval(expr, x) == x for x in range(20))


def test_finitary_product_general():
    g = even_zigzag()
    a = eta_encode([(0, 3)])
    b = eta_encode([(1, 2)])
    expr, w, cf = pr.finitary_product(a, g, b, _zig_witness(), _zig_cf)
    p_truth = _truth_decider(expr)
    for u in range(12):
        for v in range(12):
            assert w.payload(u, v) == p_truth(u, v), (u, v)


def test_cf_from_product_deciders():
    g = even_zigzag()

    def uniform(x, y):
        return pr.transposition_times_cf(x, y, g, _zig_witness(), _zig_cf)[0].payload

    cf = pr.cf_from_product_deciders(g, _zig_witness(), uniform, 0)
    assert cf(3) and cf(7)
    assert not cf(0) and not cf(8)
    assert cf(3, Fuel()) and not cf(8, Fuel())
    cf_all = pr.cf_from_product_deciders(Identity(), _zig_witness(), uniform, None)
    assert cf_all(123)
    # every finiteness procedure takes an optional fuel, this one too
    assert cf_all(3, Fuel())


def test_a_cf_calling_an_infinite_cycle_finite_runs_out_of_fuel():
    # 0 rides the infinite even cycle: its walk never closes
    g = even_zigzag()
    _, cf = pr.transposition_times_cf(0, 3, g, cyc.decider_one_infinite(g), lambda x: True)
    with pytest.raises(FuelExhausted):
        cf(0, Fuel(1000))


def test_a_second_product_over_one_base_walks_nothing():
    # both sigma supports meet the 5-cycle (0 1 2 3 4) of the base, first
    # at 0: the second product reads the cycle the first one walked
    f = FinitaryProduct([(0, 1), (1, 2), (2, 3), (3, 4)])
    steps = []
    fwd = f.fwd
    f.fwd = lambda x, fu: steps.append(x) or fwd(x, fu)
    counts = []
    for a in ([(0, 2)], [(0, 3)]):
        expr, w, _ = pr.finitary_product(eta_encode(a), f, eta_encode([]),
                                         cyc.decider_one_infinite(f), lambda x: True)
        steps.clear()
        answers = [w.payload(u, v) for u in range(8) for v in range(8)]
        counts.append(len(steps))
        truth = _truth_decider(expr)   # walks f itself
        assert answers == [truth(u, v) for u in range(8) for v in range(8)]
    assert counts[0] > 0 and counts[1] == 0


def _budget_product():
    # the 3-cycle (1 3 5) beside the evens, with points of S on both
    f = sc.three_cycle_evens()
    _, w, cf = pr.finitary_product(eta_encode([(0, 3), (1, 8)]), f,
                                   eta_encode([(5, 2), (4, 10)]),
                                   cyc.decider_one_infinite(f), lambda x: x % 2 == 1)
    return ([lambda fu, x=x, y=y: w.payload(x, y, fu) for x in range(12) for y in range(12)]
            + [lambda fu, x=x: cf(x, fu) for x in range(12)])


def test_small_budgets_answer_right_or_run_out():
    expected = [q(Fuel()) for q in _budget_product()]
    queries = _budget_product()
    ran_out = 0
    for budget in range(40):
        for q, want in zip(queries, expected):
            try:
                got = q(Fuel(budget))
            except FuelExhausted:
                ran_out += 1
                continue
            assert got == want
    assert ran_out
    # whatever ran out part-way left the memos sound
    assert [q(Fuel()) for q in queries] == expected


def _product_fixture(kind, f_ts):
    # the five fixtures of the selfcheck products criterion
    if kind == 0:
        f = FinitaryProduct(f_ts)
        return f, sc._finitary_eq(f), lambda x: True
    if kind == 1:
        return Identity(), Singletons(), lambda x: True
    if kind == 2:
        return even_zigzag(), sc.evens_block_eq(), lambda x: x % 2 == 1
    if kind == 3:
        return sc.evens_odds(), Modulo(2), lambda x: False
    return sc.three_cycle_evens(), sc.three_cycle_evens_eq(), lambda x: x % 2 == 1


PAIRS = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), PAIRS, PAIRS, PAIRS)
# several points of S on one finite cycle
@example(0, [(0, 2), (4, 1)], [(1, 3)], [(0, 1), (1, 2), (2, 3), (3, 4)])
@example(4, [(1, 5), (3, 7)], [(5, 0)], [])
# several points of S on one infinite cycle, and the two infinite cycles
# of the evens and the odds recombined
@example(2, [(0, 4), (2, 6)], [(8, 10)], [])
@example(3, [(0, 1), (4, 3)], [(2, 5)], [])
def test_finitary_product_matches_brute_force(kind, a_ts, b_ts, f_ts):
    f, eq, f_cf = _product_fixture(kind, f_ts)
    expr, w, cf = pr.finitary_product(eta_encode(a_ts), f, eta_encode(b_ts),
                                      cyc.eq_witness(eq, f), f_cf)
    pts = sorted(set(range(24)) | {p for t in a_ts + b_ts for p in t})
    related, finite = sc._ground_truth(lambda x: perm_eval(expr, x),
                                       lambda x: perm_eval_inv(expr, x), pts)
    for x in pts:
        assert cf(x) == finite(x), x
        for y in pts:
            assert w.payload(x, y) == related(x, y), (x, y)
