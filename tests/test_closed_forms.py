"""Closed-form block answers, and the block state a relation node shares.

A relation kind with _least_rep/_next_member must answer every BlockCache
question as a scan with its own decider does, and as the brute-force
least_representative does.  The scan is run through an OpaqueEq of the same
decider, which has no closed form.
"""

import gc
import weakref

import pytest

from permdec import (
    BlockCache,
    CycleEqOf,
    EqExpr,
    FibersOf,
    FinitaryProduct,
    FromRho,
    Fuel,
    FuelExhausted,
    Full,
    HaltingLabel,
    Modulo,
    OpaqueEq,
    PiXY,
    PreconditionViolation,
    RhoConst,
    Singletons,
    TableThenIdentity,
    decider_from_normal,
    even_zigzag,
    least_representative,
    normalize,
    perm_eval,
    perm_eval_inv,
    witness_to_eq,
)
from permdec import gadgets as gd

WINDOW = 40
SCAN_FUEL = 200  # every next member in the window lies closer
HALTS_AT_17 = dict(gd.halting_fixtures())["drain-own-code"]
LOOPS = dict(gd.looping_fixtures())["spin"]
# label 9 is no key, 5 and 21 are keys, 3 <-> 5 swap, 8 is a fixed key
TABLE = {0: 9, 1: 9, 3: 5, 5: 3, 8: 8, 12: 2, 20: 21, 21: 30, 22: 21}
NORMAL = FromRho(Modulo(3), RhoConst(True))
ZIG = even_zigzag()

CLOSED_FORMS = [
    ("singletons", Singletons),
    ("full", Full),
    ("modulo_1", lambda: Modulo(1)),
    ("modulo_4", lambda: Modulo(4)),
    ("table", lambda: FibersOf(TableThenIdentity(TABLE))),
    ("halting_cf_halts", lambda: FibersOf(HaltingLabel("cf", HALTS_AT_17))),
    ("halting_cf_loops", lambda: FibersOf(HaltingLabel("cf", LOOPS))),
    ("halting_np_halts", lambda: FibersOf(HaltingLabel("nonpermutable", HALTS_AT_17))),
    ("halting_np_loops", lambda: FibersOf(HaltingLabel("nonpermutable", LOOPS))),
    ("pi_xy_related", lambda: PiXY(ZIG, 4, 14)),
    ("pi_xy_unrelated", lambda: PiXY(ZIG, 0, 3)),
    ("pi_xy_same_point", lambda: PiXY(ZIG, 4, 4)),
    ("cycle_eq_normal", lambda: CycleEqOf(ZIG, "normal")),
    ("cycle_eq_min_rep", lambda: witness_to_eq(decider_from_normal(NORMAL))),
]


def _next_or_out(bc, x, budget):
    fuel = Fuel(budget)
    try:
        return bc.next_greater(x, fuel)
    except FuelExhausted:
        assert fuel.used == budget
        return FuelExhausted


@pytest.mark.parametrize("make", [m for _, m in CLOSED_FORMS],
                         ids=[name for name, _ in CLOSED_FORMS])
def test_closed_forms_match_the_scan(make):
    eq = make()
    assert eq._least_rep is not None
    plain = make()
    scan = BlockCache(OpaqueEq(lambda x, y: plain._decide(x, y, Fuel())))
    fast = BlockCache(eq)
    for x in range(WINDOW):
        lr = scan.least_rep(x)
        assert fast.least_rep(x) == lr == least_representative(make(), x), x
        assert fast.members_le(x) == scan.members_le(x), x
        assert fast.member_index(x) == scan.member_index(x), x
        # past a block's last member the scan runs out of fuel; so must the
        # closed form, at once
        assert _next_or_out(fast, x, SCAN_FUEL) == _next_or_out(scan, x, SCAN_FUEL), x
    for lr in range(WINDOW):
        block = [y for y in range(WINDOW) if scan.least_rep(y) == lr]
        for j, y in enumerate(block):
            assert fast.nth_member(lr, j) == y, (lr, j)
    # from the top down, no point's least rep is known from a listed block
    cold = BlockCache(make())
    for x in reversed(range(WINDOW)):
        assert cold.least_rep(x) == scan.least_rep(x), x


def test_the_closed_forms_cover_the_listed_kinds():
    assert FibersOf(TableThenIdentity({}))._next_member is not None
    assert PiXY(ZIG, 0, 3)._next_member is not None
    # a decider-only relation, and the halting labels' members, are scanned
    assert OpaqueEq(lambda x, y: x == y)._least_rep is None
    assert CycleEqOf(ZIG, "one_infinite")._least_rep is None
    assert FibersOf(HaltingLabel("cf", LOOPS))._next_member is None


def test_a_closed_form_charges_one_unit_per_listed_member():
    bc = BlockCache(Modulo(3))
    fuel = Fuel()
    assert bc.members_le(30, fuel) == list(range(0, 31, 3))
    assert fuel.used == 10  # 3, 6, ..., 30; the least rep itself is free
    bc.members_le(30, fuel)
    assert fuel.used == 10
    with pytest.raises(FuelExhausted):
        BlockCache(Modulo(3)).members_le(30, Fuel(4))


def test_no_member_above_spends_the_rest_at_once():
    # a scan would test a billion points; the closed form knows at once
    fuel = Fuel(10**9)
    fuel.used = 7
    with pytest.raises(FuelExhausted, match=r"singletons.* 5 "):
        BlockCache(Singletons()).next_greater(5, fuel)
    assert fuel.used == 10**9
    table = BlockCache(FibersOf(TableThenIdentity(TABLE)))
    fuel = Fuel(2)
    assert table.next_greater(1, fuel) == 9
    assert fuel.used == 2  # listed 1, then 9
    with pytest.raises(PreconditionViolation, match=r"fibers_of.* 9 "):
        table.next_greater(9, Fuel(None))
    with pytest.raises(PreconditionViolation, match=r"pi_xy.* 4 "):
        BlockCache(PiXY(ZIG, 4, 14)).next_greater(4, Fuel(None))


@pytest.mark.parametrize("make_f", [even_zigzag, lambda: FromRho(Modulo(3), RhoConst(True))],
                         ids=["zigzag", "from_rho_mod_3"])
def test_the_normal_strategy_is_the_min_rep_witness(make_f):
    # one code path: the same answers, and the same fuel per decide (a
    # FromRho subject spends fuel listing its blocks)
    by_strategy = CycleEqOf(make_f(), "normal")
    by_witness = witness_to_eq(decider_from_normal(make_f()))
    spent = []
    for eq in (by_strategy, by_witness):
        answers, used = [], []
        for x, y in [(0, 2000), (0, 2001), (3, 3000), (7, 8), (9, 0)]:
            fuel = Fuel()
            answers.append(eq._decide(x, y, fuel))
            used.append(fuel.used)
        spent.append((answers, used))
    assert spent[0] == spent[1]
    assert by_strategy._least_rep(2000, Fuel()) == by_witness._least_rep(2000, Fuel())


def _cycle_min_table(fp):
    table = {}
    for a, b in fp.transpositions:
        for p in (a, b):
            cyc, v = [p], perm_eval(fp, p)
            while v != p:
                cyc.append(v)
                v = perm_eval(fp, v)
            table[p] = min(cyc)
    return table


FIN = FinitaryProduct([(0, 1), (1, 2), (5, 9), (7, 11)])
# (relation, a permutation whose cycle partition it is)
SHARED = [
    ("modulo", lambda: (Modulo(3), NORMAL)),
    ("table", lambda: (FibersOf(TableThenIdentity(_cycle_min_table(FIN))), FIN)),
    ("one_infinite", lambda: (CycleEqOf(ZIG, "one_infinite"), ZIG)),
]


@pytest.mark.parametrize("make", [m for _, m in SHARED], ids=[n for n, _ in SHARED])
def test_dropping_a_normal_form_frees_its_relation(make):
    # without the cycle collector, only a node that points back at nothing
    # is freed: the block state on the node holds ints, never a cache
    gc.disable()
    try:
        eq, f = make()
        fp = normalize(f, None, eq=eq)
        for x in range(30):
            perm_eval(fp, x)
            perm_eval_inv(fp, x)
        assert EqExpr._blocks is None and eq._blocks is not None
        for part in eq._blocks:
            items = part.items() if isinstance(part, dict) else enumerate(part)
            for k, v in items:
                assert type(k) is int
                assert type(v) is int or all(type(m) is int for m in v)
        ref = weakref.ref(eq)
        del eq, fp
        assert ref() is None
    finally:
        gc.enable()


def test_normalize_scans_each_block_once():
    """FromRho and its RhoClosure ask one relation node: the RhoClosure's
    block questions cost no decide the FromRho did not already make."""
    def walk(fp):
        return [perm_eval(fp, x) for x in range(60)]

    counts = []
    for build in (lambda eq: FromRho(eq, RhoConst(True)),
                  lambda eq: normalize(NORMAL, None, eq=eq)):
        calls = []
        eq = OpaqueEq(lambda x, y: calls.append(1) or x % 3 == y % 3)
        assert walk(build(eq)) == walk(NORMAL)
        counts.append(len(calls))
        # a second consumer of the same node finds every block listed
        walk(build(eq))
        assert len(calls) == counts[-1]
    assert counts[1] == counts[0] > 0
