"""Closed-form block answers, and the block state a relation node shares.

A relation kind with _least_rep/_next_member must answer every BlockCache
question as a scan with its own decider does.  The scan is run through an
OpaqueEq of the same decider, which has no closed form.  So that the
decider is checked too, each fixture's least representatives are also
worked out without it (a walk of f's powers for PiXY, a fixture's known
cycles for a cycle relation); the brute-force least_representative stands
in only where no such reference is cheap.  A cycle relation's orbit probe, and a
coproduct's _least_rep, are held to the same answers, also where they give
None and leave a point to the scan.
"""

import gc
import weakref

import pytest

from permdec import (
    BlockCache,
    Compose,
    CycleEqOf,
    EqExpr,
    FibersOf,
    FinitaryProduct,
    FromRho,
    Fuel,
    FuelExhausted,
    Full,
    HaltingLabel,
    Identity,
    Modulo,
    OpaqueEq,
    PiXY,
    PreconditionViolation,
    RhoConst,
    Singletons,
    TableThenIdentity,
    decider_from_normal,
    even_zigzag,
    halting_equivalence,
    least_representative,
    normalize,
    pair,
    perm_eval,
    perm_eval_inv,
    perm_power,
    unpair,
    witness_to_eq,
)
from permdec import cycles as cyc
from permdec import gadgets as gd
from permdec.equivalence import _PROBE_STEPS, ConstantFamily, CoproductEq, PiXYFamily

WINDOW = 40
SCAN_FUEL = 200  # every next member in the window lies closer
HALTS_AT_17 = dict(gd.halting_fixtures())["drain-own-code"]
LOOPS = dict(gd.looping_fixtures())["spin"]
# label 9 is no key, 5 and 21 are keys, 3 <-> 5 swap, 8 is a fixed key
TABLE = {0: 9, 1: 9, 3: 5, 5: 3, 8: 8, 12: 2, 20: 21, 21: 30, 22: 21}
NORMAL = FromRho(Modulo(3), RhoConst(True))
ZIG = even_zigzag()
# ZIG's evens; the 3-cycle (1 5 9), the 17-cycle 7, 11, ..., 71, longer
# than the probe, and the 9-cycle 65, 69, ..., 97; 3, 13, 17, ... fixed
PROBED = Compose(ZIG, FinitaryProduct([(1, 5), (5, 9)]
                                      + [(p, p + 4) for p in range(7, 71, 4)]
                                      + [(p, p + 4) for p in range(65, 97, 4)]))
# the 5-cycle (0 1 2 3 4), the 3-cycle (6 8 10) and the 2-cycle (12 13);
# every other point fixed
CYCLES = FinitaryProduct([(0, 1), (1, 2), (2, 3), (3, 4), (6, 8), (8, 10), (12, 13)])


def _pi_xy_least(f, x, y):
    # h, the least |k| with f^k(x) = y, by walking the powers of f: the
    # blocks are {0, ..., h-1} and singletons from h on
    h = next((k for k in range(WINDOW + 1)
              if y in (perm_power(f, x, k), perm_power(f, x, -k))), None)
    return lambda i: 0 if h is None or i < h else i


def _halting_least(variant, h):
    # a run that halts after h steps (h None: never) labels n with
    # [halts within n steps]; "nonpermutable" shifts the labels by one and
    # pins label(0) to 1
    if variant == "cf":
        return lambda n: 0 if h is None or n < h else h
    return lambda n: 1 if 0 < n and (h is None or n <= h) else 0


def _table_least(x):
    label = TABLE.get(x, x)
    return next(y for y in range(x + 1) if TABLE.get(y, y) == label)


def _probed_least(x):
    # PROBED's cycles, as its comment lists them
    if x % 2 == 0:
        return 0
    if x in (1, 5, 9):
        return 1
    if x % 4 == 3 and 7 <= x <= 71:
        return 7
    if x % 4 == 1 and 65 <= x <= 97:
        return 65
    return x


def _coproduct_least(member_least):
    # pair(z, .) is increasing: the least code of <z, a>'s block is <z, r>
    # for r the least member of a's block in member z
    def least(n):
        z, a = unpair(n)
        return pair(z, member_least(z)(a))
    return least


# (name, fresh relation, the least representative of x worked out without
# the relation's decider, or None where no cheap one is at hand)
CLOSED_FORMS = [
    ("singletons", Singletons, lambda x: x),
    ("full", Full, lambda x: 0),
    ("modulo_1", lambda: Modulo(1), lambda x: 0),
    ("modulo_4", lambda: Modulo(4), lambda x: x % 4),
    ("table", lambda: FibersOf(TableThenIdentity(TABLE)), _table_least),
    ("halting_cf_halts", lambda: FibersOf(HaltingLabel("cf", HALTS_AT_17)),
     _halting_least("cf", 17)),
    ("halting_cf_loops", lambda: FibersOf(HaltingLabel("cf", LOOPS)),
     _halting_least("cf", None)),
    ("halting_np_halts", lambda: FibersOf(HaltingLabel("nonpermutable", HALTS_AT_17)),
     _halting_least("nonpermutable", 17)),
    ("halting_np_loops", lambda: FibersOf(HaltingLabel("nonpermutable", LOOPS)),
     _halting_least("nonpermutable", None)),
    ("pi_xy_related", lambda: PiXY(ZIG, 4, 14), _pi_xy_least(ZIG, 4, 14)),
    ("pi_xy_unrelated", lambda: PiXY(ZIG, 0, 3), _pi_xy_least(ZIG, 0, 3)),
    ("pi_xy_same_point", lambda: PiXY(ZIG, 4, 4), _pi_xy_least(ZIG, 4, 4)),
    # x's orbit closes: a fixed point, another cycle, and y on x's cycle
    ("pi_xy_closed_fixed_point", lambda: PiXY(CYCLES, 5, 7), _pi_xy_least(CYCLES, 5, 7)),
    ("pi_xy_closed_other_cycle", lambda: PiXY(CYCLES, 0, 8), _pi_xy_least(CYCLES, 0, 8)),
    ("pi_xy_closed_one_cycle", lambda: PiXY(CYCLES, 1, 4), _pi_xy_least(CYCLES, 1, 4)),
    ("pi_xy_closed_two_cycle", lambda: PiXY(CYCLES, 12, 13), _pi_xy_least(CYCLES, 12, 13)),
    # ZIG's cycles: the evens, and each odd number alone
    ("cycle_eq_normal", lambda: CycleEqOf(ZIG, "normal"),
     lambda x: 0 if x % 2 == 0 else x),
    # NORMAL's cycles are the classes mod 3
    ("cycle_eq_min_rep", lambda: witness_to_eq(decider_from_normal(NORMAL)),
     lambda x: x % 3),
    ("cycle_eq_one_infinite", lambda: CycleEqOf(PROBED, "one_infinite"), _probed_least),
    ("cycle_eq_few_infinite", lambda: CycleEqOf(PROBED, "few_infinite", reps=[0]),
     _probed_least),
    ("coproduct_halting", lambda: halting_equivalence("cf"), None),
    ("coproduct_pi_xy", lambda: CoproductEq(PiXYFamily(ZIG)),
     _coproduct_least(lambda z: _pi_xy_least(ZIG, *unpair(z)))),
    # a member probe that gives None leaves the code to the scan
    ("coproduct_probed", lambda: CoproductEq(ConstantFamily(CycleEqOf(PROBED, "one_infinite"))),
     _coproduct_least(lambda z: _probed_least)),
]


def _next_or_out(bc, x, budget):
    fuel = Fuel(budget)
    try:
        return bc.next_greater(x, fuel)
    except FuelExhausted:
        assert fuel.used == budget
        return FuelExhausted


@pytest.mark.parametrize("make, least", [(m, least) for _, m, least in CLOSED_FORMS],
                         ids=[name for name, _, _ in CLOSED_FORMS])
def test_closed_forms_match_the_scan(make, least):
    eq = make()
    assert eq._least_rep is not None
    plain = make()
    scan = BlockCache(OpaqueEq(lambda x, y: plain._decide(x, y, Fuel())))
    fast = BlockCache(eq)
    for x in range(WINDOW):
        lr = scan.least_rep(x)
        want = least_representative(make(), x) if least is None else least(x)
        assert fast.least_rep(x) == lr == want, x
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
    # the decider-only cycle strategies probe the orbit
    assert CycleEqOf(ZIG, "one_infinite")._least_rep is not None
    assert CycleEqOf(ZIG, "few_infinite", reps=[0])._least_rep is not None
    # a decider-only relation, an attached decider, the halting labels'
    # members, and a coproduct of scanned members are scanned
    assert OpaqueEq(lambda x, y: x == y)._least_rep is None
    attached = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: x == y, Identity())
    assert CycleEqOf(Identity(), "attached", witness=attached)._least_rep is None
    assert FibersOf(HaltingLabel("cf", LOOPS))._next_member is None
    opaque_members = CoproductEq(ConstantFamily(OpaqueEq(lambda x, y: x == y)))
    assert opaque_members._least_rep(pair(2, 3), Fuel()) is None


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


def _counting(eq):
    calls = []
    decide = eq._decide
    eq._decide = lambda x, y, fu: calls.append((x, y)) or decide(x, y, fu)
    return eq, calls


def test_a_closed_orbit_is_listed_whole_without_a_decide():
    eq, calls = _counting(CycleEqOf(PROBED, "one_infinite"))
    bc = BlockCache(eq)
    fuel = Fuel()
    assert bc.least_rep(9, fuel) == 1
    assert fuel.used == 3  # one unit per orbit step
    assert bc.members_le(9) == [1, 5, 9]
    assert [bc.nth_member(1, j) for j in range(3)] == [1, 5, 9]
    assert bc.least_rep(13) == 13 and bc.member_index(13) == 0
    assert calls == []
    # an orbit longer than the probe is left to the scan
    assert _PROBE_STEPS < 17
    fuel = Fuel()
    assert bc.least_rep(39, fuel) == 7
    assert fuel.used > _PROBE_STEPS and calls


def test_a_probe_cut_short_leaves_no_partial_block():
    eq = CycleEqOf(PROBED, "one_infinite")
    fuel = Fuel(2)
    with pytest.raises(FuelExhausted):
        BlockCache(eq).least_rep(9, fuel)
    assert fuel.used == 2
    assert eq._blocks == ({}, {}, [], {})
    assert BlockCache(eq).members_le(9) == [1, 5, 9]


def test_a_closed_block_knows_it_is_complete():
    # a scan would test every point above 9 until the budget is gone
    eq, calls = _counting(CycleEqOf(FinitaryProduct([(0, 1), (1, 2), (5, 9)]), "one_infinite"))
    bc = BlockCache(eq)
    fuel = Fuel()
    with pytest.raises(FuelExhausted, match=r"cycle_eq_of.* 9 "):
        bc.next_greater(9, fuel)
    assert fuel.used == fuel.budget
    assert calls == []
    assert bc.next_greater(5) == 9
    with pytest.raises(PreconditionViolation, match=r"cycle_eq_of.* 2 "):
        bc.next_greater(2, Fuel(None))
    # a block a scan began, then listed whole by a probe
    eq = CycleEqOf(PROBED, "one_infinite")
    bc = BlockCache(eq)
    assert bc._find_least_rep(5, Fuel()) == 1
    assert bc.least_rep(9) == 1
    assert bc.members_le(9) == [1, 5, 9]
    with pytest.raises(FuelExhausted, match=r"cycle_eq_of.* 9 "):
        bc.next_greater(9, Fuel(10**9))


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
