"""The caller's Fuel is the one budget of every search.

Every PermExpr and EqExpr kind the serializer knows is evaluated under tiny
budgets: it answers as under the default budget, or raises FuelExhausted,
and a run that ran out leaves its caches sound for the next call.  A
relation is asked its pair decider and its BlockCache's block questions, so
a block scan or orbit probe cut short must leave no partial block.
"""

import pytest

from permdec import (
    BlockCache,
    Compose,
    ConjReductionPerm,
    ConjugatorSamePartition,
    CycleEqOf,
    DeltaSucc,
    EqExpr,
    FibersOf,
    FinitaryProduct,
    FromRho,
    Fuel,
    FuelExhausted,
    Full,
    Identity,
    ImageEq,
    InterredCFPerm,
    Inverse,
    ModFun,
    Modulo,
    NormalFromSet,
    OpaqueEq,
    OddLengthGadget,
    PermExpr,
    PiXY,
    RhoCardConst,
    RhoConst,
    SeminormalFromRho,
    SeminormalToNormal,
    Singletons,
    Transposition,
    TranspositionTimes,
    cf_hard_perm,
    eq_decide,
    even_zigzag,
    halting_equivalence,
    normal_min,
    normality_report,
    pair,
    perm_eval,
    perm_eval_inv,
)
from permdec import cycles as cyc
from permdec import machine
from permdec import serialize
from permdec.selfcheck import evens_odds

ZIG = even_zigzag()
FIN = FinitaryProduct([(0, 1), (1, 2), (5, 9)])
# ZIG's evens; the 3-cycle (1 5 9), the 17-cycle 7, 11, ..., 71 and the
# 9-cycle 65, 69, ..., 97; the rest fixed.  Orbit probes that small budgets
# cut short, and one that outruns the probe
PROBED = Compose(ZIG, FinitaryProduct([(1, 5), (5, 9)]
                                      + [(p, p + 4) for p in range(7, 71, 4)]
                                      + [(p, p + 4) for p in range(65, 97, 4)]))
BUDGETS = (0, 1, 2, 5, 20, 100)
# far points make a block scan run out part-way, after finding members
POINTS = (*range(10), 40, 97)

# (kind, factory of a fresh expression): every call builds new caches
FIXTURES = [
    ("identity", lambda: Identity()),
    ("transposition", lambda: Transposition(2, 7)),
    ("finitary_product", lambda: FIN),
    ("delta_succ", lambda: DeltaSucc()),
    ("piecewise_residue", lambda: ZIG),
    ("transposition_times", lambda: TranspositionTimes(0, 4, ZIG)),
    ("compose", lambda: Compose(ZIG, FIN)),
    ("inverse", lambda: Inverse(ZIG)),
    ("normal_from_set", lambda: NormalFromSet(Modulo(2), 0)),
    ("from_rho", lambda: FromRho(Modulo(3), RhoConst(True))),
    ("seminormal_from_rho", lambda: SeminormalFromRho(Modulo(2), RhoCardConst(0))),
    ("coproduct_perm", cf_hard_perm),
    ("conjugator_same_partition", lambda: ConjugatorSamePartition(
        ZIG, Inverse(ZIG), CycleEqOf(ZIG, "one_infinite"))),
    ("odd_length_gadget", lambda: OddLengthGadget(FIN)),
    ("interred_cf", lambda: InterredCFPerm(FIN)),
    ("conj_reduction", lambda: ConjReductionPerm(ZIG, CycleEqOf(ZIG, "one_infinite"), 0)),
    ("seminormal_to_normal", lambda: SeminormalToNormal(
        Compose(ZIG, FinitaryProduct([(1, 3), (3, 5)])))),
    ("singletons", lambda: Singletons()),
    ("full", lambda: Full()),
    ("modulo", lambda: Modulo(3)),
    ("fibers_of", lambda: FibersOf(ModFun(4))),
    ("cycle_eq_of", lambda: CycleEqOf(ZIG, "one_infinite")),
    ("cycle_eq_of", lambda: CycleEqOf(PROBED, "one_infinite")),
    ("cycle_eq_of", lambda: CycleEqOf(evens_odds(), "few_infinite", reps=[0, 1])),
    ("cycle_eq_of", lambda: CycleEqOf(ZIG, "normal")),
    ("image", lambda: ImageEq(Modulo(3), FIN)),
    ("coproduct", lambda: halting_equivalence("cf")),
    ("pi_xy", lambda: PiXY(ZIG, 4, 14)),
]
# PiXY members whose walk from x closes.  Over a finitary permutation,
# whose steps are free: x a fixed point, y on another cycle, y on x's
# cycle, and y = f(x) on a 2-cycle.  Over the 5-cycles {5i, ..., 5i+4},
# whose steps scan a block, so that the budgets cut the walk itself short
CYCLES = FinitaryProduct([(0, 1), (1, 2), (2, 3), (3, 4), (6, 8), (8, 10), (12, 13)])
CLOSING = [
    ("fixed_point", lambda: PiXY(CYCLES, 5, 7)),
    ("other_cycle", lambda: PiXY(CYCLES, 0, 8)),
    ("one_cycle", lambda: PiXY(CYCLES, 1, 4)),
    ("two_cycle", lambda: PiXY(CYCLES, 12, 13)),
    ("walk_cut_short", lambda: PiXY(SeminormalFromRho(
        OpaqueEq(lambda x, y: x // 5 == y // 5), RhoCardConst(5)), 0, 8)),
]


# normal permutations, asked normal_min: members of Perm(eq) built from a
# rho answer through their _cycle_min hook, over a relation with closed
# forms and over one that is scanned; a composition has no hook, so its
# orbit is searched, and its steps list blocks
NORMAL = [
    ("from_rho", lambda: FromRho(Modulo(3), RhoConst(True))),
    ("from_rho_scanned", lambda: FromRho(
        OpaqueEq(lambda x, y: x % 3 == y % 3), RhoConst(True))),
    ("searched", lambda: Compose(Identity(), FromRho(Modulo(3), RhoConst(True)))),
]


def _queries(obj):
    """The questions asked of obj, each as a function of the fuel."""
    if isinstance(obj, PermExpr):
        return ([lambda fu, x=x: perm_eval(obj, x, fu) for x in POINTS]
                + [lambda fu, x=x: perm_eval_inv(obj, x, fu) for x in POINTS])
    bc = BlockCache(obj)
    return ([lambda fu, x=x, y=y: eq_decide(obj, x, y, fu)
             for x in range(8) for y in range(8)]
            + [lambda fu, x=x: bc.least_rep(x, fu) for x in POINTS]
            + [lambda fu, x=x: bc.members_le(x, fu) for x in POINTS])


def test_every_serializable_kind_has_a_fixture():
    kinds = {cls.kind for cls in serialize._FIELDS
             if issubclass(cls, (PermExpr, EqExpr))}
    assert kinds == {kind for kind, _ in FIXTURES}


def _normal_min_queries(p):
    return [lambda fu, x=x: normal_min(p, x, fu) for x in (*POINTS, 3000)]


def _answers_right_or_run_out(make, ask=_queries):
    expected = [q(Fuel()) for q in ask(make())]
    obj = make()
    queries = ask(obj)
    for budget in BUDGETS:
        for q, want in zip(queries, expected):
            try:
                got = q(Fuel(budget))
            except FuelExhausted:
                continue
            assert got == want
    # whatever ran out part-way left the caches sound
    assert [q(Fuel()) for q in queries] == expected


@pytest.mark.parametrize("kind, make", FIXTURES, ids=[k for k, _ in FIXTURES])
def test_small_budgets_answer_right_or_run_out(kind, make):
    assert make().kind == kind
    _answers_right_or_run_out(make)


@pytest.mark.parametrize("make", [m for _, m in CLOSING], ids=[n for n, _ in CLOSING])
def test_small_budgets_on_closing_pi_xy_walks(make):
    _answers_right_or_run_out(make)


@pytest.mark.parametrize("make", [m for _, m in NORMAL], ids=[n for n, _ in NORMAL])
def test_small_budgets_on_normal_min(make):
    _answers_right_or_run_out(make, _normal_min_queries)


def test_from_rho_charges_the_callers_fuel():
    with pytest.raises(FuelExhausted):
        perm_eval(FromRho(Modulo(3), RhoConst(True)), 300000, Fuel(1))
    fuel = Fuel(10**6)
    assert perm_eval(FromRho(Modulo(3), RhoConst(True)), 300000, fuel) == 300006
    assert fuel.used > 0


def test_pi_xy_charges_one_unit_per_power():
    # 0 and 3 lie on different cycles of the even zig-zag, whose orbit of 0
    # never closes: deciding (0, 10**5) would try 10**5 powers
    fuel = Fuel(5)
    with pytest.raises(FuelExhausted):
        eq_decide(PiXY(ZIG, 0, 3), 0, 10**5, fuel)
    assert fuel.used == 5
    fuel = Fuel(100)
    assert eq_decide(PiXY(ZIG, 0, 3), 0, 40, fuel)
    assert fuel.used == 40


def test_normal_from_set_charges_the_callers_fuel():
    # a far point's index in its block is found by listing the members below
    # it, one unit each, so a small budget runs out at once
    fuel = Fuel(10)
    with pytest.raises(FuelExhausted):
        perm_eval(NormalFromSet(Modulo(2), 0), 10**6, fuel)
    assert fuel.used == 10
    assert perm_eval(NormalFromSet(Modulo(2), 0), 1000, Fuel(10**4)) == 1004


def test_a_converted_decider_makes_no_fuel_below_the_top(monkeypatch):
    made = []
    init = Fuel.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    # ZIG's cycles: the evens, and each odd number alone
    truth = lambda x, y, fu=None: x == y or x % 2 == y % 2 == 0
    w = cyc.witness_convert(cyc.CycleWitness(cyc.DECIDER, truth, ZIG), cyc.TRANSVERSAL)
    decider = cyc.witness_convert(w, cyc.DECIDER).payload
    fuel = Fuel()
    monkeypatch.setattr(Fuel, "__init__", counting)
    for x in range(12):
        for y in range(12):
            assert decider(x, y, fuel) == truth(x, y)
    assert made == []
    assert fuel.used > 0


def test_evaluation_makes_no_fuel_below_the_top(monkeypatch):
    made = []
    init = Fuel.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    g = InterredCFPerm(FIN)
    fuel = Fuel()
    monkeypatch.setattr(Fuel, "__init__", counting)
    for n in range(60):
        perm_eval(g, n, fuel)
        perm_eval_inv(g, n, fuel)
    assert made == []
    assert fuel.used > 0


def test_a_violated_obligation_runs_out_of_fuel():
    assert Fuel().budget == 10**7
    # rho claims a greater blockmate that the singletons relation lacks
    fuel = Fuel(10_000)
    with pytest.raises(FuelExhausted):
        perm_eval(FromRho(Singletons(), RhoConst(True)), 0, fuel)
    assert fuel.used == 10_000


def test_normality_report_takes_the_callers_fuel():
    fp = FromRho(Modulo(3), RhoConst(True))
    with pytest.raises(FuelExhausted):
        normality_report(fp, 40, Fuel(10))
    assert normality_report(fp, 40, Fuel(None)).all_normal


def test_machine_simulation_is_charged_to_the_callers_fuel(monkeypatch):
    # program 7 drains register 0, then jumps to itself forever; the least
    # member of <7, 10**5>'s block is found by simulating the run up to
    # index 10**5, which the caller's 1000 units stop at once
    steps = [0]
    real = machine.step

    def counting(p, c):
        steps[0] += 1
        return real(p, c)

    monkeypatch.setattr(machine, "step", counting)
    fuel = Fuel(1000)
    with pytest.raises(FuelExhausted):
        perm_eval(cf_hard_perm(), pair(7, 10**5), fuel)
    assert fuel.used == 1000
    assert 0 < steps[0] <= 1000
    # the same point with room to spare answers, and a run that ran out
    # resumes where it stopped
    assert perm_eval(cf_hard_perm(), pair(7, 3000), Fuel(10**4)) == pair(7, 3002)
    run = machine.Run(7)
    with pytest.raises(FuelExhausted):
        run.halts_within(500, Fuel(100))
    assert run.config.steps == 100
    assert not run.halts_within(500, Fuel(400))
    # the module's wrappers take a budget, and make one when given none
    with pytest.raises(FuelExhausted):
        machine.halting_step(7, 10**4, Fuel(10))
    assert machine.halting_step(7, 10**4) is None
    assert not machine.halts_within(7, 50)
