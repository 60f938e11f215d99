from collections import Counter

import pytest

from permdec import (
    Compose,
    FibersOf,
    FinitaryProduct,
    FromRho,
    Fuel,
    Identity,
    Modulo,
    OpaqueEq,
    PreconditionViolation,
    SeminormalFromRho,
    TableThenIdentity,
    Transposition,
    even_zigzag,
    perm_eval,
    perm_eval_inv,
)
from permdec import cycles as cyc
from permdec import gadgets as gd
from permdec import normalform as nf
from permdec.equivalence import BlockDecider


def _evens_eq():
    return OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))


def test_rho_closure_on_even_cycle():
    g = even_zigzag()
    rho = nf.RhoClosure(g, _evens_eq())
    # every even has a larger blockmate; odds are singletons
    assert rho(0) and rho(8) and rho(20)
    assert not rho(3)
    assert not rho(7)


def test_rho_closure_detects_finite_blocks():
    # (1 3)(3 5) cycles {1,3,5}; block {1,3,5,7} with 7 fixed would differ,
    # here take the block to be exactly {1,3,5}
    f = FinitaryProduct([(1, 3), (3, 5)])
    eq = OpaqueEq(lambda x, y: x == y or (x in (1, 3, 5) and y in (1, 3, 5)))
    rho = nf.RhoClosure(f, eq)
    assert rho(1)
    assert rho(3)
    assert not rho(5)   # nothing above 5 in the block


def test_normalize_matches_even_zigzag():
    f = Compose(even_zigzag(), FinitaryProduct([]))  # same cycles, new expr
    w = cyc.decider_one_infinite(f)
    fp = nf.normalize(f, w, eq=_evens_eq())
    g = even_zigzag()
    for x in range(80):
        assert perm_eval(fp, x) == perm_eval(g, x)


def test_normalize_reorders_a_scrambled_finite_cycle():
    # cycle (1 5 3): 1->5->3->1, not normal; normal order is 1->5, 5->3, 3->1
    f = FinitaryProduct([(1, 5), (5, 3)])
    eq = OpaqueEq(lambda x, y: x == y or (x in (1, 3, 5) and y in (1, 3, 5)))
    w = cyc.CycleWitness(
        cyc.DECIDER, lambda a, b, fu=None: eq_dec(a, b), f)
    def eq_dec(a, b):
        return a == b or (a in (1, 3, 5) and b in (1, 3, 5))
    fp = nf.normalize(f, w, eq=eq)
    assert perm_eval(fp, 1) == 5
    assert perm_eval(fp, 5) == 3
    assert perm_eval(fp, 3) == 1


def test_rho_kind_validation():
    with pytest.raises(ValueError):
        nf.perm_from_rho(Modulo(2), nf.RhoCardConst(3))
    with pytest.raises(ValueError):
        nf.seminormal_from_rho(Modulo(2), nf.RhoConst(True))
    # a coproduct rho answers about a member relation, not about Modulo(2)
    with pytest.raises(ValueError):
        nf.perm_from_rho(Modulo(2), gd.RhoHaltingCF())
    with pytest.raises(ValueError):
        nf.perm_from_rho(Modulo(2), gd.RhoPiXY(Identity()))


def test_rho_for_finitely_many_blocks():
    rho = nf.RhoCardForBlocks(Modulo(2), [(0, 0), (1, 0)])
    p = nf.seminormal_from_rho(Modulo(2), rho)
    g = even_zigzag()
    assert all(perm_eval(p, x) == perm_eval(g, x) for x in range(0, 60, 2))


def test_rho_from_perm_roundtrip():
    g = even_zigzag()
    w = cyc.decider_one_infinite(g)
    rho = nf.rho_from_perm(g, w)
    assert rho(0) and rho(14)
    assert not rho(9)


def test_build_cycle_from_set():
    eq = _evens_eq()
    member = BlockDecider(lambda y, fuel: y % 2 == 0, eq=eq, source=0)
    p = nf.build_cycle_from_set(member)
    g = even_zigzag()
    assert all(perm_eval(p, x) == perm_eval(g, x) for x in range(60))


def test_finite_union_check():
    f = FinitaryProduct([(1, 3), (3, 5)])
    assert nf.finite_union_check(f, [1, 3, 5]) == nf.Closed()
    out = nf.finite_union_check(f, [1, 3])
    assert isinstance(out, nf.Escape) and out.witness == 5
    with pytest.raises(ValueError):
        nf.finite_union_check(f, [1, 1])


def test_normal_min_examples_and_probe_bound():
    import math
    g = even_zigzag()
    for x in range(0, 60, 2):
        m, probes = nf.normal_min_with_probes(g, x)
        assert m == 0
        d = x // 2  # delta index of x within the cycle enumeration
        assert probes <= 2 * (math.ceil(math.log2(d + 1)) + 2)
    assert nf.normal_min(g, 7) == 7


def test_normal_min_on_finite_cycles():
    # normal 3-cycle 1->5->3->1 written directly
    f = FinitaryProduct([(1, 5), (5, 3)])
    fp = nf.SeminormalToNormal(f)
    m, probes = nf.normal_min_with_probes(fp, 3)
    assert m == 1
    assert nf.normal_min(fp, 5) == 1


# blocks {0, 1, 9}, {2, 12}, {3}, {5}, {20, 22}, {21, 30}; the rest alone
TABLE = {0: 9, 1: 9, 3: 5, 5: 3, 8: 8, 12: 2, 20: 21, 21: 30, 22: 21}
TABLE_LABEL = TableThenIdentity(TABLE)
# every key and label lies below 31, so a point from 31 on is alone
TABLE_SIZES = Counter(TABLE_LABEL(y) for y in range(31))


def _conj_reduction():
    # the even cycle's even powers of 0 are one infinite block
    f = even_zigzag()
    return gd.conj_reduction_perm(f, cyc.decider_one_infinite(f), 0,
                                  eq=_evens_eq())[0]


# members of Perm(eq) built from a rho: their cycles are eq's blocks, and
# each answers normal_min through its _cycle_min hook
HOOKED = [
    ("from_rho", lambda: FromRho(Modulo(3), nf.RhoConst(True))),
    ("seminormal_infinite", lambda: SeminormalFromRho(Modulo(3), nf.RhoCardConst(0))),
    ("seminormal_finite", lambda: SeminormalFromRho(
        FibersOf(TABLE_LABEL), lambda x: TABLE_SIZES.get(TABLE_LABEL(x), 1))),
    ("conj_reduction", _conj_reduction),
]


@pytest.mark.parametrize("make", [m for _, m in HOOKED], ids=[n for n, _ in HOOKED])
def test_the_cycle_min_hook_matches_the_orbit_search(make):
    p, searched = make(), make()
    assert p._cycle_min is not None
    for x in range(301):
        m, probes = nf.normal_min_with_probes(p, x)
        assert probes == 0
        assert m == nf._normal_min_search(searched, x, Fuel())[0], x


def test_the_cycle_min_hook_walks_no_orbit(monkeypatch):
    steps = []
    for cls in (FromRho, SeminormalFromRho):
        for name in ("fwd", "bwd"):
            def counting(self, x, fuel, _real=getattr(cls, name)):
                steps.append(x)
                return _real(self, x, fuel)
            monkeypatch.setattr(cls, name, counting)
    assert nf.normal_min(FromRho(Modulo(3), nf.RhoConst(True)), 3000) == 0
    assert nf.normal_min(SeminormalFromRho(Modulo(3), nf.RhoCardConst(0)), 3001) == 1
    assert steps == []


def test_decider_from_normal():
    w = nf.decider_from_normal(even_zigzag())
    d = cyc.witness_convert(w, cyc.DECIDER)
    assert d.payload(0, 12)
    assert not d.payload(0, 3)


def test_seminormal_cf_decider():
    # seminormal: finite cycles increase, plus the infinite even cycle
    from permdec.selfcheck import evens_odds
    eq = OpaqueEq(lambda x, y: x // 3 == y // 3)
    p = nf.seminormal_from_rho(eq, nf.RhoCardConst(3))
    fin = nf.seminormal_cf_decider(p)
    assert fin(0) and fin(4) and fin(11)
    fin2 = nf.seminormal_cf_decider(even_zigzag())
    assert not fin2(6)
    assert fin2(3)  # fixed point


def test_seminormal_to_normal():
    eq = OpaqueEq(lambda x, y: x // 4 == y // 4)
    p = nf.seminormal_from_rho(eq, nf.RhoCardConst(4))
    q = nf.SeminormalToNormal(p)
    # block {0,1,2,3}: normal order visits 0,1,2,3 at powers 0,-1,1,-2
    assert perm_eval(q, 0) == 2
    assert perm_eval_inv(q, 0) == 1
    assert perm_eval(q, 2) == 3
    assert perm_eval(q, 3) == 1
    rep = nf.normality_report(q, 30)
    assert rep.all_normal


def test_normality_report_verdicts():
    rep = nf.normality_report(even_zigzag(), 40)
    assert rep.all_normal and rep.clean
    eq = OpaqueEq(lambda x, y: x // 3 == y // 3)
    semi = nf.seminormal_from_rho(eq, nf.RhoCardConst(3))
    rep2 = nf.normality_report(semi, 20)
    assert rep2.clean and not rep2.all_normal
    assert any(e.verdict == "seminormal-finite" for e in rep2.entries)
    # a 4-cycle visiting members in neither accepted order violates both forms
    bad = FinitaryProduct([(0, 1), (1, 3), (3, 2)])  # 0 -> 1 -> 3 -> 2 -> 0
    rep3 = nf.normality_report(bad, 10)
    assert not rep3.clean
    v = next(e for e in rep3.entries if e.verdict == "violation")
    assert v.minimum == 0 and v.witness is not None
