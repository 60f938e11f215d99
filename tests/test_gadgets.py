import pytest

from permdec import (
    FinitaryProduct,
    FromRho,
    Identity,
    OpaqueEq,
    Transposition,
    even_zigzag,
    machine,
    pair,
    perm_eval,
    perm_eval_inv,
    unpair,
)
from permdec import cycles as cyc
from permdec import gadgets as gd


def _cycle_of(p, start, cap=500):
    out = [start]
    v = perm_eval(p, start)
    while v != start:
        out.append(v)
        v = perm_eval(p, v)
        if len(out) > cap:
            return None  # treated as infinite for test purposes
    return out


def test_halting_fixtures_really_halt():
    for label, code in gd.halting_fixtures():
        assert machine.halting_step(code, 10 * code + 50) is not None, label


def test_looping_fixtures_really_loop():
    for label, code in gd.looping_fixtures():
        assert machine.certify_loops_forever(code), label


def test_cf_hard_perm_halting_cycles_are_finite():
    p = gd.cf_hard_perm()
    for label, code in gd.halting_fixtures()[:4]:
        c = _cycle_of(p, pair(code, 0))
        assert c is not None, label
        h = machine.halting_step(code, 10 * code + 50)
        assert len(c) == h, label
        assert sorted(unpair(m)[1] for m in c) == list(range(h))


def test_cf_hard_perm_looping_cycles_are_infinite():
    p = gd.cf_hard_perm()
    for label, code in gd.looping_fixtures()[:3]:
        assert _cycle_of(p, pair(code, 0), cap=120) is None, label


def test_cf_hard_perm_is_locally_bijective():
    p = gd.cf_hard_perm()
    for n in range(60):
        assert perm_eval_inv(p, perm_eval(p, n)) == n


def test_odd_length_gadget_stretches_finite_cycles():
    # g = (0 1): 2-cycle becomes a 5-cycle through the embed point
    gp, j = gd.odd_length_gadget(Transposition(0, 1))
    c = _cycle_of(gp, j(0))
    assert c == [0, 1, 6, 3, 10]
    assert len(c) == 5
    # fixed points of g become 3-cycles
    gp2, j2 = gd.odd_length_gadget(Identity())
    c2 = _cycle_of(gp2, j2(4))
    assert len(c2) == 3


def test_odd_length_gadget_lengths():
    g = FinitaryProduct([(0, 1), (1, 2)])  # one 3-cycle
    gp, j = gd.odd_length_gadget(g)
    assert len(_cycle_of(gp, j(0))) == 7
    gp3, j3 = gd.odd_length_gadget(even_zigzag())
    assert _cycle_of(gp3, j3(0), cap=200) is None  # infinite stays infinite


def test_reduce_cd_to_cf_biconditional():
    f = even_zigzag()
    g, embed = gd.reduce_cd_to_cf(f)
    # 0 and 8 share an f-cycle: the embedded block is finite
    assert _cycle_of(g, embed(0, 8), cap=200) is not None
    assert _cycle_of(g, embed(0, 0), cap=200) is not None
    # 0 and 3 do not: the embedded block is infinite
    assert _cycle_of(g, embed(0, 3), cap=200) is None


def test_reduce_cf_to_cd_biconditional():
    # finite side: (0 1) has finite cycles, j(x) and j'(x) share an f-cycle
    f, j, jprime = gd.reduce_cf_to_cd(Transposition(0, 1))
    start, target = j(0), jprime(0)
    cur, hit = start, False
    for _ in range(12):
        if cur == target:
            hit = True
            break
        cur = perm_eval(f, cur)
    assert hit
    # infinite side: no power of the square links j(0) and j'(0)
    f2, j2, jp2 = gd.reduce_cf_to_cd(even_zigzag())
    cur = j2(0)
    fwd_hits = any(
        (cur := perm_eval(f2, cur)) == jp2(0) for _ in range(300))
    cur = j2(0)
    bwd_hits = any(
        (cur := perm_eval_inv(f2, cur)) == jp2(0) for _ in range(300))
    assert not fwd_hits and not bwd_hits


def test_conj_reduction_on_the_even_cycle():
    f = even_zigzag()
    eq = OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))
    w = cyc.decider_one_infinite(f)
    node, witness = gd.conj_reduction_perm(f, w, 0, eq=eq)
    d = cyc.witness_convert(witness, cyc.DECIDER)
    # even powers of the base through f: 0, 8, 16, ... and 6, 14, ...
    assert d.payload(0, 8)
    assert d.payload(0, 6)
    assert not d.payload(0, 4)   # odd power of f from the base
    assert not d.payload(0, 3)   # unrelated point
    # the surviving block is infinite here, so it carries a real cycle
    c = _cycle_of(node, 0, cap=50)
    assert c is None
    assert perm_eval(node, 3) == 3
    assert perm_eval(node, 4) == 4


def test_conj_reduction_is_one_from_rho_node(monkeypatch):
    f = even_zigzag()
    eq = OpaqueEq(lambda x, y: x == y or (x % 2 == 0 and y % 2 == 0))
    node, witness = gd.conj_reduction_perm(f, cyc.decider_one_infinite(f), 0, eq=eq)
    assert isinstance(node, FromRho)
    # the parity witness handed out is the one the node decides its blocks by
    assert witness is node.eq.witness
    assert witness.payload is not None and witness.subject is node
    steps = []
    for cls in {FromRho, gd.ConjReductionPerm}:
        for name in ("fwd", "bwd"):
            if name in vars(cls):
                def counting(self, n, fuel, _real=vars(cls)[name], _name=name):
                    steps.append(_name)
                    return _real(self, n, fuel)
                monkeypatch.setattr(cls, name, counting)
    for u in (0, 3, 4, 6, 8):
        steps.clear()
        perm_eval(node, u)
        assert steps == ["fwd"], u
        steps.clear()
        perm_eval_inv(node, u)
        assert steps == ["bwd"], u


def test_conj_reduction_finite_case():
    # 4-cycle 0 -> 2 -> 4 -> 6 -> 0: even powers of 0 are {0, 4}
    f = FinitaryProduct([(0, 2), (2, 4), (4, 6)])
    eq = OpaqueEq(
        lambda x, y: x == y or (x in (0, 2, 4, 6) and y in (0, 2, 4, 6)))
    w = cyc.CycleWitness(
        cyc.DECIDER,
        lambda a, b, fu=None: a == b or (a in (0, 2, 4, 6) and b in (0, 2, 4, 6)),
        f)
    node, witness = gd.conj_reduction_perm(f, w, 0, eq=eq)
    assert node.pi_prime(0, 4)
    assert not node.pi_prime(0, 2)
    c = _cycle_of(node, 0)
    assert sorted(c) == [0, 4]
    assert perm_eval(node, 2) == 2
