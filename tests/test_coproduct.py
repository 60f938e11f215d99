"""Coproduct permutations ask their rho about one member relation: no pair
code is rebuilt per query, and InterredCFPerm is one CoproductPerm node."""

import json

import pytest

from permdec import (
    FibersOf,
    FinitaryProduct,
    Fuel,
    HaltingLabel,
    PiXY,
    RhoConst,
    even_zigzag,
    pair,
    perm_eval,
    perm_eval_inv,
)
from permdec import equivalence as eqm
from permdec import gadgets as gd
from permdec import permutation as pm
from permdec.equivalence import PiXYFamily
from permdec.permutation import CoproductPerm
from permdec.serialize import SerializationError, dumps, loads, to_jsonable

FIN = FinitaryProduct([(0, 1), (1, 2), (5, 9)])
SPIN = dict(gd.looping_fixtures())["spin"]


def _compact(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True)


def test_serialized_forms_are_pinned():
    assert _compact(gd.cf_hard_perm()) == (
        '{"family": {"kind": "halting_family", "variant": "cf"}, '
        '"kind": "coproduct_perm", "rho": {"kind": "rho_halting_cf"}}')
    assert _compact(gd.InterredCFPerm(FIN)) == (
        '{"f": {"kind": "finitary_product", "transpositions": '
        '[["0", "1"], ["1", "2"], ["5", "9"]]}, "kind": "interred_cf"}')
    assert _compact(gd.RhoPiXY(FIN)) == (
        '{"f": {"kind": "finitary_product", "transpositions": '
        '[["0", "1"], ["1", "2"], ["5", "9"]]}, "kind": "rho_pi_xy"}')


@pytest.mark.parametrize("f", [FIN, even_zigzag()], ids=["finitary", "zigzag"])
def test_interred_cf_is_the_coproduct_of_the_power_windows(f):
    a = gd.InterredCFPerm(f)
    b = CoproductPerm(PiXYFamily(f), gd.RhoPiXY(f))
    for n in range(300):
        assert perm_eval(a, n) == perm_eval(b, n)
        assert perm_eval_inv(a, n) == perm_eval_inv(b, n)
    assert dumps(loads(dumps(a))) == dumps(a)


def test_interred_cf_is_one_coproduct_node():
    p = gd.InterredCFPerm(FIN)
    assert isinstance(p, CoproductPerm)
    assert p.kind == "interred_cf" and p.f is FIN
    assert not hasattr(p, "_inner")


def test_a_coproduct_rho_answers_about_its_member():
    rho = gd.RhoPiXY(FIN)
    assert rho(PiXY(FIN, 0, 5), 3)            # 5 is off 0's cycle: one block
    assert not rho(PiXY(FIN, 0, 1), 0, Fuel(100))   # f(0) = 1: singletons
    assert not rho(PiXY(FIN, 0, 0), 7)
    zig = even_zigzag()          # f^2(0) = 8: the block of 0 is {0, 1}
    assert gd.RhoPiXY(zig)(PiXY(zig, 0, 8), 0)
    assert not gd.RhoPiXY(zig)(PiXY(zig, 0, 8), 1)
    halting = gd.RhoHaltingCF()
    code = dict(gd.halting_fixtures())["drain-own-code"]   # halts at step 17
    member = FibersOf(HaltingLabel("cf", code))
    assert [halting(member, i) for i in (0, 15, 16, 17, 40)] == [
        True, True, False, True, True]
    spin = FibersOf(HaltingLabel("cf", SPIN))
    assert all(halting(spin, i) for i in range(30))


def test_coproduct_perm_wants_a_coproduct_rho():
    with pytest.raises(ValueError):
        CoproductPerm(PiXYFamily(FIN), RhoConst(True))
    with pytest.raises(SerializationError, match="coproduct_greater"):
        loads('{"kind": "coproduct_perm", "family": {"kind": "halting_family", '
              '"variant": "cf"}, "rho": {"kind": "rho_const", "value": true}}')


def _count_unpairs(monkeypatch) -> list:
    calls = []
    for mod in (pm, eqm, gd):
        if hasattr(mod, "unpair"):
            original = mod.unpair

            def counting(z, _original=original):
                calls.append(z)
                return _original(z)
            monkeypatch.setattr(mod, "unpair", counting)
    return calls


@pytest.mark.parametrize("build, start", [
    (lambda: gd.InterredCFPerm(even_zigzag()), gd.cd_embed(0, 6)),
    (gd.cf_hard_perm, pair(SPIN, 0)),
], ids=["interred_cf", "cf_hard_perm"])
def test_a_walk_unpairs_once_per_step(monkeypatch, build, start):
    p = build()
    calls = _count_unpairs(monkeypatch)
    steps = 60
    v = start
    for _ in range(steps):
        v = perm_eval(p, v)
    # the coproduct's own split of each point, plus at most one for the
    # member's index when the walk first meets it; none in gadgets
    assert steps <= len(calls) <= steps + 1
