import json
import pathlib

import pytest

from permdec import (
    Compose,
    CycleEqOf,
    DeltaSucc,
    FinitaryProduct,
    FibersOf,
    FromRho,
    Identity,
    Inverse,
    ModFun,
    Modulo,
    NormalFromSet,
    OpaqueEq,
    PiecewiseResidue,
    Rule,
    Singletons,
    Transposition,
    TranspositionTimes,
    even_zigzag,
    perm_eval,
)
from permdec import cycles as cyc
from permdec import gadgets as gd
from permdec import normalform as nf
from permdec import serialize
from permdec.serialize import (
    SerializationError,
    dumps,
    from_jsonable,
    loads,
    to_jsonable,
)

# One instance of every serialized kind, as the per-kind encoders wrote it
# before one field table replaced them, and inputs that lean on the reader
# ("load": missing fields, an old kind name, bare integers) with the text
# they dumped to then
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "serialize_golden.json").read_text())


SAMPLES = [
    Identity(),
    Transposition(4, 9),
    DeltaSucc(),
    FinitaryProduct([(0, 1), (5, 2)]),
    even_zigzag(),
    Compose(even_zigzag(), Transposition(0, 2)),
    Inverse(even_zigzag()),
    TranspositionTimes(1, 3, DeltaSucc()),
    Modulo(6),
    Singletons(),
    FibersOf(ModFun(4)),
    CycleEqOf(even_zigzag(), "one_infinite"),
    NormalFromSet(Modulo(2), 0),
    FromRho(Modulo(3), nf.RhoConst(True)),
    nf.RhoConst(False),
    nf.RhoCardConst(5),
    gd.cf_hard_perm(),
    gd.InterredCFPerm(even_zigzag()),
]


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda o: type(o).__name__)
def test_roundtrip_preserves_structure(obj):
    text = dumps(obj)
    back = loads(text)
    assert dumps(back) == text


@pytest.mark.parametrize("text", [
    '{"kind": "pair_left"}',
    '{"kind": "pair_right"}',
    '{"kind": "compose_fun", "outer": {"kind": "mod", "m": "2"}, '
    '"inner": {"kind": "identity_fun"}}',
    '{"kind": "fibers_of", "fun": {"kind": "pair_left"}}',
], ids=["pair_left", "pair_right", "compose_fun", "nested"])
def test_removed_function_kinds_fail_to_load(text):
    with pytest.raises(SerializationError, match="unknown kind"):
        loads(text)


def test_halting_blocks_loads_as_the_halting_coproduct():
    eq = loads('{"kind": "halting_blocks", "variant": "cf"}')
    assert dumps(eq) == dumps(gd.halting_equivalence("cf"))


def test_roundtrip_preserves_behavior():
    g = even_zigzag()
    g2 = loads(dumps(g))
    assert all(perm_eval(g2, x) == perm_eval(g, x) for x in range(40))


def test_integers_are_decimal_strings():
    d = to_jsonable(Transposition(10, 255))
    assert d["a"] == "10" and d["b"] == "255"
    blob = json.loads(dumps(FinitaryProduct([(1, 2)])))
    flat = json.dumps(blob)
    assert "1" in flat


def test_output_is_stable_and_newline_terminated():
    g = even_zigzag()
    assert dumps(g) == dumps(g)
    assert dumps(g).endswith("\n")


def test_opaque_eq_refuses_serialization():
    with pytest.raises(SerializationError):
        dumps(OpaqueEq(lambda x, y: x == y))


def test_attached_witness_refuses_serialization():
    g = even_zigzag()
    w = cyc.CycleWitness(cyc.DECIDER, lambda x, y, fu=None: True, g)
    eq = CycleEqOf(g, "attached", witness=w)
    with pytest.raises(SerializationError):
        dumps(eq)


def test_malformed_input_is_rejected():
    with pytest.raises(SerializationError):
        loads("not json at all {")
    with pytest.raises(SerializationError):
        from_jsonable({"kind": "no-such-node"})
    with pytest.raises(SerializationError):
        from_jsonable({"no_kind": True})
    with pytest.raises(SerializationError):
        from_jsonable({"kind": "transposition", "a": "x", "b": "2"})
    # a rule's fields have no defaults: a "const" rule needs its b
    with pytest.raises(SerializationError):
        from_jsonable({"kind": "piecewise_residue", "rules": [
            {"modulus": "0", "residue": "0", "kind": "const", "a": "0"}]})
    # bare JSON integers are tolerated on input, only output insists on strings
    t = from_jsonable({"kind": "transposition", "a": 2, "b": 3})
    assert to_jsonable(t)["a"] == "2"


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
def test_golden_bytes(entry):
    assert dumps(loads(entry.get("load", entry["dumps"]))) == entry["dumps"]


def test_golden_file_covers_every_kind():
    assert ({cls.kind for cls in serialize._FIELDS}
            == {e["name"] for e in GOLDEN if "load" not in e})


# nodes that only their constructor refuses, with the kind named in the error
REFUSED_BY_CONSTRUCTOR = {
    "from_rho": ("from_rho", '{"kind": "from_rho", "eq": {"kind": "modulo", '
                 '"m": "2"}, "rho": {"kind": "rho_card_const", "c": "0"}}'),
    "from_rho_coproduct_rho": ("from_rho", '{"kind": "from_rho", "eq": '
                               '{"kind": "modulo", "m": "2"}, "rho": {"kind": '
                               '"rho_halting_cf"}}'),
    "seminormal_from_rho": ("seminormal_from_rho", '{"kind": '
                            '"seminormal_from_rho", "eq": {"kind": "modulo", '
                            '"m": "2"}, "rho": {"kind": "rho_const", '
                            '"value": true}}'),
    "halting_family": ("halting_family", '{"kind": "coproduct_perm", "family": '
                       '{"kind": "halting_family", "variant": "bogus"}, "rho": '
                       '{"kind": "rho_halting_cf"}}'),
}


@pytest.mark.parametrize("case", REFUSED_BY_CONSTRUCTOR)
def test_constructor_checks_refuse_at_load(case):
    kind, text = REFUSED_BY_CONSTRUCTOR[case]
    with pytest.raises(SerializationError, match=f"malformed '{kind}' node"):
        loads(text)
