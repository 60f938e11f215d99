"""JSON codec for expression trees.

Every node serializes to {"kind": <the class's kind>, ...fields} with all
integers rendered as decimal strings, so files survive readers with 64-bit
number ceilings.  One table, _FIELDS, lists each serializable class's
fields in constructor order, and both directions read it: encoding reads
the attributes, decoding passes the fields to the constructor.  A field
missing from a file takes the constructor's default.  Loading checks
nothing itself beyond the JSON shapes: a node is valid when its
constructor accepts it.  Opaque wrappers and attached runtime witnesses
have no stable representation and are rejected.
"""

from __future__ import annotations

import inspect
import json
from typing import Any

from . import equivalence as eqm
from . import gadgets as gdm
from . import normalform as nfm
from . import permutation as pmm

class SerializationError(Exception):
    pass


def _n(v: int) -> str:
    return str(int(v))


def _i(s: Any) -> int:
    if isinstance(s, bool):
        raise SerializationError("expected an integer string")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        try:
            return int(s, 10)
        except ValueError:
            raise SerializationError(f"not a decimal integer: {s!r}")
    raise SerializationError(f"expected an integer string, got {type(s).__name__}")


def _encode(obj: Any, fields: tuple) -> dict:
    return {key: codec[0](getattr(obj, attr[0] if attr else key))
            for key, codec, *attr in fields}


def _defaults(cls: type) -> list:
    return [p.default for p in inspect.signature(cls).parameters.values()]


def _decode(cls: type, fields: tuple, d: dict) -> Any:
    args = []
    for (key, codec, *_), default in zip(fields, _defaults(cls)):
        # a field missing from d takes the constructor's default, if it has one
        if key in d or default is inspect.Parameter.empty:
            args.append(codec[1](d[key]))
        else:
            args.append(default)
    return cls(*args)


def to_jsonable(obj: Any) -> dict:
    t = type(obj)
    fields = _FIELDS.get(t)
    if fields is None:
        raise SerializationError(f"{t.__name__} has no serialized form")
    if t is eqm.CycleEqOf and obj.strategy == "attached":
        raise SerializationError("attached cycle witnesses are runtime-only")
    return {"kind": t.kind, **_encode(obj, fields)}


def from_jsonable(d: Any) -> Any:
    if not isinstance(d, dict) or "kind" not in d:
        raise SerializationError("expected an object with a 'kind' field")
    if d["kind"] == "halting_blocks":   # the old name of the halting coproduct
        d = {"kind": "coproduct", "family": {**d, "kind": "halting_family"}}
    cls = _BY_KIND.get(d["kind"])
    if cls is None:
        raise SerializationError(f"unknown kind {d['kind']!r}")
    try:
        return _decode(cls, _FIELDS[cls], d)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {d['kind']!r} node: {exc}")


# ---------------------------------------------------------------------------
# field codecs, (encode, decode), and the table


INT = (_n, _i)
STR = (lambda v: v, lambda v: v)
BOOL = STR    # RhoConst refuses a value that is not a boolean
NODE = (to_jsonable, from_jsonable)
INTS = (lambda vs: [_n(v) for v in vs], lambda vs: [_i(v) for v in vs])
PAIRS = (lambda ps: [[_n(a), _n(b)] for a, b in ps],
         lambda ps: [(_i(a), _i(b)) for a, b in ps])
TABLE = (lambda t: PAIRS[0](sorted(t.items())), lambda t: dict(PAIRS[1](t)))
_RULE = (("modulus", INT), ("residue", INT), ("kind", STR), ("a", INT), ("b", INT))
RULES = (lambda rs: [_encode(r, _RULE) for r in rs],
         lambda rs: [pmm.Rule(*(codec[1](r[key]) for key, codec in _RULE))
                     for r in rs])  # every rule field is required

_FIELDS: dict[type, tuple] = {
    # functions
    eqm.ConstFun: (("c", INT),),
    eqm.IdentityFun: (),
    eqm.ModFun: (("m", INT),),
    eqm.TableThenIdentity: (("table", TABLE),),
    eqm.HaltingLabel: (("variant", STR), ("code", INT)),
    # equivalences
    eqm.Singletons: (),
    eqm.Full: (),
    eqm.Modulo: (("m", INT),),
    eqm.FibersOf: (("fun", NODE),),
    eqm.CycleEqOf: (("perm", NODE), ("strategy", STR), ("reps", INTS)),
    eqm.ImageEq: (("base", NODE), ("h", NODE)),
    eqm.CoproductEq: (("family", NODE),),
    eqm.PiXY: (("f", NODE), ("x", INT), ("y", INT)),
    # families
    eqm.ConstantFamily: (("eq", NODE),),
    eqm.HaltingFamily: (("variant", STR),),
    eqm.PiXYFamily: (("f", NODE),),
    # permutations
    pmm.Identity: (),
    pmm.Transposition: (("a", INT), ("b", INT)),
    pmm.FinitaryProduct: (("transpositions", PAIRS),),
    pmm.DeltaSucc: (),
    pmm.PiecewiseResidue: (("rules", RULES), ("check_window", INT)),
    pmm.TranspositionTimes: (("x", INT), ("y", INT), ("base", NODE)),
    pmm.Compose: (("f", NODE), ("g", NODE)),
    pmm.Inverse: (("f", NODE),),
    pmm.NormalFromSet: (("eq", NODE), ("rep", INT)),
    pmm.FromRho: (("eq", NODE), ("rho", NODE)),
    pmm.SeminormalFromRho: (("eq", NODE), ("rho", NODE)),
    pmm.CoproductPerm: (("family", NODE), ("rho", NODE)),
    pmm.ConjugatorSamePartition: (("f", NODE), ("g", NODE), ("eq", NODE)),
    gdm.OddLengthGadget: (("g", NODE),),
    gdm.InterredCFPerm: (("f", NODE),),
    gdm.ConjReductionPerm: (("f", NODE), ("eq", NODE, "base"), ("x", INT)),
    nfm.SeminormalToNormal: (("f", NODE),),
    # rho expressions
    nfm.RhoConst: (("value", BOOL),),
    nfm.RhoClosure: (("f", NODE), ("eq", NODE)),
    nfm.RhoFromNormal: (("fprime", NODE),),
    nfm.RhoCardConst: (("c", INT),),
    nfm.RhoCardForBlocks: (("eq", NODE), ("reps_with_cards", PAIRS)),
    gdm.RhoHaltingCF: (),
    gdm.RhoPiXY: (("f", NODE),),
}
_BY_KIND = {cls.kind: cls for cls in _FIELDS}


# ---------------------------------------------------------------------------
# text round trips


def dumps(obj: Any) -> str:
    """Stable textual form: sorted keys, no insignificant whitespace drift."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}")
    return from_jsonable(data)


def dump(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load(path: str) -> Any:
    with open(path) as fh:
        return loads(fh.read())
